package bench

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/solc"
)

// nearCloneAddr derives a deterministic address for one landscape slot.
func nearCloneAddr(tag byte, i int) etypes.Address {
	var a etypes.Address
	a[0], a[1] = 0xbc, tag
	binary.BigEndian.PutUint32(a[15:19], uint32(i))
	return a
}

// nearCloneLandscape builds the composition bench/e2e's scan-nearclone
// workload times, mirroring the mainnet skew the paper reports (~89% of
// proxies are EIP-1167 stamps): 60% minimal-proxy stamps of distinct logic
// addresses, 25% compiler twins differing only in their 32-byte
// implementation-slot constant, 15% byte-identical duplicates of the first
// stamp.
func nearCloneLandscape(scale int) (st *chain.Chain, stamps, twins, dupes int) {
	stamps, twins = scale*60/100, scale*25/100
	dupes = scale - stamps - twins
	st = chain.New()
	st.AdvanceTo(1)
	for i := 0; i < stamps; i++ {
		st.InstallContract(nearCloneAddr(0x01, i),
			disasm.MinimalProxyRuntime(nearCloneAddr(0xee, i)))
	}
	for i := 0; i < twins; i++ {
		addr := nearCloneAddr(0x02, i)
		slot := etypes.Keccak(addr[:])
		st.InstallContract(addr, solc.MustCompile(&solc.Contract{
			Name:     fmt.Sprintf("Twin%d", i),
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
		}))
		st.SetStorageDirect(addr, slot, etypes.HashFromWord(nearCloneAddr(0xdd, i).Word()))
	}
	for i := 0; i < dupes; i++ {
		st.InstallContract(nearCloneAddr(0x03, i),
			disasm.MinimalProxyRuntime(nearCloneAddr(0xee, 0)))
	}
	return st, stamps, twins, dupes
}

// TestNearCloneWorkloadUplift pins the structural-promotion uplift as a
// deterministic counter property of a near-clone landscape streamed through
// the engine at its production defaults, not a timing: the landscape's
// bytecodes are almost all distinct, so the exact-hash tier alone could
// never hit more often than the duplicate share — yet with the structural
// second-level key each clone family costs exactly one emulation.
func TestNearCloneWorkloadUplift(t *testing.T) {
	const scale = 200
	st, stamps, twins, dupes := nearCloneLandscape(scale)
	res := proxion.NewDetector(st).AnalyzeAllWithOptions(nil, proxion.AnalyzeOptions{})
	got := res.Stats.Counters()

	// One emulation per clone family (stamps, twins); every other distinct
	// bytecode is served by a validated structural promotion from its
	// family's template, whose one static summary (the leader's check) is
	// all the static analysis a family costs; the byte-identical
	// duplicates stay on the exact-hash tier.
	want := map[string]int64{
		"contracts":          int64(scale),
		"emulations":         2,
		"structural_hits":    int64(stamps + twins - 2),
		"cache_hits":         int64(stamps + twins - 2 + dupes),
		"static_summaries":   2,
		"structural_rejects": 0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("counter %s = %d, want %d", k, got[k], v)
		}
	}
	// The headline uplift: the hit count must exceed the exact-hash
	// ceiling (the duplicate share) — only structural promotion gets past
	// it on a distinct-bytecode landscape.
	if got["cache_hits"] <= int64(dupes) {
		t.Errorf("cache_hits = %d does not beat the exact-hash ceiling %d",
			got["cache_hits"], dupes)
	}
}
