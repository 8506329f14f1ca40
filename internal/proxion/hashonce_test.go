package proxion

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/keccak"
	"repro/internal/solc"
)

// TestStructuralFollowerHashesOnce pins the cost of a structural hit in
// sponge runs: a follower hashes nothing. Its family is found by
// static.FamilyKey, which is no Keccak; its code hash comes from the
// chain's per-account cache, and the family's template needs neither. The
// family's first follower also runs its leader's deferred cross-check,
// whose summary carries the leader's fingerprint: one sponge run, once per
// family (the leader's code hash is the chain's).
func TestStructuralFollowerHashesOnce(t *testing.T) {
	c := chain.New()
	const n = 5
	stamps := make([]etypes.Address, n)
	for i := range stamps {
		stamps[i] = structAddr(byte(0x40 + i))
		c.InstallContract(stamps[i], disasm.MinimalProxyRuntime(structAddr(byte(0x10+i))))
	}
	slotA := etypes.Keccak([]byte("twin.slot.a"))
	slotB := etypes.Keccak([]byte("twin.slot.b"))
	twinA, twinB := structAddr(0x51), structAddr(0x52)
	c.InstallContract(twinA, solc.MustCompile(&solc.Contract{
		Name: "TwinA", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotA}}))
	c.InstallContract(twinB, solc.MustCompile(&solc.Contract{
		Name: "TwinB", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotB}}))
	c.SetStorageDirect(twinA, slotA, etypes.HashFromWord(structAddr(0x01).Word()))
	c.SetStorageDirect(twinB, slotB, etypes.HashFromWord(structAddr(0x02).Word()))

	d := NewDetector(c)
	for _, leader := range []etypes.Address{stamps[0], twinA} {
		if _, tr := d.checkDeduped(leader, c.Code(leader)); tr != (probeTrace{source: sourceEmulated}) {
			t.Fatalf("leader %s trace = %+v, want a plain emulation with no summary", leader, tr)
		}
	}
	for i, follower := range append(stamps[1:], twinB) {
		code := c.Code(follower)
		var tr probeTrace
		runs := keccak.CountSponges(func() { _, tr = d.checkDeduped(follower, code) })
		want, wantRuns := probeTrace{source: sourceStructuralHit}, int64(0)
		if i == 0 || follower == twinB {
			// the family's first follower: the leader's check
			want.summaries, wantRuns = 1, 1
		}
		if tr != want {
			t.Fatalf("follower %s trace = %+v, want %+v", follower, tr, want)
		}
		if runs != wantRuns {
			t.Errorf("follower %s: %d sponge runs, want %d", follower, runs, wantRuns)
		}
	}
	// An exact duplicate of a promoted follower is a level-one hit: the
	// chain's cached hash finds the entry and nothing is hashed at all.
	dup := structAddr(0x60)
	c.InstallContract(dup, c.Code(stamps[1]))
	var tr probeTrace
	runs := keccak.CountSponges(func() { _, tr = d.checkDeduped(dup, c.Code(dup)) })
	if tr.source != sourceExactHit || runs != 0 {
		t.Errorf("exact duplicate: trace %+v with %d sponge runs, want an exact hit with 0", tr, runs)
	}
}

// craftCallDataMapped is CraftCallData as first written — a map of the
// candidates, a fresh seed slice per try, an appended payload preimage —
// kept as the oracle for the allocation-free form.
func craftCallDataMapped(addr etypes.Address, code []byte) []byte {
	avoid := make(map[[4]byte]struct{})
	for _, sel := range disasm.Push4Candidates(code) {
		avoid[sel] = struct{}{}
	}
	var sel [4]byte
	for try := 0; ; try++ {
		seed := make([]byte, 0, 28)
		seed = append(seed, addr[:]...)
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(try))
		seed = append(seed, n[:]...)
		h := keccak.Sum256(seed)
		copy(sel[:], h[:4])
		if _, clash := avoid[sel]; !clash {
			break
		}
	}
	payload := keccak.Sum256(append([]byte("proxion-probe"), addr[:]...))
	out := make([]byte, 0, 4+32)
	out = append(out, sel[:]...)
	out = append(out, payload[:]...)
	return out
}

// TestCraftCallDataUnchanged holds the probe bytes fixed over the whole
// gen corpus, and forces the retry loop by planting the selector the first
// tries would pick among the code's PUSH4 candidates.
func TestCraftCallDataUnchanged(t *testing.T) {
	corpus := gen.Generate(gen.Config{Seed: 7, Contracts: 64})
	for _, l := range corpus.Labels {
		got, want := CraftCallData(l.Address, l.Code), craftCallDataMapped(l.Address, l.Code)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v %s: call data %x, want %x", l.Kind, l.Address, got, want)
		}
	}

	addr := structAddr(0x77)
	var code []byte
	for try := 0; try < 3; try++ {
		clash := CraftCallData(addr, code)[:4]
		code = append(code, 0x63) // PUSH4
		code = append(code, clash...)
		got, want := CraftCallData(addr, code), craftCallDataMapped(addr, code)
		if !bytes.Equal(got, want) {
			t.Fatalf("after %d planted clashes: call data %x, want %x", try+1, got, want)
		}
		if bytes.Equal(got[:4], clash) {
			t.Fatalf("after %d planted clashes: selector %x still collides", try+1, clash)
		}
	}

	// What is left is the result plus whatever Push4Candidates allocates.
	plain := disasm.MinimalProxyRuntime(structAddr(0x01))
	scan := testing.AllocsPerRun(50, func() { disasm.Push4Candidates(plain) })
	if n := testing.AllocsPerRun(50, func() { CraftCallData(addr, plain) }); n != scan+1 {
		t.Errorf("CraftCallData allocates %v times per call, want %v (candidate scan) + 1 (result)", n, scan)
	}
}

// TestGuardFingerprintStreamsSameBytes: the guard fingerprint is keccak
// over slot||value pairs in slot order, however it is fed to the sponge.
func TestGuardFingerprintStreamsSameBytes(t *testing.T) {
	c := chain.New()
	addr := structAddr(0x70)
	c.InstallContract(addr, []byte{0x00})
	slots := []etypes.Hash{{31: 1}, etypes.Keccak([]byte("paused")), {31: 7}}
	var want []byte
	for i, s := range slots {
		v := etypes.Hash{31: byte(0x80 + i)}
		c.SetStorageDirect(addr, s, v)
		want = append(want, s[:]...)
		want = append(want, v[:]...)
	}
	d := NewDetector(c)
	if got := d.guardFingerprint(addr, slots); got != etypes.Keccak(want) {
		t.Fatalf("guard fingerprint %s, want keccak of the slot/value pairs %s", got, etypes.Keccak(want))
	}
	if got := d.guardFingerprint(addr, nil); got != (etypes.Hash{}) {
		t.Fatalf("empty guard set fingerprints to %s, want the zero hash", got)
	}
}
