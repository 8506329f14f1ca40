package proxion

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/solc"
	"repro/internal/u256"
)

// structAddr builds a deterministic test address from a small ordinal.
func structAddr(n byte) etypes.Address {
	var a etypes.Address
	a[18] = 0x7a
	a[19] = n
	return a
}

// TestStructuralCloneFamilyOneEmulation is the headline property: N
// EIP-1167 stamps of N *different* logic contracts are N distinct
// bytecodes — the exact-hash cache cannot help — yet one emulation of the
// family exemplar serves every stamp, each re-anchored to its own
// embedded implementation address. The same holds for M compiler twins
// differing only in their implementation-slot constant, each re-anchored
// to its own slot, while byte-identical duplicates stay on the exact-hash
// tier: two emulations for the whole landscape.
func TestStructuralCloneFamilyOneEmulation(t *testing.T) {
	c := chain.New()
	const n, m, dupes = 6, 4, 3
	want := make(map[etypes.Address]etypes.Address) // proxy -> its own logic
	stamps := make(map[etypes.Address]bool)
	for i := 0; i < n; i++ {
		logic, stamp := structAddr(byte(0x10+i)), structAddr(byte(0x40+i))
		c.InstallContract(stamp, disasm.MinimalProxyRuntime(logic))
		want[stamp], stamps[stamp] = logic, true
	}
	for i := 0; i < m; i++ {
		twin, logic := structAddr(byte(0x80+i)), structAddr(byte(0x20+i))
		slot := etypes.Keccak(twin[:])
		c.InstallContract(twin, solc.MustCompile(&solc.Contract{
			Name:     "Twin",
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
		}))
		c.SetStorageDirect(twin, slot, etypes.HashFromWord(logic.Word()))
		want[twin] = logic
	}
	for i := 0; i < dupes; i++ {
		dupe := structAddr(byte(0xc0 + i))
		c.InstallContract(dupe, disasm.MinimalProxyRuntime(structAddr(0x10)))
		want[dupe], stamps[dupe] = structAddr(0x10), true
	}

	d := NewDetector(c)
	res := d.AnalyzeAll(nil)
	if len(res.Reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(res.Reports), len(want))
	}
	for _, rep := range res.Reports {
		target := TargetStorage
		if stamps[rep.Address] {
			target = TargetHardcoded
			if rep.Standard != StandardEIP1167 {
				t.Errorf("stamp %s classified %s, want EIP-1167", rep.Address, rep.Standard)
			}
		}
		if !rep.IsProxy || rep.Logic != want[rep.Address] || rep.Target != target {
			t.Errorf("%s: proxy=%v logic=%s target=%s, want its own logic %s, target %s",
				rep.Address, rep.IsProxy, rep.Logic, rep.Target, want[rep.Address], target)
		}
	}
	promoted := int64(n - 1 + m - 1)
	if res.Stats.Emulations != 2 {
		t.Errorf("emulations = %d, want 2: one per clone family", res.Stats.Emulations)
	}
	if res.Stats.StructuralHits != promoted || res.Stats.CacheHits != promoted+dupes {
		t.Errorf("structural hits = %d, cache hits = %d, want %d promotions and %d hits",
			res.Stats.StructuralHits, res.Stats.CacheHits, promoted, promoted+dupes)
	}
	// One static summary for each exemplar cross-check, one per promotion.
	if res.Stats.StaticSummaries != n+m {
		t.Errorf("static summaries = %d, want %d", res.Stats.StaticSummaries, n+m)
	}
	if res.Stats.StructuralRejects != 0 {
		t.Errorf("structural rejects = %d, want 0", res.Stats.StructuralRejects)
	}

	// The ablation switch restores one emulation per distinct bytecode.
	off := NewDetector(c).AnalyzeAllWithOptions(nil, AnalyzeOptions{DisableStructural: true})
	if off.Stats.Emulations != n+m || off.Stats.StructuralHits != 0 {
		t.Errorf("structural off: emulations = %d structural hits = %d, want %d and 0",
			off.Stats.Emulations, off.Stats.StructuralHits, n+m)
	}
}

// TestStructuralStorageTwinsReanchor covers the storage side: two
// compiler twins differing only in their 32-byte implementation slot
// constant share a fingerprint, and the promoted follower must report its
// *own* slot and its own slot's current value — byte-for-byte what a
// fresh emulation would have reported.
func TestStructuralStorageTwinsReanchor(t *testing.T) {
	c := chain.New()
	slotA := etypes.Keccak([]byte("twin.slot.a"))
	slotB := etypes.Keccak([]byte("twin.slot.b"))
	logicA, logicB := structAddr(0x01), structAddr(0x02)
	pA, pB := structAddr(0x51), structAddr(0x52)
	c.InstallContract(pA, solc.MustCompile(&solc.Contract{
		Name: "TwinA", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotA}}))
	c.InstallContract(pB, solc.MustCompile(&solc.Contract{
		Name: "TwinB", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotB}}))
	c.SetStorageDirect(pA, slotA, etypes.HashFromWord(logicA.Word()))
	c.SetStorageDirect(pB, slotB, etypes.HashFromWord(logicB.Word()))

	d := NewDetector(c)
	repA, trA := d.checkDeduped(pA, c.Code(pA))
	if trA.source != sourceEmulated || !trA.analyzed || trA.rejected {
		t.Fatalf("exemplar trace = %+v, want analyzed emulation", trA)
	}
	if !repA.IsProxy || repA.ImplSlot != slotA || repA.Logic != logicA {
		t.Fatalf("exemplar report wrong: %+v", repA)
	}

	repB, trB := d.checkDeduped(pB, c.Code(pB))
	if trB.source != sourceStructuralHit {
		t.Fatalf("twin trace = %+v, want structural hit", trB)
	}
	if repB.ImplSlot != slotB || repB.Logic != logicB || repB.Target != TargetStorage {
		t.Fatalf("twin not re-anchored to its own slot: %+v", repB)
	}

	// Promotion parity: the promoted report must equal the report an
	// emulation-only detector produces for the same address.
	plain := NewDetector(c)
	plain.configure(AnalyzeOptions{DisableStructural: true})
	want, _ := plain.checkDeduped(pB, c.Code(pB))
	if !reflect.DeepEqual(repB, want) {
		t.Fatalf("promoted report diverges from emulated report:\n got %+v\nwant %+v", repB, want)
	}
}

// maskedJumpForwarder is a forwarding proxy whose entry jump target is a
// PUSH32 immediate: dynamically a clean hard-coded proxy, but the masked
// immediate decides control flow, so two fingerprint-twins could diverge.
// The family must never register.
func maskedJumpForwarder(target etypes.Address) []byte {
	var imm [32]byte
	imm[31] = 34 // JUMPDEST position: 1 + 32 (PUSH32) + 1 (JUMP)
	return (&asm.Program{}).
		PushBytes(imm[:]).Op(evm.JUMP).
		Op(evm.JUMPDEST).
		// calldatacopy(0, 0, calldatasize)
		Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		// delegatecall(gas, target, 0, calldatasize, 0, 0)
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		PushBytes(target[:]).Op(evm.GAS).Op(evm.DELEGATECALL).
		Op(evm.STOP).MustAssemble()
}

func TestStructuralRefusesMaskedImmFlow(t *testing.T) {
	c := chain.New()
	p1, p2 := structAddr(0x61), structAddr(0x62)
	t1, t2 := structAddr(0x03), structAddr(0x04)
	c.InstallContract(p1, maskedJumpForwarder(t1))
	c.InstallContract(p2, maskedJumpForwarder(t2))

	d := NewDetector(c)
	rep1, tr1 := d.checkDeduped(p1, c.Code(p1))
	if !rep1.IsProxy || rep1.Logic != t1 {
		t.Fatalf("exemplar verdict wrong: %+v", rep1)
	}
	if !tr1.analyzed || !tr1.rejected {
		t.Fatalf("exemplar trace = %+v, want analyzed and rejected (MaskedImmFlow)", tr1)
	}

	// The family is unregistered: the twin is emulated, not promoted, and
	// its static summary is never even attempted.
	rep2, tr2 := d.checkDeduped(p2, c.Code(p2))
	if tr2.source != sourceEmulated || tr2.analyzed {
		t.Fatalf("twin trace = %+v, want plain emulation of unregistered family", tr2)
	}
	if !rep2.IsProxy || rep2.Logic != t2 {
		t.Fatalf("twin verdict wrong: %+v", rep2)
	}
}

// guardedForwarder reads a pause-flag slot before forwarding: the verdict
// depends on per-address state beyond the implementation target, which
// the structural layer cannot compare across different bytecodes.
func guardedForwarder(target etypes.Address) []byte {
	return (&asm.Program{}).
		PushUint(7).Op(evm.SLOAD).JumpI("halt").
		Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		PushBytes(target[:]).Op(evm.GAS).Op(evm.DELEGATECALL).
		Op(evm.STOP).
		Label("halt").PushUint(0).PushUint(0).Op(evm.REVERT).
		MustAssemble()
}

func TestStructuralRefusesGuardReadingFallback(t *testing.T) {
	c := chain.New()
	p1, p2 := structAddr(0x71), structAddr(0x72)
	c.InstallContract(p1, guardedForwarder(structAddr(0x05)))
	c.InstallContract(p2, guardedForwarder(structAddr(0x06)))

	d := NewDetector(c)
	rep1, tr1 := d.checkDeduped(p1, c.Code(p1))
	if !rep1.IsProxy {
		t.Fatalf("exemplar verdict wrong: %+v", rep1)
	}
	// Guard slots present: the exemplar is not even statically analyzed
	// and the family never registers.
	if tr1.analyzed || tr1.rejected {
		t.Fatalf("exemplar trace = %+v, want no structural attempt", tr1)
	}
	if _, tr2 := d.checkDeduped(p2, c.Code(p2)); tr2.source != sourceEmulated {
		t.Fatalf("twin trace = %+v, want plain emulation", tr2)
	}
}

// TestStructuralRefusesPackedSlotTwin pins validate-before-promote on the
// follower side: the family is registered by a clean exemplar, but a twin
// whose own slot value carries nonzero upper bytes is refused (the
// uncached path classifies a packed slot as hard-coded) and re-emulated —
// cached-with-promotion analysis must match uncached analysis exactly.
func TestStructuralRefusesPackedSlotTwin(t *testing.T) {
	c := chain.New()
	slotA := etypes.Keccak([]byte("packed.twin.a"))
	slotB := etypes.Keccak([]byte("packed.twin.b"))
	pA, pB := structAddr(0x81), structAddr(0x82)
	c.InstallContract(pA, solc.MustCompile(&solc.Contract{
		Name: "CleanTwin", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotA}}))
	c.InstallContract(pB, solc.MustCompile(&solc.Contract{
		Name: "PackedTwin", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotB}}))
	c.SetStorageDirect(pA, slotA, etypes.HashFromWord(structAddr(0x07).Word()))
	// pB's slot packs an admin flag into the upper bytes next to the address.
	packed := structAddr(0x08).Word().Or(u256.One().Shl(200))
	c.SetStorageDirect(pB, slotB, etypes.HashFromWord(packed))

	d := NewDetector(c)
	if _, tr := d.checkDeduped(pA, c.Code(pA)); tr.rejected || !tr.analyzed {
		t.Fatalf("clean exemplar trace = %+v, want registration", tr)
	}
	repB, trB := d.checkDeduped(pB, c.Code(pB))
	if trB.source != sourceEmulated || !trB.rejected {
		t.Fatalf("packed twin trace = %+v, want rejected promotion and re-emulation", trB)
	}

	plain := NewDetector(c)
	plain.configure(AnalyzeOptions{DisableStructural: true})
	want, _ := plain.checkDeduped(pB, c.Code(pB))
	if !reflect.DeepEqual(repB, want) {
		t.Fatalf("packed twin diverges from uncached analysis:\n got %+v\nwant %+v", repB, want)
	}
}

// TestStructuralRefusesSelfTargetTwin: a follower whose embedded target is
// its own address cannot inherit the family verdict (the exact cache's
// self-target refusal, applied per promotion).
func TestStructuralRefusesSelfTargetTwin(t *testing.T) {
	c := chain.New()
	p1, p2 := structAddr(0x91), structAddr(0x92)
	c.InstallContract(p1, disasm.MinimalProxyRuntime(structAddr(0x09)))
	c.InstallContract(p2, disasm.MinimalProxyRuntime(p2)) // delegates to itself

	d := NewDetector(c)
	if _, tr := d.checkDeduped(p1, c.Code(p1)); tr.rejected {
		t.Fatalf("exemplar trace = %+v, want registration", tr)
	}
	rep2, tr2 := d.checkDeduped(p2, c.Code(p2))
	if tr2.source != sourceEmulated || !tr2.rejected {
		t.Fatalf("self-target twin trace = %+v, want rejected promotion", tr2)
	}

	plain := NewDetector(c)
	plain.configure(AnalyzeOptions{DisableStructural: true})
	want, _ := plain.checkDeduped(p2, c.Code(p2))
	if !reflect.DeepEqual(rep2, want) {
		t.Fatalf("self-target twin diverges from uncached analysis:\n got %+v\nwant %+v", rep2, want)
	}
}

// TestStructuralIndexEviction: a bounded index forgets least-recently-used
// families; a re-encountered fingerprint becomes a fresh leader and is
// emulated again — promotion can only skip work for remembered families.
func TestStructuralIndexEviction(t *testing.T) {
	s := newStructuralIndex()
	s.SetCapacity(2)
	fps := []etypes.Hash{
		etypes.Keccak([]byte("f1")), etypes.Keccak([]byte("f2")), etypes.Keccak([]byte("f3")),
	}
	for _, fp := range fps {
		cls, leader := s.class(fp)
		if !leader {
			t.Fatalf("fingerprint %s: want fresh leadership", fp)
		}
		cls.registered = true
		close(cls.done)
	}
	if s.Len() != 2 {
		t.Fatalf("index len = %d, want 2 after eviction", s.Len())
	}
	// f1 was evicted: its next arrival leads again.
	if _, leader := s.class(fps[0]); !leader {
		t.Fatal("evicted family must restart with a fresh leader")
	}
	// f3 is still resident.
	if cls, leader := s.class(fps[2]); leader || !cls.registered {
		t.Fatal("resident family lost its registration")
	}
}
