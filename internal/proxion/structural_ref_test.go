package proxion

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/static"
	"repro/internal/u256"
)

// refPromote is the summary-based promotion the family template replaced,
// kept as its reference: it re-anchors a registered family's verdict to a
// follower from the follower's own static summary — the embedded address
// for hard-coded families, the follower's own slot value for storage
// families — with the same uniformity checks as registration and the same
// refusals as the exact cache's anchor (self-targeting delegates, packed
// or empty storage slots).
func refPromote(r chain.Reader, addr etypes.Address, sum *static.Summary, target TargetSource) (Report, bool) {
	if sum.Truncated || sum.MaskedImmFlow || len(sum.Delegates) == 0 {
		return Report{}, false
	}
	lead := sum.Delegates[0]
	for _, del := range sum.Delegates {
		if !del.ForwardsCalldata || del.TargetTainted {
			return Report{}, false
		}
		if del.Provenance != lead.Provenance || del.Target != lead.Target || del.Slot != lead.Slot {
			return Report{}, false
		}
	}

	rep := Report{Address: addr, HasDelegateCall: true, IsProxy: true, Target: target}
	switch target {
	case TargetHardcoded:
		if lead.Provenance != static.ProvHardcoded || lead.Target == addr {
			return Report{}, false
		}
		rep.Logic = lead.Target
	case TargetStorage:
		if lead.Provenance != static.ProvSlotConst {
			return Report{}, false
		}
		slotVal := r.GetState(addr, lead.Slot)
		if !holdsAddress(slotVal) {
			return Report{}, false
		}
		rep.ImplSlot = lead.Slot
		rep.Logic = etypes.BytesToAddress(slotVal[:])
	default:
		return Report{}, false
	}
	rep.Reason = forwardedReason(rep.Logic)
	return rep, true
}

// familyTemplate runs leader through a fresh detector as the first member
// of its family, then runs the deferred cross-check a first follower would:
// the family's exemplar (nil when the leader does not register) and its
// template (nil when the check refuses the family).
func familyTemplate(r chain.Reader, leader etypes.Address) (*exemplar, *template) {
	d := NewDetector(r)
	code := r.Code(leader)
	d.checkDeduped(leader, code)
	cls, _ := d.structural.class(static.FamilyKey(code))
	if cls.lead == nil {
		return nil, nil
	}
	var tr probeTrace
	return cls.lead, d.checkExemplar(cls.lead, &tr)
}

// templateMatchesReference checks one follower: the template's answer and
// the reference's (the follower's own static.Analyze, promoted by
// refPromote). exact demands the two agree on refusals too; otherwise only
// a template promotion is checked, which the reference must give as well,
// with the identical report.
func templateMatchesReference(t *testing.T, r chain.Reader, lead *exemplar, tmpl *template, addr etypes.Address, exact bool) (promoted bool) {
	t.Helper()
	code := r.Code(addr)
	got, ok := tmpl.promote(r, addr, code)
	want, wantOK := refPromote(r, addr, static.Analyze(code), lead.target)
	switch {
	case ok && !wantOK:
		t.Fatalf("%s: the template promotes to %+v, the reference refuses\ncode %x", addr, got, code)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: the template promotes to\n %+v\nthe reference to\n %+v", addr, got, want)
	case exact && !ok && wantOK:
		t.Fatalf("%s: the template refuses, the reference promotes to %+v\ncode %x", addr, want, code)
	}
	return ok
}

// forwarderPrefix copies the call data to memory and pushes the
// DELEGATECALL's retLength, retOffset, argsLength and argsOffset, leaving
// the target and the gas to the shape that follows.
func forwarderPrefix() *asm.Program {
	return (&asm.Program{}).
		Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0)
}

// maskedSlotForwarder forwards to the address in slot, cut out by an
// AND with mask, a PUSH20: the canonical 2^160-1 makes a clean storage
// proxy, and the mask test inspects the immediate.
func maskedSlotForwarder(slot etypes.Hash, mask [20]byte) []byte {
	return forwarderPrefix().
		PushBytes(slot[:]).Op(evm.SLOAD).PushBytes(mask[:]).Op(evm.AND).
		Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble()
}

// twoSiteForwarder forwards to x at one of two DELEGATECALL sites, chosen
// by whether there is call data: two opaque immediates, each a window, and
// the two sites must keep agreeing.
func twoSiteForwarder(x, y etypes.Address) []byte {
	return forwarderPrefix().
		Op(evm.CALLDATASIZE).JumpI("other").
		PushBytes(x[:]).Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).
		Label("other").
		PushBytes(y[:]).Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).
		MustAssemble()
}

// joinedTargetForwarder pushes x or y on two paths that join before one
// DELEGATECALL: the join compares the two immediates, which inspects both.
func joinedTargetForwarder(x, y etypes.Address) []byte {
	return forwarderPrefix().
		Op(evm.CALLDATASIZE).JumpI("other").
		PushBytes(x[:]).Jump("call").
		Label("other").PushBytes(y[:]).
		Label("call").Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).
		MustAssemble()
}

// offsetSlotForwarder forwards to the address in slot s+1, computed as
// PUSH32 s; PUSH1 1; ADD: the addition inspects the immediate.
func offsetSlotForwarder(s etypes.Hash) []byte {
	return forwarderPrefix().
		PushBytes(s[:]).PushUint(1).Op(evm.ADD).Op(evm.SLOAD).
		PushBytes(addressMask20[:]).Op(evm.AND).
		Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP).MustAssemble()
}

var addressMask20 = [20]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// plusOne is the slot offsetSlotForwarder(s) reads.
func plusOne(s etypes.Hash) etypes.Hash { return etypes.HashFromWord(s.Word().Add(u256.One())) }

// hostileFamily is a hand-made leader and a follower of its fingerprint
// that the template must refuse: the follower differs from the leader in
// an immediate the leader's analysis inspected, or in one of two windows
// that must agree.
type hostileFamily struct {
	name             string
	leader, follower []byte
	// slot is the storage slot the leader reads its target from, and the
	// one the follower is given an address in; zero for hard-coded shapes.
	slot, followerSlot etypes.Hash
}

func hostileFamilies() []hostileFamily {
	x, y := structAddr(0x0a), structAddr(0x0b)
	s, s2 := etypes.Keccak([]byte("hostile.slot")), etypes.Keccak([]byte("hostile.slot.2"))
	mask := addressMask20
	mask[0] = 0x7f
	return []hostileFamily{
		{name: "address mask differs", slot: s, followerSlot: s,
			leader: maskedSlotForwarder(s, addressMask20), follower: maskedSlotForwarder(s, mask)},
		{name: "two equal sites, one differs",
			leader: twoSiteForwarder(x, x), follower: twoSiteForwarder(x, y)},
		{name: "two equal joined immediates, both differ",
			leader: joinedTargetForwarder(x, x), follower: joinedTargetForwarder(y, y)},
		{name: "two equal joined immediates, one differs",
			leader: joinedTargetForwarder(x, x), follower: joinedTargetForwarder(x, y)},
		{name: "computed slot", slot: plusOne(s), followerSlot: plusOne(s2),
			leader: offsetSlotForwarder(s), follower: offsetSlotForwarder(s2)},
	}
}

// install puts a hostile family's leader and follower on a fresh chain,
// each storage shape with a logic address in the slot it reads.
func (h hostileFamily) install() (c *chain.Chain, leader, follower etypes.Address) {
	c = chain.New()
	leader, follower = structAddr(0xa1), structAddr(0xa2)
	c.InstallContract(leader, h.leader)
	c.InstallContract(follower, h.follower)
	if h.slot != (etypes.Hash{}) {
		c.SetStorageDirect(leader, h.slot, etypes.HashFromWord(structAddr(0x01).Word()))
		c.SetStorageDirect(follower, h.followerSlot, etypes.HashFromWord(structAddr(0x02).Word()))
	}
	return c, leader, follower
}

// TestTemplatePromotionCorpus holds the template to the reference over
// every fingerprint family with two or more members in the gen corpora
// (seeds 1–40 × 64 units) and the dataset landscapes (seeds 1–3): for
// every member but the family's leader, the template promotes exactly when
// the member's own summary does, to the identical report. Each hand-made
// hostile family must be registered and consistent, and its follower
// refused.
func TestTemplatePromotionCorpus(t *testing.T) {
	var chains []*chain.Chain
	for seed := int64(1); seed <= 40; seed++ {
		chains = append(chains, gen.Generate(gen.Config{Seed: seed, Contracts: 64}).Chain)
	}
	for seed := int64(1); seed <= 3; seed++ {
		chains = append(chains, dataset.Generate(dataset.Config{Seed: seed}).Chain)
	}
	families, members, promoted := 0, 0, 0
	for _, c := range chains {
		byFP := make(map[etypes.Hash][]etypes.Address)
		var order []etypes.Hash
		for _, a := range c.Contracts() {
			code := c.Code(a)
			if len(code) == 0 {
				continue
			}
			fp := static.Fingerprint(code)
			if byFP[fp] == nil {
				order = append(order, fp)
			}
			byFP[fp] = append(byFP[fp], a)
		}
		for _, fp := range order {
			fam := byFP[fp]
			if len(fam) < 2 {
				continue
			}
			lead, tmpl := familyTemplate(c, fam[0])
			if tmpl == nil {
				continue // no template: every follower is emulated, both ways
			}
			families++
			for _, m := range fam[1:] {
				members++
				if templateMatchesReference(t, c, lead, tmpl, m, true) {
					promoted++
				}
			}
		}
	}
	if families < 20 || promoted < 1000 {
		t.Fatalf("corpus too thin: %d families with a template, %d of %d followers promoted", families, promoted, members)
	}
	t.Logf("%d families with a template, %d of %d followers promoted", families, promoted, members)

	for _, h := range hostileFamilies() {
		c, leader, follower := h.install()
		lead, tmpl := familyTemplate(c, leader)
		if tmpl == nil {
			t.Fatalf("%s: the leader's family has no template (exemplar %+v)", h.name, lead)
		}
		if templateMatchesReference(t, c, lead, tmpl, follower, false) {
			t.Errorf("%s: the template promotes the follower", h.name)
		}
	}
}

// FuzzTemplatePromotion rewrites a follower of a hand-made leader — its
// windows, and one byte anywhere — and holds every template promotion to
// the reference: the follower's own summary must promote to the identical
// report.
func FuzzTemplatePromotion(f *testing.F) {
	leaders := append([]hostileFamily{{name: "stamp", leader: disasm.MinimalProxyRuntime(structAddr(0x0a))}}, hostileFamilies()...)
	for i, h := range leaders {
		f.Add(uint8(i), []byte{}, uint16(0), byte(0), []byte{})
		f.Add(uint8(i), []byte{0x0b}, uint16(0), byte(0), []byte{0x02})
		f.Add(uint8(i), []byte{0x7a, 0xa2}, uint16(40), byte(0x01), []byte{0x01, 0x02})
		// A hostile follower's differences from its leader, a byte at a time.
		if len(h.follower) == len(h.leader) {
			for pc := range h.leader {
				if d := h.leader[pc] ^ h.follower[pc]; d != 0 {
					f.Add(uint8(i), []byte{}, uint16(pc), d, []byte{0x02})
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, imm []byte, pos uint16, flip byte, slotVal []byte) {
		h := leaders[int(which)%len(leaders)]
		c := chain.New()
		leader, follower := structAddr(0xa1), structAddr(0xa2)
		c.InstallContract(leader, h.leader)
		if h.slot != (etypes.Hash{}) {
			c.SetStorageDirect(leader, h.slot, etypes.HashFromWord(structAddr(0x01).Word()))
		}
		lead, tmpl := familyTemplate(c, leader)
		if tmpl == nil {
			t.Fatalf("%s: the leader's family has no template", h.name)
		}

		code := append([]byte(nil), h.leader...)
		if len(imm) > 0 {
			k := 0
			for _, w := range tmpl.windows {
				for b := int(w.PC) + 1; b < min(int(w.PC)+1+w.Op.PushSize(), len(code)); b++ {
					code[b] = imm[k%len(imm)]
					k++
				}
			}
		}
		if p := int(pos); p < len(code) {
			code[p] ^= flip
		}
		c.InstallContract(follower, code)
		// An address, or a packed word, in every slot the follower may read.
		val := etypes.HashFromWord(u256.FromBytes(slotVal[:min(len(slotVal), 32)]))
		slots := []etypes.Hash{h.slot}
		for _, w := range tmpl.windows {
			slots = append(slots, etypes.HashFromWord(w.Value(code)))
		}
		for _, sl := range slots {
			c.SetStorageDirect(follower, sl, val)
		}
		templateMatchesReference(t, c, lead, tmpl, follower, false)
	})
}
