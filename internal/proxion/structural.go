package proxion

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/lru"
	"repro/internal/static"
	"repro/internal/u256"
)

// The verdict cache's first-level key is the exact bytecode hash, which
// already collapses the landscape's 98.7% byte-identical duplication. What
// it cannot collapse are near-clones: EIP-1167 stamps differing only in the
// embedded implementation address, or compiler twins differing only in a
// 32-byte slot constant. Each such variant is a distinct code hash and costs
// a full emulation under the exact cache.
//
// The structural index is the second-level key. It groups bytecodes by
// their family key, a seeded 64-bit hash of the code with its wide PUSH
// immediates masked (static.FamilyKey; the stream static.Fingerprint
// hashes), and runs a leader/follower protocol per family:
//
//   - The first code hash of a family is the leader. It is emulated
//     normally; if the dynamic verdict is a cleanly forwarding proxy with
//     no guard slots that read nothing outside its own storage before
//     forwarding, the family becomes provisional: the leader pins its
//     address, code hash and target (an exemplar) and nothing more. Most
//     families never see a follower, so the leader runs no static analysis.
//   - Every later first-visit code hash with the same key is a
//     follower. The first follower of a provisional family runs the
//     leader's deferred cross-check, once for the family: the leader's code
//     is re-read, must still hash to the pinned code hash, and its static
//     summary must agree with the pinned verdict (exemplarConsistent). The
//     check leaves the family's template: the leader's code; the windows
//     (offset and width) of its opaque immediates, the bytes a follower may
//     differ in; the anchors, the windows its delegates read their target
//     or slot from; and the target kind.
//   - A follower promotes from the template alone (template.promote): its
//     code must equal the leader's byte for byte outside the windows, its
//     anchors must agree on one value wherever the leader's delegates
//     agreed, and the refusals the exact cache applies still hold — no
//     self-targeting stamp, and a storage twin's own slot must hold an
//     address. The verdict is re-anchored to the follower's own immediate
//     or its own slot's value, with no emulation and no static analysis: a
//     memcmp, an immediate read and, for a slot twin, one GetState. A
//     follower of a refused family, or one that does not fit the template,
//     is emulated normally, so promotion can only skip work, never change a
//     verdict that disagrees with emulation.
//
// The key only groups codes; the template's byte comparison decides. Two
// codes whose masked streams differ share a key with probability about
// 2^-64, and the seed is made per process, so no code can be built ahead
// of time to join a family it does not belong to. Should it happen, the
// code meets a template it does not fit, which refuses it, and it is
// emulated; a code that leads a family it collided into makes that
// family's other codes the misfits, and they are emulated, as with the
// tier off.
//
// Why a template answers what the follower's own summary would: a window
// is an immediate the leader's analysis left opaque (static.Immediate) —
// it only moved it, or used it as a DELEGATECALL target or an SLOAD/SSTORE
// slot, and never read its value. A follower equal to the leader outside
// the windows is the leader with those immediates substituted, and the
// analysis of such a code takes the same steps with the substituted values
// in place: its summary is the leader's with the anchors' values as the
// delegates' Targets and Slots, every field promotion reads otherwise
// equal. The summary-based promotion (kept as the reference in the tests)
// then passes or refuses exactly as the template does, with the same
// report.
//
// Registration is deliberately conservative: negative verdicts never
// register (their EmulationErr/Reason can differ per twin), truncated or
// masked-immediate-control-flow summaries never register,
// guard-slot-reading fallbacks never register (a twin's guard state is not
// comparable across different code hashes), and neither does a leader whose
// probe read anything outside its own storage before forwarding
// (probeOutcome.ownStateOnly): a template re-reads a follower's slot, not
// the code size or balance a fallback may have gated on, nor what a nested
// call answered.
type structuralIndex struct {
	*lru.Cache[uint64, *fpClass]
}

// fpClass is the state of one structural clone family. lead is written by
// the leader before close(done) and read by followers only after <-done,
// which is what makes it safe without a lock of its own.
type fpClass struct {
	done chan struct{}
	// lead is the leader's clean forwarding verdict; nil when the leader
	// did not forward cleanly and the family never promotes.
	lead *exemplar
}

// exemplar is a provisional family's leader: what the deferred cross-check
// reads, and its outcome. tmpl is written inside check.Do and read after it
// returns.
type exemplar struct {
	target   TargetSource
	addr     etypes.Address
	codeHash etypes.Hash
	logic    etypes.Address
	implSlot etypes.Hash

	check sync.Once
	// tmpl is the family's template; nil when the cross-check refused it.
	tmpl *template
}

// template is a consistent family's promotion rule (see the header).
type template struct {
	// code is the leader's code, which every follower must equal outside
	// the windows.
	code []byte
	// windows are the PUSHes of the leader's opaque immediates, ascending
	// by offset: the bytes a follower may differ in.
	windows []disasm.Instruction
	// anchors are the windows the leader's delegates read their target or
	// slot from, which a follower's verdict is re-anchored to.
	anchors []disasm.Instruction
	target  TargetSource
	// fixed is the value a delegate that reads no window pins: the
	// leader's target (its low 160 bits) or slot, as a word. A family with
	// such a delegate promotes only followers whose windows hold it too.
	fixed    u256.Int
	hasFixed bool
}

// newStructuralIndex returns an unbounded index; SetCapacity bounds it like
// the verdict cache. An evicted or invalidated family's in-flight leader
// finishes harmlessly into the orphan, and the next arrival of that
// family key becomes a fresh leader that re-reads live chain state.
func newStructuralIndex() *structuralIndex {
	return &structuralIndex{lru.New[uint64, *fpClass](0)}
}

// class returns the family filed under key and whether the caller claimed
// leadership of a brand-new family. A leader MUST close(cls.done) on every
// exit path, or followers block forever.
func (s *structuralIndex) class(key uint64) (cls *fpClass, leader bool) {
	return s.GetOrAdd(key, func() *fpClass { return &fpClass{done: make(chan struct{})} })
}

// probeSource says how a deduped check obtained its verdict.
type probeSource uint8

const (
	// sourceEmulated means the verdict came from a fresh emulation probe.
	sourceEmulated probeSource = iota
	// sourceExactHit means the exact-bytecode verdict cache served it.
	sourceExactHit
	// sourceStructuralHit means a structural near-clone promotion served
	// it without emulating.
	sourceStructuralHit
)

// probeTrace is the accounting record of one checkRecord call, added to
// the run's counters by analysis.probe.
type probeTrace struct {
	source probeSource
	// summaries counts the static summaries computed for this contract:
	// its leader's deferred cross-check, run by a family's first follower.
	summaries int
	// rejected reports that the structural layer refused this contract:
	// the first follower of a family whose exemplar failed its cross-check,
	// or a follower that does not fit its family's template.
	rejected bool
}

// recordFirst handles the once-protected first visit of a distinct code
// hash: it decides between plain emulation, a provisional family (leader)
// and near-clone promotion (follower), and records the verdict in entry,
// art's, either way so exact duplicates of this hash hit level one.
// codeHash is art's key, which the caller got from the chain's per-account
// cache; a leader pins it for its family's cross-check.
func (d *Detector) recordFirst(art *artifact, entry *codeVerdict, addr etypes.Address, code []byte, codeHash etypes.Hash) (Report, probeTrace) {
	if s := d.applied.Load(); s != nil && s.structuralOff {
		rep, _ := d.emulateRecord(art, entry, addr, code)
		return rep, probeTrace{}
	}
	return d.recordInFamily(art, entry, addr, code, codeHash, static.FamilyKey(code))
}

// emulateRecord emulates a first-visit code and records its verdict in
// entry. It also returns whether the probe read only the contract's own
// storage before forwarding, which a family's leader needs to register.
func (d *Detector) emulateRecord(art *artifact, entry *codeVerdict, addr etypes.Address, code []byte) (rep Report, ownStateOnly bool) {
	out := d.emulateProbe(addr, code, art.probeCallData(addr, code))
	entry.record(addr, out.guardSlots, d.guardFingerprint(addr, out.guardSlots), out.verdict())
	return out.rep, out.ownStateOnly
}

// recordInFamily is recordFirst for a code filed under the family key
// key, which is static.FamilyKey(code) everywhere but in the tests that
// file two codes under one key to show a collision is refused.
func (d *Detector) recordInFamily(art *artifact, entry *codeVerdict, addr etypes.Address, code []byte, codeHash etypes.Hash, key uint64) (Report, probeTrace) {
	var tr probeTrace
	emulate := func() Report {
		rep, _ := d.emulateRecord(art, entry, addr, code)
		return rep
	}
	cls, leader := d.structural.class(key)
	if leader {
		// Close on every exit path — including a ReadError panic unwinding
		// through here — so followers never block on a dead leader. A
		// panicked leader leaves lead nil and followers emulate.
		defer close(cls.done)
		rep, ownStateOnly := d.emulateRecord(art, entry, addr, code)
		if rep.IsProxy && rep.EmulationErr == nil && len(entry.guardSlots) == 0 && ownStateOnly {
			cls.lead = &exemplar{addr: addr, codeHash: codeHash, target: rep.Target, logic: rep.Logic, implSlot: rep.ImplSlot}
		}
		return rep, tr
	}

	<-cls.done
	lead := cls.lead
	if lead == nil {
		return emulate(), tr
	}
	lead.check.Do(func() { lead.tmpl = d.checkExemplar(lead, &tr) })
	if lead.tmpl == nil {
		return emulate(), tr
	}
	if rep, ok := lead.tmpl.promote(d.chain, addr, code); ok {
		// Promotion only fires for families whose exemplar read no guard
		// slots, so the entry's guard set is empty by construction and exact
		// duplicates of this hash transfer under the zero fingerprint.
		entry.record(addr, nil, etypes.Hash{}, verdictOf(rep))
		tr.source = sourceStructuralHit
		return rep, tr
	}
	tr.rejected = true
	return emulate(), tr
}

// checkExemplar is a provisional family's deferred cross-check, run by its
// first follower: the leader's code is re-read and must still hash to the
// code the leader emulated, and its static summary must agree with the
// pinned verdict. It returns the family's template, or nil: code that is
// gone or changed, or a terminal read failure, refuses the family like any
// disagreement, and the refusal is counted on the follower that asked.
// The summary's fingerprint is the one Keccak fingerprint the tier
// computes, once per family: the family key does not stand in for it.
func (d *Detector) checkExemplar(lead *exemplar, tr *probeTrace) *template {
	var tmpl *template
	chain.CaptureReadError(func() {
		// Code before hash: code replaced between the two reads fails the
		// comparison instead of being summarized under the old verdict.
		code := d.chain.Code(lead.addr)
		if d.chain.CodeHash(lead.addr) != lead.codeHash {
			return
		}
		sum := d.summarize(code, lead.codeHash, static.Fingerprint(code))
		tr.summaries++
		if exemplarConsistent(sum, lead) {
			tmpl = newTemplate(code, sum, lead)
		}
	})
	tr.rejected = tmpl == nil
	return tmpl
}

// exemplarConsistent cross-checks the family exemplar's static summary
// against its dynamic verdict. Registration requires the two analyses to
// tell the same story: every reachable DELEGATECALL forwards the full call
// data from an untainted target whose static provenance pins exactly the
// dynamically observed source (the embedded address for hard-coded
// proxies, the implementation slot for storage proxies). Anything the
// static layer could not stabilize (Truncated), any masked immediate
// influencing control flow, and any self-targeting delegate refuses the
// whole family.
func exemplarConsistent(sum *static.Summary, lead *exemplar) bool {
	if sum.Truncated || sum.MaskedImmFlow || len(sum.Delegates) == 0 {
		return false
	}
	for _, del := range sum.Delegates {
		if !del.ForwardsCalldata || del.TargetTainted {
			return false
		}
		switch lead.target {
		case TargetHardcoded:
			if del.Provenance != static.ProvHardcoded || del.Target != lead.logic || lead.logic == lead.addr {
				return false
			}
		case TargetStorage:
			if del.Provenance != static.ProvSlotConst || del.Slot != lead.implSlot {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// newTemplate builds a consistent family's template from its leader's code
// and summary: every delegate reads the target or slot the exemplar pinned
// (exemplarConsistent), from its window or from the code outside them.
func newTemplate(code []byte, sum *static.Summary, lead *exemplar) *template {
	t := &template{code: code, target: lead.target}
	for _, imm := range sum.Immediates {
		if !imm.Inspected {
			t.windows = append(t.windows, disasm.Instruction{PC: imm.PC, Op: evm.Op(code[imm.PC])})
		}
	}
	for _, del := range sum.Delegates {
		if del.Imm < 0 {
			t.hasFixed = true
			continue
		}
		pc := uint64(del.Imm)
		if !slices.ContainsFunc(t.anchors, func(w disasm.Instruction) bool { return w.PC == pc }) {
			t.anchors = append(t.anchors, disasm.Instruction{PC: pc, Op: evm.Op(code[pc])})
		}
	}
	if lead.target == TargetHardcoded {
		t.fixed = lead.logic.Word()
	} else {
		t.fixed = lead.implSlot.Word()
	}
	return t
}

// promote re-anchors the family's verdict to a follower from its own code:
// the embedded address for hard-coded families, the follower's own slot
// value for storage families. It refuses a follower that differs from the
// leader outside the windows or whose anchors disagree, and applies the
// exact cache's anchor refusals (self-targeting delegates, packed or empty
// storage slots), so a promoted report is byte-for-byte what the follower's own
// static summary would promote to, and what emulation plus anchor produce.
func (t *template) promote(r chain.Reader, addr etypes.Address, code []byte) (Report, bool) {
	if len(code) != len(t.code) {
		return Report{}, false
	}
	from := 0
	for _, w := range t.windows {
		if !bytes.Equal(code[from:w.PC+1], t.code[from:w.PC+1]) {
			return Report{}, false
		}
		from = min(int(w.PC)+1+w.Op.PushSize(), len(code))
	}
	if !bytes.Equal(code[from:], t.code[from:]) {
		return Report{}, false
	}
	val, have := t.fixed, t.hasFixed
	for _, w := range t.anchors {
		v := w.Value(code)
		if t.target == TargetHardcoded {
			v = etypes.AddressFromWord(v).Word() // the delegates compare addresses
		}
		if have && !v.Eq(val) {
			return Report{}, false
		}
		val, have = v, true
	}

	rep := Report{Address: addr, HasDelegateCall: true, IsProxy: true, Target: t.target}
	switch t.target {
	case TargetHardcoded:
		rep.Logic = etypes.AddressFromWord(val)
		if rep.Logic == addr {
			return Report{}, false
		}
	case TargetStorage:
		rep.ImplSlot = etypes.HashFromWord(val)
		slotVal := r.GetState(addr, rep.ImplSlot)
		if !holdsAddress(slotVal) {
			return Report{}, false
		}
		rep.Logic = etypes.BytesToAddress(slotVal[:])
	default:
		return Report{}, false
	}
	rep.Reason = forwardedReason(rep.Logic)
	return rep, true
}

// StructuralFamilies returns how many structural clone families the index
// currently tracks. Like CacheEvictions this is a diagnostic, not a
// deterministic pipeline counter.
func (d *Detector) StructuralFamilies() int { return d.structural.Len() }
