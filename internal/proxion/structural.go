package proxion

import (
	"sync"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/lru"
	"repro/internal/static"
)

// The verdict cache's first-level key is the exact bytecode hash, which
// already collapses the landscape's 98.7% byte-identical duplication. What
// it cannot collapse are near-clones: EIP-1167 stamps differing only in the
// embedded implementation address, or compiler twins differing only in a
// 32-byte slot constant. Each such variant is a distinct code hash and costs
// a full emulation under the exact cache.
//
// The structural index is the second-level key. It groups bytecodes by
// their static fingerprint (wide PUSH immediates masked, see
// static.Fingerprint) and runs a leader/follower protocol per family:
//
//   - The first code hash of a family is the leader. It is emulated
//     normally; if the dynamic verdict is a cleanly forwarding proxy with
//     no guard slots, the family becomes provisional: the leader pins its
//     address, code hash and target (an exemplar) and nothing more. Most
//     families never see a follower, so the leader runs no static analysis.
//   - Every later first-visit code hash with the same fingerprint is a
//     follower. The first follower of a provisional family runs the
//     leader's deferred cross-check, once for the family: the leader's code
//     is re-read, must still hash to the pinned code hash, and its static
//     summary must agree with the pinned verdict (exemplarConsistent).
//     Only then does any follower promote: it runs the static analysis on
//     its *own* bytes and, when the summary has the same uniform shape,
//     re-anchors the verdict to its own embedded address or its own storage
//     slot value (promote) — no emulation. A follower of a refused family,
//     or one whose summary does not fit, is emulated normally, so promotion
//     can only skip work, never change a verdict that disagrees with
//     emulation.
//
// Registration is deliberately conservative: negative verdicts never
// register (their EmulationErr/Reason can differ per twin), truncated or
// masked-immediate-control-flow summaries never register nor promote, and
// guard-slot-reading fallbacks never register (a twin's guard state is not
// comparable across different code hashes).
type structuralIndex struct {
	*lru.Cache[etypes.Hash, *fpClass]
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
// reads, and its outcome. consistent is written inside check.Do and read
// after it returns.
type exemplar struct {
	target   TargetSource
	addr     etypes.Address
	codeHash etypes.Hash
	logic    etypes.Address
	implSlot etypes.Hash

	check      sync.Once
	consistent bool
}

// newStructuralIndex returns an unbounded index; SetCapacity bounds it like
// the verdict cache. An evicted or invalidated family's in-flight leader
// finishes harmlessly into the orphan, and the next arrival of that
// fingerprint becomes a fresh leader that re-reads live chain state.
func newStructuralIndex() *structuralIndex {
	return &structuralIndex{lru.New[etypes.Hash, *fpClass](0)}
}

// class returns the family for fp and whether the caller claimed
// leadership of a brand-new family. A leader MUST close(cls.done) on every
// exit path, or followers block forever.
func (s *structuralIndex) class(fp etypes.Hash) (cls *fpClass, leader bool) {
	return s.GetOrAdd(fp, func() *fpClass { return &fpClass{done: make(chan struct{})} })
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
	// its leader's deferred cross-check, its own promotion attempt, or both.
	summaries int
	// rejected reports that the structural layer refused this contract:
	// the first follower of a family whose exemplar failed its cross-check,
	// or a follower whose own summary did not fit.
	rejected bool
}

// recordFirst handles the once-protected first visit of a distinct code
// hash: it decides between plain emulation, a provisional family (leader)
// and near-clone promotion (follower), and records the verdict in entry,
// art's, either way so exact duplicates of this hash hit level one.
// codeHash is art's key, which the caller got from the chain's per-account
// cache; together with the fingerprint computed here it is handed to the
// static summary, so a follower hashes its bytecode once.
func (d *Detector) recordFirst(art *artifact, entry *codeVerdict, addr etypes.Address, code []byte, codeHash etypes.Hash) (Report, probeTrace) {
	var tr probeTrace
	emulate := func() Report {
		out := d.emulateProbe(addr, code, art.probeCallData(addr, code))
		entry.record(addr, out.guardSlots, d.guardFingerprint(addr, out.guardSlots), verdictOf(out.rep))
		return out.rep
	}
	if s := d.applied.Load(); s != nil && s.structuralOff {
		return emulate(), tr
	}

	fp := static.Fingerprint(code)
	cls, leader := d.structural.class(fp)
	if leader {
		// Close on every exit path — including a ReadError panic unwinding
		// through here — so followers never block on a dead leader. A
		// panicked leader leaves lead nil and followers emulate.
		defer close(cls.done)
		rep := emulate()
		if rep.IsProxy && rep.EmulationErr == nil && len(entry.guardSlots) == 0 {
			cls.lead = &exemplar{addr: addr, codeHash: codeHash, target: rep.Target, logic: rep.Logic, implSlot: rep.ImplSlot}
		}
		return rep, tr
	}

	<-cls.done
	lead := cls.lead
	if lead == nil {
		return emulate(), tr
	}
	lead.check.Do(func() { lead.consistent = d.checkExemplar(lead, fp, &tr) })
	if !lead.consistent {
		return emulate(), tr
	}
	sum := d.summarize(art, code, codeHash, fp)
	tr.summaries++
	if rep, ok := d.promote(addr, sum, lead.target); ok {
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
// pinned verdict. Code that is gone or changed, or a terminal read failure,
// refuses the family like any disagreement; the refusal is counted on the
// follower that asked.
func (d *Detector) checkExemplar(lead *exemplar, fp etypes.Hash, tr *probeTrace) bool {
	ok := false
	chain.CaptureReadError(func() {
		// Code before hash: code replaced between the two reads fails the
		// comparison instead of being summarized under the old verdict.
		code := d.chain.Code(lead.addr)
		if d.chain.CodeHash(lead.addr) != lead.codeHash {
			return
		}
		sum := d.summarize(d.artifacts.of(lead.codeHash), code, lead.codeHash, fp)
		tr.summaries++
		ok = exemplarConsistent(sum, lead)
	})
	tr.rejected = !ok
	return ok
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

// promote re-anchors a registered family's verdict to a follower from the
// follower's own static summary: the embedded address for hard-coded
// families, the follower's own slot value for storage families. It applies
// the same uniformity checks as registration and the same refusals as the
// exact cache's anchor (self-targeting delegates, packed storage slots), so
// a promoted report is byte-for-byte what emulation plus anchor would have
// produced.
func (d *Detector) promote(addr etypes.Address, sum *static.Summary, target TargetSource) (Report, bool) {
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
		slotVal := d.chain.GetState(addr, lead.Slot)
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

// StructuralFamilies returns how many structural clone families the index
// currently tracks. Like CacheEvictions this is a diagnostic, not a
// deterministic pipeline counter.
func (d *Detector) StructuralFamilies() int { return d.structural.Len() }
