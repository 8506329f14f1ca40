package proxion

import (
	"encoding/hex"
	"sync"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/static"
)

// The landscape's extreme bytecode duplication (98.7% of contracts are
// byte-identical copies, Figure 5) means almost every emulation probe
// re-derives a verdict the detector has already computed for the same
// code. The verdict cache memoizes the *emulation verdict* per unique
// runtime bytecode — is the fallback a forwarding fallback, and where does
// it find its delegate target — and re-anchors it per address:
//
//   - Hard-coded targets (EIP-1167 clones) are embedded in the bytecode, so
//     identical code implies an identical logic address and the cached
//     address is reused directly.
//   - Storage targets are re-read from the duplicate's own implementation
//     slot, so byte-identical upgradeable proxies pointing at different
//     logic contracts still resolve their own logic.
//
// A verdict transfers to another address only when that address's values
// for every *other* storage slot the fallback read before forwarding (the
// "guard slots": pause flags, initializer bits, owner checks) match the
// values the verdict was recorded under — duplicates in a different guard
// state are re-emulated and cached under their own fingerprint.
//
// The verdict lives on the bytecode's artifact (artifact.go), in the one
// LRU that bounds both (AnalyzeOptions.CacheCapacity; 0, the default, is
// unbounded — right for batch scans, where uniques number in the
// thousands). Eviction trades determinism for the bound: a re-encountered
// evicted bytecode is re-emulated (a miss the unbounded cache would have
// served), so hit counts under eviction depend on scheduling.

// CacheEvictions returns how many per-bytecode records (verdict and facets
// together) a bounded run has evicted so far. Always zero in unbounded
// mode. Deliberately surfaced outside the pipeline counter set: eviction
// totals depend on worker scheduling, and the deterministic counters must
// repeat exactly (Snapshot.Counters).
func (d *Detector) CacheEvictions() int64 { return d.artifacts.Evictions() }

// Invalidate drops what a change to addr's state — an upgrade — can have
// made stale among the verdicts cached for addr's current bytecode, and
// returns how many tiers it dropped.
//
// Nothing is stale when every verdict recorded for the bytecode re-anchors
// (probeVerdict.reanchors): a storage-target forwarding verdict whose run
// read nothing outside the contract's own storage before forwarding. An
// exact hit re-reads the implementation slot and re-hashes the guard slots,
// the only state such a verdict depends on, so Invalidate keeps both tiers
// and returns 0: the next analysis is an exact hit anchored to the new slot
// value, or, when the upgrade emptied the slot, a fresh emulation (anchor
// refuses a zero slot).
//
// Otherwise — a hard-coded target (a beacon's logic among them), a negative
// verdict, a poisoned or store-imported record — it drops the exact-hash
// verdict, so the next duplicate of that code re-emulates and records
// fresh, and the structural family of the code's family key, whose
// registered target shape was proven against pre-upgrade state; the next
// code hash carrying the key becomes a fresh leader that reads the live
// chain. The bytecode's facets stay either way: they depend on the
// bytes alone, so the re-analysis does not re-slice.
func (d *Detector) Invalidate(addr etypes.Address) (int, error) {
	n := 0
	re := chain.CaptureReadError(func() {
		art, ok := d.artifacts.Peek(d.chain.CodeHash(addr))
		if ok && art.verdict.Load().reanchors() {
			return
		}
		if ok && art.verdict.Swap(nil) != nil {
			n++
		}
		if code := d.chain.Code(addr); len(code) > 0 && d.structural.Remove(static.FamilyKey(code)) {
			n++
		}
	})
	if re != nil {
		return n, re
	}
	return n, nil
}

// codeVerdict is the memoized detection state of one distinct runtime
// bytecode. The first emulation (under once) records which guard slots the
// fallback reads; afterwards verdicts are stored and looked up by the
// fingerprint of those slots' per-address values. Nearly every bytecode is
// only ever seen in one guard state, so the first verdict is held inline
// and a map is made only when a second guard state appears.
type codeVerdict struct {
	once sync.Once
	// firstAddr is the address the recording run probed; used to refuse
	// transferring a hard-coded verdict whose target is the contract
	// itself (an address-dependent delegate the cache cannot re-anchor).
	firstAddr  etypes.Address
	guardSlots []etypes.Hash

	mu sync.Mutex
	// recorded stays false when the recording run died in a read failure:
	// the entry is poisoned.
	recorded bool
	fp       etypes.Hash
	first    probeVerdict
	more     map[etypes.Hash]probeVerdict
}

// probeVerdict is one cached emulation outcome.
type probeVerdict struct {
	// target/implSlot/logic describe where the fallback finds its delegate;
	// logic is the recording run's observed target, authoritative only for
	// hard-coded proxies.
	implSlot  etypes.Hash
	logic     etypes.Address
	forwarded bool
	// ownStateOnly says the recording run read nothing outside the
	// contract's own storage before forwarding (emulationTracer). False, the
	// zero value, is the safe answer, which records rebuilt by
	// ImportVerdicts carry. It sits beside forwarded, in padding: a field
	// after target would grow every record by a word.
	ownStateOnly bool
	target       TargetSource
	// emulationErr/reason reproduce the negative outcomes; both are
	// address-independent by construction. A forwarded verdict keeps no
	// reason: it is forwardedReason of the logic address it is anchored to.
	emulationErr error
	reason       string
}

// record fills a fresh entry with its first verdict, inside its once and
// after every read of the recording run: an entry poisoned by a read
// failure has no guard slots.
func (e *codeVerdict) record(addr etypes.Address, guardSlots []etypes.Hash, fp etypes.Hash, v probeVerdict) {
	e.firstAddr, e.guardSlots = addr, guardSlots
	e.add(fp, v)
}

// add files v under the guard-state fingerprint fp, inline for the first
// one; a verdict already filed under fp wins.
func (e *codeVerdict) add(fp etypes.Hash, v probeVerdict) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, raced := e.more[fp]; !e.recorded {
		e.recorded, e.fp, e.first = true, fp, v
	} else if !raced && e.fp != fp {
		if e.more == nil {
			e.more = make(map[etypes.Hash]probeVerdict, 1)
		}
		e.more[fp] = v
	}
}

// reanchors reports whether every verdict e holds is re-derived from live
// state on each hit (probeVerdict.reanchors); false for a nil, poisoned or
// still recording entry.
func (e *codeVerdict) reanchors() bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.recorded || !e.first.reanchors() {
		return false
	}
	for _, v := range e.more {
		if !v.reanchors() {
			return false
		}
	}
	return true
}

// reanchors reports whether a hit on v reads everything v depends on: a
// storage-target forwarding verdict whose run read only the contract's own
// storage before forwarding, which an exact hit re-reads — the
// implementation slot in anchor, the guard slots in guardFingerprint.
func (v probeVerdict) reanchors() bool {
	return v.target == TargetStorage && v.ownStateOnly
}

// lookup returns the verdict filed under fp, or poisoned for an entry whose
// recording run died.
func (e *codeVerdict) lookup(fp etypes.Hash) (v probeVerdict, ok, poisoned bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recorded && e.fp == fp {
		return e.first, true, false
	}
	v, ok = e.more[fp]
	return v, ok, !e.recorded
}

// checkRecord runs the detection step for a contract that already passed
// the disassembly filter, serving the verdict from the two-level dedup
// cache when possible: level one is the exact bytecode hash, whose record
// art is, level two the structural family key (see structural.go). It
// returns the report (without Standard, which the classification stage
// adds) and the trace saying how the verdict was obtained.
func (d *Detector) checkRecord(art *artifact, addr etypes.Address, code []byte, codeHash etypes.Hash) (rep Report, tr probeTrace) {
	entry := art.verdicts()
	fresh := false
	entry.once.Do(func() {
		fresh = true
		rep, tr = d.recordFirst(art, entry, addr, code, codeHash)
	})
	if fresh {
		return rep, tr
	}

	// A recording run that panicked with a read failure consumes the Once
	// but leaves the entry empty. Its guard slots are unknown (nil), so
	// verdicts for this bytecode can never transfer safely: probe every
	// duplicate fresh and cache nothing.
	fp := d.guardFingerprint(addr, entry.guardSlots)
	v, ok, poisoned := entry.lookup(fp)
	if poisoned {
		return d.emulateProbe(addr, code, art.probeCallData(addr, code)).rep, probeTrace{}
	}
	if ok {
		if rep, transferable := d.anchor(addr, entry.firstAddr, v); transferable {
			return rep, probeTrace{source: sourceExactHit}
		}
	}

	out := d.emulateProbe(addr, code, art.probeCallData(addr, code))
	if !ok {
		entry.add(fp, out.verdict())
	}
	return out.rep, probeTrace{}
}

// verdictOf compresses a probe report into its cacheable core.
func verdictOf(rep Report) probeVerdict {
	v := probeVerdict{
		forwarded:    rep.IsProxy,
		target:       rep.Target,
		implSlot:     rep.ImplSlot,
		logic:        rep.Logic,
		emulationErr: rep.EmulationErr,
	}
	if !rep.IsProxy {
		v.reason = rep.Reason
	}
	return v
}

// forwardedReason is the Reason of every forwarding verdict, built in one
// allocation: every exact hit and every export of one builds it.
func forwardedReason(logic etypes.Address) string {
	const prefix = "fallback forwarded the probe call data via DELEGATECALL to 0x"
	var b [len(prefix) + 2*len(logic)]byte
	copy(b[:], prefix)
	hex.Encode(b[len(prefix):], logic[:])
	return string(b[:])
}

// anchor rebuilds a per-address report from a cached verdict, re-resolving
// the logic address from the duplicate's own storage for storage-based
// proxies. It refuses (ok false) the shapes the cache cannot re-anchor
// exactly: a hard-coded delegate equal to the recording address itself
// (which would be a different address for every duplicate), and a storage
// target whose slot value at this address is not a nonzero address
// (holdsAddress) — the uncached path would classify a packed slot as
// hard-coded, and a fallback may refuse to forward on an empty one, so such
// duplicates are re-emulated instead of transferred.
func (d *Detector) anchor(addr, firstAddr etypes.Address, v probeVerdict) (rep Report, ok bool) {
	rep = Report{Address: addr, HasDelegateCall: true}
	if !v.forwarded {
		rep.EmulationErr = v.emulationErr
		rep.Reason = v.reason
		return rep, true
	}
	rep.IsProxy = true
	rep.Target = v.target
	if v.target == TargetStorage {
		slotVal := d.chain.GetState(addr, v.implSlot)
		if !holdsAddress(slotVal) {
			return Report{}, false
		}
		rep.ImplSlot = v.implSlot
		rep.Logic = etypes.BytesToAddress(slotVal[:])
	} else {
		if v.target == TargetHardcoded && v.logic == firstAddr && addr != firstAddr {
			return Report{}, false
		}
		rep.Logic = v.logic
	}
	rep.Reason = forwardedReason(rep.Logic)
	return rep, true
}

// holdsAddress reports whether a slot value is a nonzero address with zero
// upper bytes, the only storage target the caches re-anchor. A zero slot is
// refused because a fallback may branch on it before forwarding, as
// require(impl != 0) does, and the implementation slot is not among the
// guard slots whose values a verdict is filed under.
func holdsAddress(slotVal etypes.Hash) bool {
	return [12]byte(slotVal[:12]) == [12]byte{} && slotVal != etypes.Hash{}
}

// guardFingerprint hashes the address's current values of the given guard
// slots. Two addresses with the same fingerprint present identical storage
// to the fallback's pre-forwarding reads, so a verdict recorded under one
// applies to the other.
func (d *Detector) guardFingerprint(addr etypes.Address, slots []etypes.Hash) etypes.Hash {
	if len(slots) == 0 {
		return etypes.Hash{}
	}
	var h keccak.Hasher
	for _, s := range slots {
		v := d.chain.GetState(addr, s)
		h.Write(s[:])
		h.Write(v[:])
	}
	return h.Sum256()
}
