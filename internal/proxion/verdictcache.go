package proxion

import (
	"sync"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/lru"
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
// The cache runs in one of two modes. Unbounded (capacity 0, the default)
// remembers every distinct bytecode for the whole run — right for batch
// scans, where uniques number in the thousands. Bounded (capacity > 0)
// keeps at most capacity entries, evicting the least recently used; a
// streaming landscape run uses it so the cache's footprint, like every
// other layer, is a configured constant rather than a function of corpus
// size. Eviction trades determinism for the bound: a re-encountered
// evicted bytecode is re-emulated (a miss the unbounded cache would have
// served), so hit counts under eviction depend on scheduling.
type verdictCache struct {
	*lru.Cache[etypes.Hash, *codeVerdict]
}

func newVerdictCache() *verdictCache {
	return &verdictCache{lru.New[etypes.Hash, *codeVerdict](0)}
}

// entry returns the (possibly fresh) record for one bytecode hash,
// marking it most recently used. A goroutine mid-recording on an evicted
// entry still holds its *codeVerdict and finishes harmlessly into the
// orphan; the next duplicate simply re-emulates under a fresh entry.
func (c *verdictCache) entry(codeHash etypes.Hash) *codeVerdict {
	e, _ := c.GetOrAdd(codeHash, func() *codeVerdict { return new(codeVerdict) })
	return e
}

// CacheEvictions returns how many verdict-cache entries a bounded run has
// evicted so far. Always zero in unbounded mode. Deliberately surfaced
// outside the pipeline counter set: eviction totals depend on worker
// scheduling, and the deterministic counters are compared byte-for-byte
// by the bench regression gate.
func (d *Detector) CacheEvictions() int64 { return d.verdicts.Evictions() }

// Invalidate drops every verdict cached for addr's current bytecode and
// returns how many tiers held one: the exact-hash entry, so the next
// duplicate of that code re-emulates and records fresh — the remedy for a
// verdict known to be stale, as after an upgrade — and the structural
// family of the code's fingerprint, whose registered target shape was proven
// against pre-upgrade state; the next code hash carrying the fingerprint
// becomes a fresh leader that reads the live chain.
func (d *Detector) Invalidate(addr etypes.Address) (int, error) {
	n := 0
	re := chain.CaptureReadError(func() {
		if d.verdicts.Remove(d.chain.CodeHash(addr)) {
			n++
		}
		if code := d.chain.Code(addr); len(code) > 0 && d.structural.Remove(static.Fingerprint(code)) {
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
// fingerprint of those slots' per-address values.
type codeVerdict struct {
	once sync.Once
	// firstAddr is the address the recording run probed; used to refuse
	// transferring a hard-coded verdict whose target is the contract
	// itself (an address-dependent delegate the cache cannot re-anchor).
	firstAddr  etypes.Address
	guardSlots []etypes.Hash

	mu   sync.Mutex
	byFP map[etypes.Hash]*probeVerdict
}

// probeVerdict is one cached emulation outcome.
type probeVerdict struct {
	forwarded bool
	// target/implSlot/logic describe where the fallback finds its delegate;
	// logic is the recording run's observed target, authoritative only for
	// hard-coded proxies.
	target   TargetSource
	implSlot etypes.Hash
	logic    etypes.Address
	// emulationErr/reason reproduce the negative outcomes; both are
	// address-independent by construction.
	emulationErr error
	reason       string
}

// checkDeduped runs the detection step for a contract that already passed
// the disassembly filter, serving the verdict from the two-level dedup
// cache when possible: level one is the exact bytecode hash, level two the
// structural fingerprint (see structural.go). It returns the report
// (without Standard, which the classification stage adds) and the trace
// saying how the verdict was obtained.
func (d *Detector) checkDeduped(addr etypes.Address, code []byte) (Report, probeTrace) {
	codeHash := d.chain.CodeHash(addr)
	entry := d.verdicts.entry(codeHash)

	var recorded Report
	var recordedTrace probeTrace
	fresh := false
	entry.once.Do(func() {
		fresh = true
		recorded, recordedTrace = d.recordFirst(entry, addr, code, codeHash)
	})
	if fresh {
		return recorded, recordedTrace
	}

	// A recording run that panicked with a read failure consumes the Once
	// but leaves the entry empty. Its guard slots are unknown, so verdicts
	// for this bytecode can never transfer safely: probe every duplicate
	// fresh and cache nothing.
	entry.mu.Lock()
	poisoned := entry.byFP == nil
	entry.mu.Unlock()
	if poisoned {
		return d.emulateProbe(addr, code, d.artifacts.of(codeHash).probeCallData(addr, code)).rep, probeTrace{}
	}

	fp := d.guardFingerprint(addr, entry.guardSlots)
	entry.mu.Lock()
	v, ok := entry.byFP[fp]
	entry.mu.Unlock()
	if ok && d.transferable(v, addr, entry.firstAddr) {
		return d.anchorVerdict(addr, v), probeTrace{source: sourceExactHit}
	}

	out := d.emulateProbe(addr, code, d.artifacts.of(codeHash).probeCallData(addr, code))
	if !ok {
		nv := verdictOf(out.rep)
		entry.mu.Lock()
		if _, raced := entry.byFP[fp]; !raced {
			entry.byFP[fp] = nv
		}
		entry.mu.Unlock()
	}
	return out.rep, probeTrace{}
}

// verdictOf compresses a probe report into its cacheable core.
func verdictOf(rep Report) *probeVerdict {
	return &probeVerdict{
		forwarded:    rep.IsProxy,
		target:       rep.Target,
		implSlot:     rep.ImplSlot,
		logic:        rep.Logic,
		emulationErr: rep.EmulationErr,
		reason:       rep.Reason,
	}
}

// transferable rejects the shapes the cache cannot re-anchor exactly: a
// hard-coded delegate equal to the recording address itself (which would
// be a different address for every duplicate), and a storage target whose
// slot value carries nonzero upper bytes at this address — the uncached
// path would classify a packed slot as hard-coded, so such duplicates are
// re-emulated instead of transferred.
func (d *Detector) transferable(v *probeVerdict, addr, firstAddr etypes.Address) bool {
	if !v.forwarded {
		return true
	}
	if v.target == TargetHardcoded && v.logic == firstAddr && addr != firstAddr {
		return false
	}
	if v.target == TargetStorage {
		slotVal := d.chain.GetState(addr, v.implSlot)
		for _, b := range slotVal[:12] {
			if b != 0 {
				return false
			}
		}
	}
	return true
}

// anchorVerdict rebuilds a per-address report from a cached verdict,
// re-resolving the logic address from the duplicate's own storage for
// storage-based proxies.
func (d *Detector) anchorVerdict(addr etypes.Address, v *probeVerdict) Report {
	rep := Report{Address: addr, HasDelegateCall: true}
	if !v.forwarded {
		rep.EmulationErr = v.emulationErr
		rep.Reason = v.reason
		return rep
	}
	rep.IsProxy = true
	rep.Target = v.target
	if v.target == TargetStorage {
		rep.ImplSlot = v.implSlot
		slotVal := d.chain.GetState(addr, v.implSlot)
		rep.Logic = etypes.BytesToAddress(slotVal[:])
	} else {
		rep.Logic = v.logic
	}
	rep.Reason = "fallback forwarded the probe call data via DELEGATECALL to " + rep.Logic.Hex()
	return rep
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
