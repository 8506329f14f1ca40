package proxion

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/abi"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// StorageCollision is a slot whose byte layout the proxy and logic contract
// interpret differently (Section 2.3). Because delegatecalled logic code
// runs against the proxy's storage, overlapping-but-mismatched fields read
// or corrupt each other.
type StorageCollision struct {
	Slot etypes.Hash
	// ProxyOffset/Size and LogicOffset/Size are one overlapping mismatched
	// field pair (the first found; a slot may have several).
	ProxyOffset, ProxySize int
	LogicOffset, LogicSize int
	// GuardInvolved is set when a colliding field feeds a conditional
	// branch (initializer guards, onlyOwner checks).
	GuardInvolved bool
	// Exploitable is CRUSH's static criterion: a guard or ownership read
	// is overlapped, with mismatched boundaries, by a write whose value an
	// attacker influences (msg.sender or call data).
	Exploitable bool
	// Verified is set when the dynamic replay confirmed the exploit
	// (Section 5.2: test transactions fed to the EVM).
	Verified bool
}

// fieldsOverlap reports whether [ao, ao+as) and [bo, bo+bs) intersect.
func fieldsOverlap(ao, as, bo, bs int) bool {
	return ao < bo+bs && bo < ao+as
}

// sameField reports identical interpretation.
func sameField(ao, as, bo, bs int) bool { return ao == bo && as == bs }

// StorageCollisions compares the storage access profiles of a proxy and a
// logic contract and returns one record per colliding slot, in slot order.
// Both lists are walked side by side, one slot's run at a time: the order
// ExtractStorageAccesses returns. A list in any other order is first
// copied and stably sorted by slot, which keeps each slot's accesses in the
// order given.
func StorageCollisions(proxyAcc, logicAcc []StorageAccess) []StorageCollision {
	proxyAcc, logicAcc = slotSorted(proxyAcc), slotSorted(logicAcc)
	var out []StorageCollision
	for i, j := 0, 0; i < len(proxyAcc) && j < len(logicAcc); {
		slot := proxyAcc[i].Slot
		switch c := bytes.Compare(slot[:], logicAcc[j].Slot[:]); {
		case c < 0:
			i = slotRunEnd(proxyAcc, i)
		case c > 0:
			j = slotRunEnd(logicAcc, j)
		default:
			iEnd, jEnd := slotRunEnd(proxyAcc, i), slotRunEnd(logicAcc, j)
			if col, found := collideSlot(slot, proxyAcc[i:iEnd], logicAcc[j:jEnd]); found {
				out = append(out, col)
			}
			i, j = iEnd, jEnd
		}
	}
	return out
}

func compareSlots(a, b StorageAccess) int { return bytes.Compare(a.Slot[:], b.Slot[:]) }

// slotSorted returns accs ordered by slot: accs itself when it already is.
func slotSorted(accs []StorageAccess) []StorageAccess {
	if slices.IsSortedFunc(accs, compareSlots) {
		return accs
	}
	accs = slices.Clone(accs)
	slices.SortStableFunc(accs, compareSlots)
	return accs
}

// slotRunEnd returns the index just past the run of accs[i]'s slot.
func slotRunEnd(accs []StorageAccess, i int) int {
	end := i + 1
	for end < len(accs) && accs[end].Slot == accs[i].Slot {
		end++
	}
	return end
}

// collideSlot looks for mismatched overlapping fields within one slot and
// derives the guard/exploitability flags. A collision exists when the proxy
// and logic interpret overlapping bytes with different boundaries. Because
// both contracts' code executes against the proxy's storage, exploitability
// is judged over the *union* of their accesses: a guard or ownership read
// anywhere in the pair that an attacker-influenced write overlaps with
// mismatched boundaries — the Audius shape, where the logic's own
// inherited-layout owner write tramples its initializer guard bits.
func collideSlot(slot etypes.Hash, pAccs, lAccs []StorageAccess) (StorageCollision, bool) {
	col := StorageCollision{Slot: slot}
	found := false
	for _, p := range pAccs {
		for _, l := range lAccs {
			if !fieldsOverlap(p.Offset, p.Size, l.Offset, l.Size) {
				continue
			}
			if sameField(p.Offset, p.Size, l.Offset, l.Size) {
				continue
			}
			if !found {
				col.ProxyOffset, col.ProxySize = p.Offset, p.Size
				col.LogicOffset, col.LogicSize = l.Offset, l.Size
				found = true
			}
			if p.Guard || l.Guard {
				col.GuardInvolved = true
			}
		}
	}
	if !found {
		return col, false
	}
	union := [2][]StorageAccess{pAccs, lAccs}
	for _, reads := range union {
		for _, r := range reads {
			if r.Kind != AccessRead || !(r.Guard || r.CallerCheck) {
				continue
			}
			for _, writes := range union {
				for _, w := range writes {
					if w.Kind == AccessWrite && w.Tainted &&
						fieldsOverlap(r.Offset, r.Size, w.Offset, w.Size) &&
						!sameField(r.Offset, r.Size, w.Offset, w.Size) {
						col.Exploitable = true
					}
				}
			}
		}
	}
	return col, true
}

// sstoreTracer records whether a run executed an SSTORE to a collided slot
// in the proxy's storage context.
type sstoreTracer struct {
	proxy    etypes.Address
	collided []etypes.Hash
	wrote    bool
}

var _ evm.Tracer = (*sstoreTracer)(nil)

func (t *sstoreTracer) CaptureStep(f *evm.Frame, _ uint64, op evm.Op) {
	if op == evm.SSTORE && !t.wrote && f.Address() == t.proxy &&
		slices.Contains(t.collided, etypes.HashFromWord(f.Stack().Peek(0))) {
		t.wrote = true
	}
}

func (t *sstoreTracer) CaptureEnter(evm.CallKind, etypes.Address, etypes.Address, []byte, u256.Int) {
}
func (t *sstoreTracer) CaptureExit([]byte, error) {}

// exploitSenders are the two distinct synthetic attackers used by replay.
var exploitSenders = [2]etypes.Address{
	etypes.MustAddress("0x00000000000000000000000000000000a77ac4e1"),
	etypes.MustAddress("0x00000000000000000000000000000000a77ac4e2"),
}

// VerifyStorageExploit dynamically confirms a statically-exploitable
// collision, mirroring CRUSH's validation step: generate test transactions
// and feed them to the EVM. The replay looks for a guarded state-changing
// function (reachable through the proxy) that succeeds twice from two
// different senders while writing a collided slot — the signature of a
// broken initializer/ownership guard, as in the Audius incident. All
// execution happens on an overlay; the chain is untouched.
func (d *Detector) VerifyStorageExploit(proxy, logic etypes.Address, collisions []StorageCollision) bool {
	collided := exploitableSlots(collisions)
	if len(collided) == 0 {
		return false
	}
	// AnalyzePair, the in-package caller, goes to replayGuarded directly;
	// what reaches these reads comes from another package (crush, benches)
	// and owns its capture there. The record is found by the chain's cached
	// code hash, not by hashing the code again.
	logicCode := d.chain.Code(logic)                    // readerpanic:ignore
	logicArt := d.artifacts.of(d.chain.CodeHash(logic)) // readerpanic:ignore
	return d.replayGuarded(proxy, logicArt, logicCode, collided)
}

// exploitableSlots returns the slots of the statically exploitable
// collisions — the only ones worth a replay — in slot order, or nil when
// there are none. A pair has a handful, so membership is a linear scan.
func exploitableSlots(collisions []StorageCollision) []etypes.Hash {
	n := 0
	for _, c := range collisions {
		if c.Exploitable {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	collided := make([]etypes.Hash, 0, n)
	for _, c := range collisions {
		if c.Exploitable {
			collided = append(collided, c.Slot)
		}
	}
	slices.SortFunc(collided, func(a, b etypes.Hash) int { return bytes.Compare(a[:], b[:]) })
	return collided
}

// replayGuarded is the replay half of VerifyStorageExploit, taking the
// logic contract's code and its artifact from the caller: AnalyzePair
// already holds both.
func (d *Detector) replayGuarded(proxy etypes.Address, logic *artifact, logicCode []byte, collided []etypes.Hash) bool {
	for _, sel := range guardGatedSelectors(len(logicCode), logic.dispatcherTargets(logicCode), d.storageAccesses(logic, logicCode), collided) {
		if d.replayDoubleCall(proxy, sel, collided) {
			return true
		}
	}
	return false
}

// guardGatedSelectors returns the logic functions worth replaying: those
// whose body both *reads a collided slot as a guard* and *writes a collided
// slot*. A plain setter (write without guard) or a pure getter cannot
// evidence a broken guard, so replaying them would only produce false
// verifications. Accesses are attributed to functions by PC using the
// dispatcher's jump targets (disasm.DispatcherTargets of the codeLen bytes).
func guardGatedSelectors(codeLen int, targets map[[4]byte]uint64, accs []StorageAccess, collided []etypes.Hash) [][4]byte {
	if len(targets) == 0 {
		return nil
	}
	// Function bodies are laid out sequentially: each extends from its
	// entry to the next entry (or the end of code).
	type fn struct {
		sel   [4]byte
		start uint64
		end   uint64
	}
	fns := make([]fn, 0, len(targets))
	for sel, start := range targets {
		fns = append(fns, fn{sel: sel, start: start, end: uint64(codeLen)})
	}
	// Ties (two selectors sharing an entry) break by selector, so the
	// order does not depend on the map's iteration order.
	slices.SortFunc(fns, func(a, b fn) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return bytes.Compare(a.sel[:], b.sel[:])
	})
	for i := 0; i+1 < len(fns); i++ {
		fns[i].end = fns[i+1].start
	}

	var out [][4]byte
	for _, f := range fns {
		hasGuardRead, hasWrite := false, false
		for _, a := range accs {
			if a.PC < f.start || a.PC >= f.end {
				continue
			}
			if !slices.Contains(collided, a.Slot) {
				continue
			}
			if a.Kind == AccessRead && a.Guard {
				hasGuardRead = true
			}
			if a.Kind == AccessWrite {
				hasWrite = true
			}
		}
		if hasGuardRead && hasWrite {
			out = append(out, f.sel)
		}
	}
	return out
}

// replayDoubleCall executes selector via the proxy from two different
// senders on one overlay and reports whether both succeeded and the first
// wrote a collided slot. Each run has an EVM of its own: an EVM's
// transaction origin is fixed at New, and its step budget spans every call
// it makes.
func (d *Detector) replayDoubleCall(proxy etypes.Address, sel [4]byte, collided []etypes.Hash) bool {
	overlay := newOverlay(d.chain)
	input := abi.EncodeCall(sel)
	run := func(sender etypes.Address, tracer evm.Tracer) bool {
		e := evm.New(overlay, evm.Config{
			Block:     d.emulationContext(),
			Tx:        evm.TxContext{Origin: sender},
			Tracer:    tracer,
			Lenient:   true,
			StepLimit: 1 << 18,
		})
		res := e.Call(sender, proxy, input, d.emulationGas, u256.Zero())
		return res.Err == nil
	}

	first := &sstoreTracer{proxy: proxy, collided: collided}
	if !run(exploitSenders[0], first) || !first.wrote {
		return false
	}
	// The guard must have been corrupted: the second, different sender can
	// run the same guarded function again.
	return run(exploitSenders[1], nil)
}
