package proxion

import (
	"slices"

	"repro/internal/etypes"
)

// LogicHistory recovers every logic-contract address ever stored in the
// proxy's implementation slot using the paper's Algorithm 1: a recursive
// binary partition over block heights that compares the slot's value at the
// range endpoints and only descends into ranges whose endpoints differ.
// It relies on the paper's observation that proxies essentially never
// downgrade to a previously used logic contract, so each distinct value
// corresponds to one contiguous block range — and the partition, which
// visits ranges left to right, meets the values oldest first, the order
// they are returned in.
//
// The number of archive (getStorageAt) calls is the efficiency metric of
// Section 6.1; read it from the chain's API-call counter.
func (d *Detector) LogicHistory(proxy etypes.Address, slot etypes.Hash) []etypes.Address {
	// Callers (no analysis step runs it) own the capture of a failed read.
	at := func(block uint64) etypes.Hash { return d.chain.GetStorageAt(proxy, slot, block) } // readerpanic:ignore
	upper := d.chain.CurrentBlock()                                                          // readerpanic:ignore
	var out []etypes.Address
	partitionBlocks(at, 0, upper, at(0), at(upper), &out)
	return out
}

// partitionBlocks is Algorithm 1's PARTITIONBLOCKS: collect every distinct
// value the slot holds in [lower, upper], left to right, reading the slot
// as of a block with at. Endpoint values are threaded down the recursion so
// each block height is queried at most once — the paper's pseudocode
// re-queries endpoints, which doubles the archive calls for the same result.
func partitionBlocks(at func(block uint64) etypes.Hash, lower, upper uint64, vLower, vUpper etypes.Hash, out *[]etypes.Address) {
	if vLower == vUpper || lower+1 >= upper {
		appendLogic(out, vLower)
		appendLogic(out, vUpper)
		return
	}
	mid := lower + (upper-lower)/2
	vMid, vMid1 := at(mid), at(mid+1)
	partitionBlocks(at, lower, mid, vLower, vMid, out)
	partitionBlocks(at, mid+1, upper, vMid1, vUpper, out)
}

// appendLogic adds a slot value to a history at its first appearance,
// skipping the empty slot before the first write: the history is a set,
// ordered by when each logic was first delegated to.
func appendLogic(out *[]etypes.Address, v etypes.Hash) {
	if a := etypes.BytesToAddress(v[:]); v != (etypes.Hash{}) && !slices.Contains(*out, a) {
		*out = append(*out, a)
	}
}

// NaiveLogicHistory is the baseline Algorithm 1 replaces: query the slot at
// every block height from genesis to head. Used by the ablation benchmark
// to quantify the binary search's API-call savings.
func (d *Detector) NaiveLogicHistory(proxy etypes.Address, slot etypes.Hash) []etypes.Address {
	var out []etypes.Address
	// The baseline only ever runs against the in-memory chain (the
	// ablation harness), so the per-block scan skips the Unresolved
	// degradation the production path owes a fallible node.
	head := d.chain.CurrentBlock() // readerpanic:ignore
	for h := uint64(0); h <= head; h++ {
		appendLogic(&out, d.chain.GetStorageAt(proxy, slot, h)) // readerpanic:ignore
	}
	return out
}

// UpgradeCount returns how many times the proxy switched logic contracts:
// one less than the number of distinct logic addresses (zero upgrades for a
// single logic), for the Figure 6 experiment.
func (d *Detector) UpgradeCount(proxy etypes.Address, slot etypes.Hash) int {
	n := len(d.LogicHistory(proxy, slot))
	if n <= 1 {
		return 0
	}
	return n - 1
}
