package proxion

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/lru"
	"repro/internal/solc"
	"repro/internal/static"
)

// artifact is the detector's one record per runtime bytecode: the
// memoized emulation verdict (verdictcache.go), which Invalidate may swap out,
// and every fact the engine derives from the bytes without emulating them.
// Facets are filled on first demand, by passes over the bytes that build no
// instruction stream, and never change afterwards:
//
//   - a byte scan (disasm.ScanCode) yields the PUSH4 avoid-list of the probe
//     call data, the dispatcher selectors, and whether any SLOAD/SSTORE
//     exists;
//   - a slice of the bytes (ExtractStorageAccesses), run by the pair stage
//     only when the scan found a storage instruction, yields the storage
//     accesses.
//
// The static summary is no facet: no caller reads one twice. The only
// summary the engine runs is a clone family leader's deferred cross-check
// (structural.go), on the goroutine of the family's first follower, if one
// ever comes; Detector.summarize disassembles the leader's code for it and
// slices nothing. Followers promote from their family's template without a
// summary, so their pair stage slices them — and only when the logic has
// storage accesses to collide with (analyzePair), which a stamp of a
// storage-free logic, or of an address without code, never has.
// The code itself is not held either; every accessor takes it, and the code
// hash the artifact is filed under vouches that it is the same bytes.
type artifact struct {
	mu              sync.Mutex
	scanned, sliced bool
	// storageOps gates the slice: code without SLOAD/SSTORE has no accesses.
	storageOps bool
	avoid      [][4]byte
	// selectors are the dispatcher's, ascending: the bytecode selector view.
	selectors [][4]byte
	accesses  []StorageAccess
	// targets maps a dispatcher selector to its function's entry; only the
	// exploit replay asks.
	targets map[[4]byte]uint64
	// source is the selector view under the verified source last seen with
	// this bytecode: one entry, because the addresses sharing a bytecode
	// publish the same functions, each in a source object of its own.
	source *selectorView
	// verdict is nil until the bytecode is first probed (a logic contract's
	// record never is) and again after an Invalidate that drops it.
	verdict atomic.Pointer[codeVerdict]
}

// sameFunctions reports whether two sources declare the same functions in
// the same order, which is all a selector view depends on.
func sameFunctions(a, b *solc.Contract) bool {
	return a == b || slices.EqualFunc(a.Funcs, b.Funcs, func(x, y solc.Func) bool {
		return x.ABI.Name == y.ABI.Name && slices.Equal(x.ABI.Params, y.ABI.Params)
	})
}

// artifactCache files artifacts by code hash under the detector's capacity
// (AnalyzeOptions.CacheCapacity). Eviction drops a record whole: the next
// analysis of its bytecode rebuilds the facets, to equal values, and
// re-emulates the verdict.
type artifactCache struct {
	*lru.Cache[etypes.Hash, *artifact]
}

func newArtifactCache() *artifactCache {
	return &artifactCache{lru.New[etypes.Hash, *artifact](0)}
}

// of returns the artifact of the bytecode hashing to codeHash.
func (c *artifactCache) of(codeHash etypes.Hash) *artifact {
	a, _ := c.GetOrAdd(codeHash, func() *artifact { return new(artifact) })
	return a
}

// verdicts returns the record's verdict state, installing an empty one if
// it has none.
func (a *artifact) verdicts() *codeVerdict {
	for {
		if v := a.verdict.Load(); v != nil {
			return v
		}
		a.verdict.CompareAndSwap(nil, new(codeVerdict))
	}
}

// scanLocked runs the byte scan once. Callers hold a.mu.
func (a *artifact) scanLocked(code []byte) {
	if a.scanned {
		return
	}
	scan := disasm.ScanCode(code)
	a.avoid, a.storageOps = scan.Push4, scan.StorageOps
	a.selectors = sortSelectors(scan.Selectors)
	a.scanned = true
}

// probeCallData is CraftCallData(addr, code) with the avoid-list scanned
// once per bytecode instead of once per emulation.
func (a *artifact) probeCallData(addr etypes.Address, code []byte) []byte {
	a.mu.Lock()
	a.scanLocked(code)
	avoid := a.avoid
	a.mu.Unlock()
	return craftCallData(addr, avoid)
}

// view returns the selector view of code under src (nil: bytecode only).
func (a *artifact) view(code []byte, src *solc.Contract) selectorView {
	a.mu.Lock()
	defer a.mu.Unlock()
	if src == nil {
		a.scanLocked(code)
		return selectorView{selectors: a.selectors}
	}
	if a.source == nil || !sameFunctions(a.source.src, src) {
		v := sourceView(src)
		a.source = &v
	}
	return *a.source
}

// dispatcherTargets returns disasm.DispatcherTargets(code), read-only.
func (a *artifact) dispatcherTargets(code []byte) map[[4]byte]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.targets == nil {
		a.targets = disasm.DispatcherTargets(code)
	}
	return a.targets
}

// storageAccesses returns ExtractStorageAccesses(code), read-only. The
// slice runs only if the code has a storage instruction; it is one of the
// passes d.walks counts. It runs with a.mu released, so the bytecode's
// other facets are not held up behind it, and is published under it:
// callers that race to a bytecode's first slice each slice, to equal
// values, and the first to publish wins.
func (d *Detector) storageAccesses(a *artifact, code []byte) []StorageAccess {
	a.mu.Lock()
	if a.sliced {
		defer a.mu.Unlock()
		return a.accesses
	}
	a.scanLocked(code)
	storageOps := a.storageOps
	a.mu.Unlock()

	var accesses []StorageAccess
	if storageOps {
		d.walks.Add(1)
		accesses = ExtractStorageAccesses(code)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.sliced {
		a.accesses, a.sliced = accesses, true
	}
	return a.accesses
}

// summarize returns static.Analyze(code), built on the caller's hashes. Its
// disassembly is the other pass d.walks counts.
func (d *Detector) summarize(code []byte, codeHash, fp etypes.Hash) *static.Summary {
	d.walks.Add(1)
	return static.AnalyzeBlocks(code, disasm.BasicBlocks(code), codeHash, fp)
}
