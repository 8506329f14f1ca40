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
// memoized emulation verdict (verdictcache.go), which Invalidate swaps out,
// and every fact the engine derives from the bytes without emulating them.
// Facets are filled on first demand by at most two passes over the code
// and never change afterwards:
//
//   - a byte scan (disasm.ScanCode, no instruction stream) yields the PUSH4
//     avoid-list of the probe call data, the dispatcher selectors, and
//     whether any SLOAD/SSTORE exists;
//   - one disasm.BasicBlocks walk yields the storage accesses — and, when
//     the caller is after the static summary, the summary from the same
//     blocks (Detector.summarize).
//
// Neither the instruction stream nor the summary is kept: a stream costs
// more than everything else the detector retains, and no caller reads a
// summary twice. The rule that keeps a bytecode at one walk is "whoever
// disassembles, slices": whichever of a summary and the pair stage walks a
// bytecode first fills its accesses for the other. A follower runs its
// summary and pair analysis on one goroutine, so its pair stage finds the
// accesses filled. A family leader's summary runs later, on the goroutine of
// the family's first follower, if one ever comes: the leader's pair stage
// slices on its own, and the deferred summary walks the code again.
// The code itself is not held either; every accessor takes it, and the code
// hash the artifact is filed under vouches that it is the same bytes.
type artifact struct {
	mu              sync.Mutex
	scanned, walked bool
	// storageOps gates the walk: code without SLOAD/SSTORE has no accesses.
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
	source *sourceFacet
	// verdict is nil until the bytecode is first probed (a logic contract's
	// record never is) and again after Invalidate.
	verdict atomic.Pointer[codeVerdict]
}

type sourceFacet struct {
	src  *solc.Contract
	view selectorView
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
		a.source = &sourceFacet{src: src, view: sourceView(src)}
	}
	return a.source.view
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

// sliceLocked fills the storage accesses once, from the disassembly walk
// returns — asked for only if the code touches storage at all. Callers hold
// a.mu.
func (a *artifact) sliceLocked(code []byte, walk func() []disasm.BasicBlock) {
	if a.walked {
		return
	}
	a.scanLocked(code)
	if a.storageOps {
		a.accesses = sliceBlocks(code, walk())
	}
	a.walked = true
}

// storageAccesses returns ExtractStorageAccesses(code), read-only.
func (d *Detector) storageAccesses(a *artifact, code []byte) []StorageAccess {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sliceLocked(code, func() []disasm.BasicBlock {
		d.walks.Add(1)
		return disasm.BasicBlocks(code)
	})
	return a.accesses
}

// summarize returns static.Analyze(code), built on the caller's hashes, and
// leaves the storage accesses behind, sliced from the same disassembly.
func (d *Detector) summarize(a *artifact, code []byte, codeHash, fp etypes.Hash) *static.Summary {
	d.walks.Add(1)
	blocks := disasm.BasicBlocks(code)
	a.mu.Lock()
	a.sliceLocked(code, func() []disasm.BasicBlock { return blocks })
	a.mu.Unlock()
	return static.AnalyzeBlocks(code, blocks, codeHash, fp)
}
