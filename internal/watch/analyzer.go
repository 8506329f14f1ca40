package watch

import (
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/store"
)

// Analyzer is the analysis backend a Follower drives: it analyzes (and
// re-analyzes) contracts and drops cached verdicts ahead of a re-analysis.
// *DetectorAnalyzer implements it for standalone use; serve.Server
// implements it structurally so proxiond's follower feeds the same caches
// the HTTP API reads from.
type Analyzer interface {
	// Analyze runs the full analysis path over the addresses and records
	// the results in whatever caches and stores back the implementation.
	// One item per address, in input order.
	Analyze(addrs []etypes.Address) ([]proxion.Item, error)
	// Invalidate drops the cached verdicts derived from addr's current
	// bytecode that a change to addr's state can have made stale — the
	// exact-hash entry and the structural family, both kept when every
	// verdict re-reads what it depends on (proxion.Detector.Invalidate) —
	// and returns how many tiers it dropped. The persistent store is not
	// touched here: the re-analysis that follows supersedes its entry
	// (append-only, last record wins), which is what keeps a crash
	// between invalidation and re-analysis recoverable.
	Invalidate(addr etypes.Address) (int, error)
}

// DetectorAnalyzer adapts a bare Detector (plus optional verdict store) to
// the Analyzer interface. Analyses are Detector.AnalyzeAddress calls, the
// code a batch scan's workers run, so a follower's incremental results are
// a cold analysis's — the watch-parity oracle depends on that.
type DetectorAnalyzer struct {
	Detector *proxion.Detector
	Sources  proxion.SourceProvider
	// Store, when set, receives the exported verdict of every analyzed
	// bytecode; byte-identical re-puts are skipped inside the store.
	Store *store.Store
	// Options configures the analyses.
	Options proxion.AnalyzeOptions
}

// NewDetectorAnalyzer builds the standalone analyzer.
func NewDetectorAnalyzer(d *proxion.Detector, sources proxion.SourceProvider, st *store.Store) *DetectorAnalyzer {
	return &DetectorAnalyzer{Detector: d, Sources: sources, Store: st}
}

// Analyze analyzes the addresses in order, then persists each verdict.
func (a *DetectorAnalyzer) Analyze(addrs []etypes.Address) ([]proxion.Item, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	items := make([]proxion.Item, len(addrs))
	for i, addr := range addrs {
		items[i] = a.Detector.AnalyzeAddress(addr, a.Sources, a.Options)
	}
	if a.Store != nil {
		for _, addr := range addrs {
			if ent, ok := a.Detector.ExportVerdict(addr); ok {
				_ = a.Store.Put(ent) // as the serve layer does; a failed put is not fatal
			}
		}
	}
	return items, nil
}

// Invalidate is Detector.Invalidate: it drops the exact-hash verdict and the
// structural family for addr's current bytecode unless every verdict
// re-anchors to the proxy's own storage.
func (a *DetectorAnalyzer) Invalidate(addr etypes.Address) (int, error) {
	return a.Detector.Invalidate(addr)
}
