// Package pipeline holds the counters of an analysis run and their frozen,
// serializable Snapshot: the run-wide Stats every analysis updates, and the
// per-stage rows (items processed, busy time) and wall clock a stream fills
// in when it has finished, so a run can report where the wall-clock went.
// It is domain-free and runs nothing: the proxion package analyzes each
// contract on one worker goroutine and accounts each step to a stage row.
package pipeline

import "sync/atomic"

// Counter is an atomic int64 with a JSON-friendly name. It is safe to
// update from any number of stage workers.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Stats holds the run-wide counters of one analysis pipeline execution.
// Stage-local counts (items processed, busy time) live on the stage rows a
// stream adds to its Snapshot; these are the cross-cutting totals the paper's Section 6.1 reports on.
// All fields are safe for concurrent update while the pipeline runs.
type Stats struct {
	// Scanned counts items fed into the pipeline.
	Scanned Counter
	// NoCode counts addresses rejected for holding no bytecode.
	NoCode Counter
	// FilterRejected counts contracts rejected by the disassembly filter
	// (no DELEGATECALL opcode) without an emulation.
	FilterRejected Counter
	// Emulations counts full EVM emulation probes actually executed.
	Emulations Counter
	// CacheHits counts detection verdicts served from the bytecode-dedup
	// cache instead of a fresh emulation — exact bytecode-hash hits plus
	// structural near-clone promotions.
	CacheHits Counter
	// StructuralHits counts the subset of CacheHits served by structural
	// fingerprint promotion: a distinct bytecode whose verdict was
	// re-anchored from its near-clone family exemplar without emulating.
	StructuralHits Counter
	// StaticSummaries counts static bytecode analyses performed by the
	// structural layer: one per family exemplar's cross-check, deferred to
	// its first follower (followers promote from the family's template).
	StaticSummaries Counter
	// StructuralRejects counts contracts the structural layer examined and
	// refused — the first follower of a family whose exemplar's static
	// summary disagreed with its dynamic verdict, or a follower that did
	// not fit its family's template — falling back to a fresh emulation.
	StructuralRejects Counter
	// EmulationAborts counts probes that ended in a terminal EVM error.
	EmulationAborts Counter
	// ProxiesDetected counts positive verdicts.
	ProxiesDetected Counter
	// PairsAnalyzed counts proxy/logic pairs through collision analysis.
	PairsAnalyzed Counter
	// Unresolved counts contracts whose chain reads terminally failed and
	// that were degraded to an explicit Unresolved report instead of being
	// dropped; always zero over a fault-free node.
	Unresolved Counter
}

// Add adds every counter of o into st: how a stream worker that counted
// into a Stats of its own hands its counts to the run's set when it exits.
// o must not be updated concurrently.
func (st *Stats) Add(o *Stats) {
	st.Scanned.Add(o.Scanned.Load())
	st.NoCode.Add(o.NoCode.Load())
	st.FilterRejected.Add(o.FilterRejected.Load())
	st.Emulations.Add(o.Emulations.Load())
	st.CacheHits.Add(o.CacheHits.Load())
	st.StructuralHits.Add(o.StructuralHits.Load())
	st.StaticSummaries.Add(o.StaticSummaries.Load())
	st.StructuralRejects.Add(o.StructuralRejects.Load())
	st.EmulationAborts.Add(o.EmulationAborts.Load())
	st.ProxiesDetected.Add(o.ProxiesDetected.Load())
	st.PairsAnalyzed.Add(o.PairsAnalyzed.Load())
	st.Unresolved.Add(o.Unresolved.Load())
}

// StageSnapshot is the frozen instrumentation of one stage.
type StageSnapshot struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Processed int64   `json:"processed"`
	BusyMS    float64 `json:"busy_ms"`
}

// Snapshot is the JSON-serializable summary of one pipeline run: the
// run-wide counters plus per-stage instrumentation. It is immutable once
// taken.
type Snapshot struct {
	Contracts       int64   `json:"contracts"`
	WallMS          float64 `json:"wall_ms"`
	ContractsPerSec float64 `json:"contracts_per_sec"`

	NoCode         int64 `json:"no_code"`
	FilterRejected int64 `json:"filter_rejected"`

	Emulations        int64   `json:"emulations"`
	CacheHits         int64   `json:"cache_hits"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	StructuralHits    int64   `json:"structural_hits"`
	StaticSummaries   int64   `json:"static_summaries"`
	StructuralRejects int64   `json:"structural_rejects"`
	EmulationAborts   int64   `json:"emulation_aborts"`

	ProxiesDetected int64 `json:"proxies_detected"`
	PairsAnalyzed   int64 `json:"pairs_analyzed"`
	// StorageAPICalls, Retries and BreakerTrips are the node's own counts,
	// not Stats counters: whoever takes the snapshot sets them from the
	// chain reader's counter deltas over the run — archive getStorageAt
	// calls, and the resilient client's read re-attempts and closed→open
	// breaker transitions. Retries is deterministic for a fixed fault
	// schedule below the retry budget: every faulted read fails exactly its
	// scheduled number of attempts, whatever the interleaving.
	StorageAPICalls int64 `json:"get_storage_at_calls"`

	Unresolved   int64 `json:"unresolved"`
	Retries      int64 `json:"read_retries"`
	BreakerTrips int64 `json:"breaker_trips"`

	Stages []StageSnapshot `json:"stages"`
}

// Counters exports the snapshot's deterministic run counters keyed by
// their JSON field names. "Deterministic" means: for a fixed input chain
// the values depend only on the analyzed contracts, never on scheduling,
// worker counts, or wall-clock — so two runs over the same seeded corpus
// must produce byte-identical maps. Wall-clock-derived fields (wall_ms,
// contracts_per_sec, cache_hit_rate, per-stage busy time) are deliberately
// excluded. Per-stage item counts are exported as stage_<name>_processed.
//
// bench/e2e requires the map to be identical in every repetition of a run.
func (s *Snapshot) Counters() map[string]int64 {
	m := map[string]int64{
		"contracts":            s.Contracts,
		"no_code":              s.NoCode,
		"filter_rejected":      s.FilterRejected,
		"emulations":           s.Emulations,
		"cache_hits":           s.CacheHits,
		"structural_hits":      s.StructuralHits,
		"static_summaries":     s.StaticSummaries,
		"structural_rejects":   s.StructuralRejects,
		"emulation_aborts":     s.EmulationAborts,
		"proxies_detected":     s.ProxiesDetected,
		"pairs_analyzed":       s.PairsAnalyzed,
		"get_storage_at_calls": s.StorageAPICalls,
		"unresolved":           s.Unresolved,
		"read_retries":         s.Retries,
		"breaker_trips":        s.BreakerTrips,
	}
	for _, st := range s.Stages {
		m["stage_"+st.Name+"_processed"] = st.Processed
	}
	return m
}

// Snapshot freezes the counters as they read now: exact at the instant of
// the read, safe while a run is in flight; wall clock, stages and the node's
// own counts left zero.
func (st *Stats) Snapshot() *Snapshot {
	snap := &Snapshot{
		Contracts:         st.Scanned.Load(),
		NoCode:            st.NoCode.Load(),
		FilterRejected:    st.FilterRejected.Load(),
		Emulations:        st.Emulations.Load(),
		CacheHits:         st.CacheHits.Load(),
		StructuralHits:    st.StructuralHits.Load(),
		StaticSummaries:   st.StaticSummaries.Load(),
		StructuralRejects: st.StructuralRejects.Load(),
		EmulationAborts:   st.EmulationAborts.Load(),
		ProxiesDetected:   st.ProxiesDetected.Load(),
		PairsAnalyzed:     st.PairsAnalyzed.Load(),
		Unresolved:        st.Unresolved.Load(),
	}
	if lookups := snap.CacheHits + snap.Emulations; lookups > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(lookups)
	}
	return snap
}
