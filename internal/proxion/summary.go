package proxion

import (
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/pipeline"
)

// Summary aggregates a whole-chain analysis into the headline numbers the
// paper reports (Sections 6–7). Fields are exported and JSON-tagged so the
// CLI can emit machine-readable reports.
type Summary struct {
	Contracts int `json:"contracts"`
	Proxies   int `json:"proxies"`

	// Standards is the Table 4 breakdown.
	Standards map[string]int `json:"standards"`

	// TargetStorage / TargetHardcoded split upgradeable proxies from clones.
	TargetStorage   int `json:"target_storage"`
	TargetHardcoded int `json:"target_hardcoded"`

	// EmulationErrors counts terminal EVM failures (Section 7.1).
	EmulationErrors int `json:"emulation_errors"`

	// Unresolved counts contracts whose chain reads terminally failed under
	// a fallible node; they stay in Contracts but carry no full verdict.
	// Retry and breaker activity behind them is in Pipeline (read_retries,
	// breaker_trips).
	Unresolved int `json:"unresolved"`

	// PairsWithFunctionCollisions / PairsWithStorageCollisions /
	// VerifiedExploits summarize Section 5's output.
	PairsWithFunctionCollisions int `json:"pairs_with_function_collisions"`
	PairsWithStorageCollisions  int `json:"pairs_with_storage_collisions"`
	VerifiedExploits            int `json:"verified_exploits"`

	// Pipeline is the engine instrumentation of the run that produced the
	// Result: throughput, dedup-cache hit rate, emulation aborts,
	// getStorageAt call count and per-stage worker utilization.
	Pipeline *pipeline.Snapshot `json:"pipeline,omitempty"`
}

// SummaryBuilder folds analysis items into a Summary incrementally — the
// streaming replacement for materializing a Result first. It implements
// ReportSink, so it can be handed to AnalyzeStream directly; its state is
// a fixed handful of counters, independent of corpus size.
type SummaryBuilder struct {
	s Summary
}

// NewSummaryBuilder returns an empty builder.
func NewSummaryBuilder() *SummaryBuilder {
	return &SummaryBuilder{s: Summary{Standards: make(map[string]int)}}
}

// Emit implements ReportSink: one finalized item folds into the counters.
func (b *SummaryBuilder) Emit(it Item) {
	b.observeReport(it.Report)
	if it.Pair != nil {
		b.observePair(*it.Pair)
	}
}

func (b *SummaryBuilder) observeReport(rep Report) {
	b.s.Contracts++
	if rep.EmulationErr != nil {
		b.s.EmulationErrors++
	}
	if rep.Unresolved {
		b.s.Unresolved++
	}
	if !rep.IsProxy {
		return
	}
	b.s.Proxies++
	b.s.Standards[rep.Standard.String()]++
	switch rep.Target {
	case TargetStorage:
		b.s.TargetStorage++
	case TargetHardcoded:
		b.s.TargetHardcoded++
	}
}

func (b *SummaryBuilder) observePair(pa PairAnalysis) {
	if len(pa.Functions) > 0 {
		b.s.PairsWithFunctionCollisions++
	}
	if len(pa.Storage) > 0 {
		b.s.PairsWithStorageCollisions++
	}
	if pa.ExploitVerified {
		b.s.VerifiedExploits++
	}
}

// Summary returns the aggregate, attaching the run's pipeline snapshot
// (nil is fine). Its Standards map is a copy: the builder may keep
// folding.
func (b *SummaryBuilder) Summary(snap *pipeline.Snapshot) Summary {
	s := b.s
	s.Standards = maps.Clone(b.s.Standards)
	s.Pipeline = snap
	return s
}

// Summarize folds a Result into a Summary — the batch wrapper over the
// incremental builder.
func Summarize(res *Result) Summary {
	b := NewSummaryBuilder()
	for _, rep := range res.Reports {
		b.observeReport(rep)
	}
	for _, pa := range res.Pairs {
		b.observePair(pa)
	}
	return b.Summary(res.Stats)
}

// ProxyShare returns the proxy fraction of the analyzed population.
func (s Summary) ProxyShare() float64 {
	if s.Contracts == 0 {
		return 0
	}
	return float64(s.Proxies) / float64(s.Contracts)
}

// MarshalIndentJSON renders the summary for the CLI's -json flag.
func (s Summary) MarshalIndentJSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("proxion: marshaling summary: %w", err)
	}
	return out, nil
}
