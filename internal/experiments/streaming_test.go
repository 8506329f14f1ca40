package experiments_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/experiments"
	"repro/internal/proxion"
)

// streamCfg is shared by the parity tests below; generation is
// deterministic, so the batch and streaming corpora are identical.
var streamCfg = dataset.Config{Seed: 11, Contracts: 900}

// batchSide materializes the reference Population/Result pair and its
// Replay fold.
func batchSide(t *testing.T) (*dataset.Population, *proxion.Result, *experiments.Landscape) {
	t.Helper()
	pop := dataset.Generate(streamCfg)
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)
	return pop, res, experiments.Replay(pop, det, experiments.NewIndex(res))
}

// TestStreamedCorpusLandscapeMatchesBatch is the deterministic parity
// check for the aggregate plumbing: the corpus is streamed to completion
// first (so every scheduled upgrade has landed, exactly the state the
// batch run sees), then analyzed through AnalyzeStream with the items
// zipped back to their labels and folded into a Landscape. Every table,
// Section 7.1's included, must match the batch run's Replay fold byte for
// byte.
func TestStreamedCorpusLandscapeMatchesBatch(t *testing.T) {
	_, res, batch := batchSide(t)

	s := dataset.GenerateStream(dataset.StreamConfig{Config: streamCfg})
	var labels []*dataset.Label
	for l := range s.C {
		labels = append(labels, l)
	}

	sdet := proxion.NewDetector(s.Chain)
	agg := experiments.NewLandscape(s.Chain, s.Registry, sdet)
	addrs := make([]etypes.Address, len(labels))
	for i, l := range labels {
		addrs[i] = l.Address
	}
	sink := proxion.SinkFunc(func(it proxion.Item) {
		agg.Observe(labels[it.Index], it)
	})
	sdet.AnalyzeStream(proxion.SliceSource(addrs), s.Registry, sink, proxion.AnalyzeOptions{})

	assertTableEqual(t, "Figure 2", agg.Figure2(), batch.Figure2())
	assertTableEqual(t, "Figure 4", agg.Figure4(), batch.Figure4())
	assertTableEqual(t, "Table 3", agg.Table3(), batch.Table3())
	assertTableEqual(t, "Figure 5", agg.Figure5(), batch.Figure5())
	assertTableEqual(t, "Table 4", agg.Table4(), batch.Table4())
	assertTableEqual(t, "Figure 6", agg.Figure6(), batch.Figure6())
	assertTableEqual(t, "RuntimeErrors", agg.RuntimeErrors(), batch.RuntimeErrors())
	assertTableEqual(t, "HiddenProxies", agg.HiddenProxies(), batch.HiddenProxies())
	if len(batch.RuntimeErrors().Rows) <= 3 {
		t.Error("Section 7.1 lists no emulation error: the comparison is vacuous")
	}

	// The incremental summary matches the batch one too — except
	// Contracts: the stream feeds every label address, including destroyed
	// ones the batch run's alive-only enumeration skips. Those yield empty
	// no-code reports that change no other counter.
	got, want := agg.Summary(), proxion.Summarize(res)
	want.Pipeline = nil
	if got.Contracts != len(labels) {
		t.Errorf("streaming summary saw %d contracts, want %d", got.Contracts, len(labels))
	}
	got.Contracts = want.Contracts
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streaming summary diverges:\nstream: %+v\nbatch:  %+v", got, want)
	}
}

// TestLiveStreamingLandscapeInvariants runs the fully concurrent path —
// the generator stream feeding the engine while deployment continues —
// and checks the outputs that cannot depend on upgrade timing. A proxy
// that upgrades after its analysis reports its original logic here and
// its final logic in the batch run, so logic-derived numbers (Figure 4's
// source split, Figure 5's logic row, Figure 6, the collision columns)
// may legitimately differ; everything derived from the proxy's own
// bytecode and its label must not.
func TestLiveStreamingLandscapeInvariants(t *testing.T) {
	pop, res, batch := batchSide(t)

	s := dataset.GenerateStream(dataset.StreamConfig{Config: streamCfg})
	sdet := proxion.NewDetector(s.Chain)
	agg := experiments.NewLandscape(s.Chain, s.Registry, sdet)

	var mu sync.Mutex
	var labels []*dataset.Label
	src := proxion.SourceFunc(func() (etypes.Address, bool) {
		l, ok := <-s.C
		if !ok {
			return etypes.Address{}, false
		}
		mu.Lock()
		labels = append(labels, l)
		mu.Unlock()
		return l.Address, true
	})
	sink := proxion.SinkFunc(func(it proxion.Item) {
		mu.Lock()
		l := labels[it.Index]
		mu.Unlock()
		agg.Observe(l, it)
	})
	snap := sdet.AnalyzeStream(src, s.Registry, sink, proxion.AnalyzeOptions{Window: 64})
	if snap.Contracts != int64(len(pop.Labels)) {
		t.Fatalf("streamed %d contracts, population has %d labels", snap.Contracts, len(pop.Labels))
	}

	assertTableEqual(t, "Figure 2", agg.Figure2(), batch.Figure2())
	assertTableEqual(t, "Table 4", agg.Table4(), batch.Table4())
	assertTableEqual(t, "RuntimeErrors", agg.RuntimeErrors(), batch.RuntimeErrors())
	assertTableEqual(t, "HiddenProxies", agg.HiddenProxies(), batch.HiddenProxies())

	// Figure 5: proxy instances, unique proxy bytecodes, top-3 share.
	gotF5, wantF5 := agg.Figure5(), batch.Figure5()
	for _, i := range []int{0, 1, 3} {
		if !reflect.DeepEqual(gotF5.Rows[i], wantF5.Rows[i]) {
			t.Errorf("Figure 5 row %d: stream %v, batch %v", i, gotF5.Rows[i], wantF5.Rows[i])
		}
	}

	// Figure 4: per-year pair totals — the proxy verdict itself is
	// upgrade-invariant even when the source split moves between columns.
	gotF4, wantF4 := agg.Figure4(), batch.Figure4()
	for i := range wantF4.Rows {
		gotTotal := gotF4.Rows[i][len(gotF4.Rows[i])-1]
		wantTotal := wantF4.Rows[i][len(wantF4.Rows[i])-1]
		if gotTotal != wantTotal {
			t.Errorf("Figure 4 row %d total: stream %s, batch %s", i, gotTotal, wantTotal)
		}
	}

	gotSum, wantSum := agg.Summary(), proxion.Summarize(res)
	if gotSum.Proxies != wantSum.Proxies ||
		gotSum.TargetStorage != wantSum.TargetStorage ||
		gotSum.TargetHardcoded != wantSum.TargetHardcoded ||
		gotSum.EmulationErrors != wantSum.EmulationErrors ||
		gotSum.Unresolved != wantSum.Unresolved ||
		!reflect.DeepEqual(gotSum.Standards, wantSum.Standards) {
		t.Errorf("streaming summary invariants diverge:\nstream: %+v\nbatch:  %+v", gotSum, wantSum)
	}
}

func assertTableEqual(t *testing.T, name string, got, want *experiments.Table) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverges:\nstream: %+v\nbatch:  %+v", name, got, want)
	}
}
