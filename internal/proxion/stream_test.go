package proxion_test

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/gen/oracle"
	"repro/internal/proxion"
)

// TestAnalyzeStreamMatchesBatch: the streaming entry point with a
// collecting sink must reproduce AnalyzeAll exactly — same reports, same
// order, same pairs — across window sizes small enough to force heavy
// reorder-buffer churn.
func TestAnalyzeStreamMatchesBatch(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 7, Contracts: 400})
	want := proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry)
	want.Stats = nil

	for _, window := range []int{1, 3, 64, 4096, 0} {
		sink := proxion.NewCollectSink()
		d := proxion.NewDetector(pop.Chain)
		d.AnalyzeStream(proxion.SliceSource(pop.Chain.Contracts()), pop.Registry, sink,
			proxion.AnalyzeOptions{Window: window})
		got := sink.Result()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: streamed result diverges from AnalyzeAll", window)
		}
	}
}

// TestAnalyzeStreamEmitsInSourceOrder: items must reach the sink in
// strictly increasing index order even with a tiny reorder window and a
// wide worker pool racing completions.
func TestAnalyzeStreamEmitsInSourceOrder(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 13, Contracts: 500})
	next := 0
	sink := proxion.SinkFunc(func(it proxion.Item) {
		if it.Index != next {
			t.Errorf("emitted index %d, want %d", it.Index, next)
		}
		next++
	})
	proxion.NewDetector(pop.Chain).AnalyzeStream(
		proxion.SliceSource(pop.Chain.Contracts()), pop.Registry, sink,
		proxion.AnalyzeOptions{Window: 4, Workers: 8})
	if want := len(pop.Chain.Contracts()); next != want {
		t.Fatalf("emitted %d items, want %d", next, want)
	}
}

// TestAnalyzeStreamWindowBoundsInFlight is the backpressure contract: the
// number of addresses pulled from the source but not yet emitted to the
// sink never exceeds the window — a worker takes its window slot before it
// asks the source, so there is no "+1 in hand". The sink blocks on item
// blockAt until the source has been asked as often as the window allows;
// asking once more fails the test at the pull, at any worker count.
func TestAnalyzeStreamWindowBoundsInFlight(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 5, Contracts: 300})
	addrs := pop.Chain.Contracts()
	const window, blockAt = 8, 100

	for _, workers := range engineMatrix.workers {
		var pulled, emitted atomic.Int64
		saturated := make(chan struct{})
		i := 0
		src := proxion.SourceFunc(func() (etypes.Address, bool) {
			if i >= len(addrs) {
				return etypes.Address{}, false
			}
			a := addrs[i]
			i++
			p := pulled.Add(1)
			if f := p - emitted.Load(); f > window {
				t.Errorf("workers %d: pull %d with %d contracts in flight, window is %d", workers, p, f, window)
			}
			if p == blockAt+window {
				close(saturated)
			}
			return a, true
		})
		sink := proxion.SinkFunc(func(it proxion.Item) {
			// One worker cannot pull while it sits in the sink; with more,
			// the others must run exactly to the window's edge and stop.
			if it.Index == blockAt && workers > 1 {
				select {
				case <-saturated:
				case <-time.After(30 * time.Second):
					t.Errorf("workers %d: source asked %d times with item %d blocked in the sink, want %d",
						workers, pulled.Load(), blockAt, blockAt+window)
				}
			}
			emitted.Add(1)
		})

		proxion.NewDetector(pop.Chain).AnalyzeStream(src, pop.Registry, sink,
			proxion.AnalyzeOptions{Window: window, Workers: workers})
		if emitted.Load() != int64(len(addrs)) {
			t.Fatalf("workers %d: emitted %d, want %d", workers, emitted.Load(), len(addrs))
		}
	}
}

// TestAnalyzeStreamBoundedCacheSameVerdicts: capping the verdict cache
// changes hit/miss accounting, never analysis output. A capacity far
// below the landscape's unique-bytecode count must still yield the exact
// batch result.
func TestAnalyzeStreamBoundedCacheSameVerdicts(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 29, Contracts: 500})
	want := proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry)
	want.Stats = nil

	d := proxion.NewDetector(pop.Chain)
	got := d.AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{CacheCapacity: 2})
	scanned := got.Stats.Contracts
	hits, emuls := got.Stats.CacheHits, got.Stats.Emulations
	got.Stats = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bounded verdict cache changed analysis output")
	}
	if scanned != int64(len(want.Reports)) {
		t.Fatalf("scanned %d, want %d", scanned, len(want.Reports))
	}
	// Accounting stays complete even as eviction shifts the hit/miss split.
	probed := hits + emuls
	wantProbed := int64(0)
	for _, rep := range want.Reports {
		if rep.HasDelegateCall || rep.IsProxy {
			wantProbed++
		}
	}
	if probed < wantProbed {
		t.Fatalf("hits+emulations = %d, fewer than %d probed contracts", probed, wantProbed)
	}
}

// TestAnalyzeStreamWithHistory checks fan-out refcounting on the widest
// item shape a stream emits, each proxy item with its pair attached and
// non-proxies with none, and then the widest analysis a proxy gets: its
// logic history, recovered on the streaming detector, must equal the
// batch run's on its own.
func TestAnalyzeStreamWithHistory(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 17, Contracts: 300})
	batch := proxion.NewDetector(pop.Chain)
	want := batch.AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{})
	want.Stats = nil

	sink := proxion.NewCollectSink()
	var items []proxion.Item
	tee := proxion.SinkFunc(func(it proxion.Item) {
		items = append(items, it)
		sink.Emit(it)
	})
	streamed := proxion.NewDetector(pop.Chain)
	streamed.AnalyzeStream(
		proxion.SliceSource(pop.Chain.Contracts()), pop.Registry, tee,
		proxion.AnalyzeOptions{Window: 16})
	got := sink.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed result diverges from batch")
	}
	for _, it := range items {
		analyzed := it.Report.IsProxy && !it.Report.Logic.IsZero() && !it.Report.Unresolved
		if analyzed && it.Pair == nil {
			t.Fatalf("proxy item %d emitted without its pair", it.Index)
		}
		if !it.Report.IsProxy && it.Pair != nil {
			t.Fatalf("non-proxy item %d carries sub-analyses", it.Index)
		}
	}
	wantHist, _ := oracle.Histories(batch, want.Reports, pop.Registry)
	gotHist, _ := oracle.Histories(streamed, got.Reports, pop.Registry)
	if len(gotHist) == 0 || !reflect.DeepEqual(gotHist, wantHist) {
		t.Fatalf("streamed detector recovered %d histories, batch %d, or they differ", len(gotHist), len(wantHist))
	}
}

// TestAnalyzeStreamEmptySource: a source that is empty from the first
// pull completes cleanly with zero emissions, and is asked exactly once
// however many workers find it exhausted.
func TestAnalyzeStreamEmptySource(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 1, Contracts: 20})
	count, asked := 0, 0
	snap := proxion.NewDetector(pop.Chain).AnalyzeStream(
		proxion.SourceFunc(func() (etypes.Address, bool) {
			asked++
			return etypes.Address{}, false
		}), pop.Registry,
		proxion.SinkFunc(func(proxion.Item) { count++ }),
		proxion.AnalyzeOptions{Workers: 8})
	if count != 0 || snap.Contracts != 0 {
		t.Fatalf("empty source: emitted=%d scanned=%d, want 0/0", count, snap.Contracts)
	}
	if asked != 1 {
		t.Fatalf("source asked %d times after reporting end of stream, want 1", asked)
	}
}
