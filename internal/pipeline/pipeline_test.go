package pipeline_test

import (
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestEngineStageAddFromManyWorkers folds per-worker accumulations into one stage
// from many goroutines at once — the shape of the analysis engine's worker
// exit — and checks nothing is lost. Under -race it also pins that Add
// needs no caller-side locking.
func TestEngineStageAddFromManyWorkers(t *testing.T) {
	const workers, perWorker = 16, 250
	e := pipeline.New()
	s := e.NewStage("work", workers)
	for w := 0; w < workers; w++ {
		e.Go(func() {
			var items int64
			var busy time.Duration
			for i := 0; i < perWorker; i++ {
				items++
				busy += time.Microsecond
			}
			s.Add(items, busy)
		})
	}
	e.Wait()
	snap := e.Snapshot(new(pipeline.Stats))
	if got := snap.Stages[0].Processed; got != workers*perWorker {
		t.Fatalf("stage processed %d, want %d", got, workers*perWorker)
	}
	if want := float64(workers*perWorker) / 1000; snap.Stages[0].BusyMS != want {
		t.Errorf("busy = %v ms, want %v", snap.Stages[0].BusyMS, want)
	}
}

// TestSnapshotCounters checks the derived snapshot fields.
func TestSnapshotCounters(t *testing.T) {
	e := pipeline.New()
	s := e.NewStage("work", 2)
	var st pipeline.Stats

	for w := 0; w < 2; w++ {
		w := w
		e.Go(func() {
			for i := w; i < 10; i += 2 {
				st.Scanned.Add(1)
				if i%2 == 0 {
					st.CacheHits.Add(1)
				} else {
					st.Emulations.Add(1)
				}
				s.Add(1, time.Microsecond)
			}
		})
	}
	e.Wait()

	snap := e.Snapshot(&st)
	if snap.Contracts != 10 {
		t.Errorf("contracts = %d, want 10", snap.Contracts)
	}
	if snap.CacheHits != 5 || snap.Emulations != 5 {
		t.Errorf("hits/emulations = %d/%d, want 5/5", snap.CacheHits, snap.Emulations)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.CacheHitRate)
	}
	if snap.ContractsPerSec <= 0 {
		t.Errorf("contracts/s = %v, want > 0", snap.ContractsPerSec)
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Processed != 10 {
		t.Errorf("stage snapshot = %+v", snap.Stages)
	}
	if snap.Stages[0].Workers != 2 || snap.Stages[0].Name != "work" {
		t.Errorf("stage meta = %+v", snap.Stages[0])
	}
}

// TestZeroWorkersClamped ensures a degenerate worker count is reported as 1.
func TestZeroWorkersClamped(t *testing.T) {
	e := pipeline.New()
	e.NewStage("solo", 0)
	if got := e.Snapshot(new(pipeline.Stats)).Stages[0].Workers; got != 1 {
		t.Fatalf("workers = %d, want clamped to 1", got)
	}
}
