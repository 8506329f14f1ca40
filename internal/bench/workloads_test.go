package bench

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/evm"
	"repro/internal/faultchain"
	"repro/internal/proxion"
)

// The measurements bench/e2e does not take, as Go benchmarks:
//
//	go test -run '^$' -bench . ./internal/bench
//
// BenchmarkAnalyzeAllResilient is the streaming scan with every node read
// through the fault-free resilient client; its overhead is read against the
// root package's BenchmarkAnalyzeAll, the same scan over the chain itself.
// The raw interpreter loops (loops.go) are timed in internal/evm
// (BenchmarkInterpLoop), beside the reference loop kept in its tests.

// resilientScale is the benchmark's input size.
const resilientScale = 1200

// scanCounters analyzes pop's landscape at the engine defaults through
// reader and returns the run's deterministic counters.
func scanCounters(pop *dataset.Population, reader chain.Reader) map[string]int64 {
	return proxion.NewDetector(reader).AnalyzeAll(pop.Registry).Stats.Counters()
}

func BenchmarkAnalyzeAllResilient(b *testing.B) {
	pop := dataset.Generate(dataset.Config{Seed: 1, Contracts: resilientScale})
	client, _ := faultchain.NewResilientReader(pop.Chain, nil, faultchain.Options{})
	var c map[string]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = scanCounters(pop, client)
	}
	b.StopTimer()
	b.ReportMetric(float64(c["contracts"])*float64(b.N)/b.Elapsed().Seconds(), "contracts/s")
	if lookups := c["cache_hits"] + c["emulations"]; lookups > 0 {
		b.ReportMetric(100*float64(c["cache_hits"])/float64(lookups), "%hit")
	}
}

// TestEVMLoopStepAccounting pins each loop's derived step count against the
// shipped interpreter: a call completes within exactly that many steps, and
// one step fewer stops it at the step limit — so a loop that aborted early
// cannot pass for a fast one. internal/evm's TestReferenceLoopStepAccounting
// does the same on the reference loop.
func TestEVMLoopStepAccounting(t *testing.T) {
	loop, loopSteps := CountdownLoop(100)
	if loopSteps != 1+10*100+1 {
		t.Errorf("countdown steps = %d, want %d", loopSteps, 1+10*100+1)
	}
	dispatch, dispatchSteps := DispatcherLoop(100)
	if want := uint64(1 + (2+5*16+7)*100 + 1); dispatchSteps != want {
		t.Errorf("dispatcher steps = %d, want %d", dispatchSteps, want)
	}
	for _, c := range []struct {
		name  string
		code  []byte
		steps uint64
	}{
		{"countdown", loop, loopSteps},
		{"dispatcher", dispatch, dispatchSteps},
	} {
		if err := LoopCall(evm.New, c.code, c.steps)(); err != nil {
			t.Errorf("%s: call within %d steps failed: %v", c.name, c.steps, err)
		}
		if err := LoopCall(evm.New, c.code, c.steps-1)(); !errors.Is(err, evm.ErrStepLimit) {
			t.Errorf("%s: call within %d steps ended with %v, want the step limit", c.name, c.steps-1, err)
		}
	}
}

// TestWorkloadCounterDeterminism: two independent set-ups of each measured
// operation with the same seed report identical deterministic outputs — a
// scan's counters on a concurrent engine under any scheduling, over the
// chain itself and through the resilient client, and each loop's step
// count and code size once it has run to its end on the shipped
// interpreter.
func TestWorkloadCounterDeterminism(t *testing.T) {
	scan := func(resilient bool) func() map[string]int64 {
		return func() map[string]int64 {
			pop := dataset.Generate(dataset.Config{Seed: 7, Contracts: 150})
			var reader chain.Reader = pop.Chain
			if resilient {
				reader, _ = faultchain.NewResilientReader(pop.Chain, nil, faultchain.Options{})
			}
			return scanCounters(pop, reader)
		}
	}
	loop := func(build func(int) ([]byte, uint64)) func() map[string]int64 {
		return func() map[string]int64 {
			code, steps := build(500)
			if err := LoopCall(evm.New, code, steps)(); err != nil {
				return map[string]int64{"evm_steps": -1}
			}
			return map[string]int64{"evm_steps": int64(steps), "code_bytes": int64(len(code))}
		}
	}
	for _, c := range []struct {
		name string
		run  func() map[string]int64
	}{
		{"pipeline_stream-maxw", scan(false)},
		{"pipeline_stream-resilient", scan(true)},
		{"evm_interp-loop", loop(CountdownLoop)},
		{"evm_interp-dispatcher", loop(DispatcherLoop)},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.run(), c.run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("counters differ across identical runs:\n  first:  %v\n  second: %v", a, b)
			}
			if a["contracts"] == 0 && a["evm_steps"] <= 0 {
				t.Errorf("nothing measured: %v", a)
			}
		})
	}
}
