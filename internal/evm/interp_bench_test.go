package evm_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/evm"
)

// The raw interpreter loops (internal/bench's CountdownLoop and
// DispatcherLoop), timed apart from any detection logic:
//
//	go test -run '^$' -bench Interp ./internal/evm

// loopIterations is the benchmark's countdown length.
const loopIterations = 8_000

// benchLoop times one loop under one interpreter, in executed steps a second.
func benchLoop(b *testing.B, build newEVM, code []byte, steps uint64) {
	call := bench.LoopCall(build, code, steps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkInterpLoop times the countdown loop on the shipped pre-decoded
// loop and on the reference loop kept in the package's tests, whose ratio
// is the pre-decoded loop's uplift, and the dispatcher loop on the shipped
// loop.
func BenchmarkInterpLoop(b *testing.B) {
	code, steps := bench.CountdownLoop(loopIterations)
	b.Run("fast", func(b *testing.B) { benchLoop(b, evm.New, code, steps) })
	b.Run("reference", func(b *testing.B) { benchLoop(b, evm.NewReference, code, steps) })
	dispatch, dispatchSteps := bench.DispatcherLoop(loopIterations / 4)
	b.Run("dispatcher", func(b *testing.B) { benchLoop(b, evm.New, dispatch, dispatchSteps) })
}

// TestReferenceLoopStepAccounting pins each loop's derived step count
// against the reference loop, as internal/bench's TestEVMLoopStepAccounting
// does against the shipped one: a call completes within exactly that many
// steps, and one step fewer stops it at the step limit.
func TestReferenceLoopStepAccounting(t *testing.T) {
	loop, loopSteps := bench.CountdownLoop(100)
	dispatch, dispatchSteps := bench.DispatcherLoop(100)
	for _, c := range []struct {
		name  string
		code  []byte
		steps uint64
	}{
		{"countdown", loop, loopSteps},
		{"dispatcher", dispatch, dispatchSteps},
	} {
		if err := bench.LoopCall(evm.NewReference, c.code, c.steps)(); err != nil {
			t.Errorf("%s: call within %d steps failed: %v", c.name, c.steps, err)
		}
		if err := bench.LoopCall(evm.NewReference, c.code, c.steps-1)(); !errors.Is(err, evm.ErrStepLimit) {
			t.Errorf("%s: call within %d steps ended with %v, want the step limit", c.name, c.steps-1, err)
		}
	}
}

// TestInterpLoopDeterminism: two independent set-ups of the timed
// countdown loop on the reference loop report the same step count and code
// size once it has run to its end (internal/bench's
// TestWorkloadCounterDeterminism has the shipped loop's rows).
func TestInterpLoopDeterminism(t *testing.T) {
	run := func() map[string]int64 {
		code, steps := bench.CountdownLoop(500)
		if err := bench.LoopCall(evm.NewReference, code, steps)(); err != nil {
			return map[string]int64{"evm_steps": -1}
		}
		return map[string]int64{"evm_steps": int64(steps), "code_bytes": int64(len(code))}
	}
	t.Run("evm_interp-reference", func(t *testing.T) {
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("counters differ across identical runs:\n  first:  %v\n  second: %v", a, b)
		}
		if a["evm_steps"] <= 0 {
			t.Errorf("nothing measured: %v", a)
		}
	})
}
