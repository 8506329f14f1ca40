package bench

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/faultchain"
	"repro/internal/proxion"
	"repro/internal/u256"
)

// The measurements bench/e2e does not take, as Go benchmarks:
//
//	go test -run '^$' -bench . ./internal/bench
//
// BenchmarkAnalyzeAllResilient is the streaming scan with every node read
// through the fault-free resilient client; its overhead is read against the
// root package's BenchmarkAnalyzeAll, the same scan over the chain itself.
// BenchmarkInterpLoop times the raw interpreter.

// resilientScale and loopIterations are the benchmarks' input sizes.
const (
	resilientScale = 1200
	loopIterations = 8_000
)

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

// countdownLoop assembles a tight countdown loop (10 opcodes per
// iteration: arithmetic, MSTORE, conditional jump) — a floor on raw
// interpreter speed that isolates the EVM from detection logic — and
// returns it with the number of instructions a run executes.
func countdownLoop(iterations int) (code []byte, steps uint64) {
	p := &asm.Program{}
	p.PushUint(uint64(iterations)) //         [n]
	p.Label("loop")                // JUMPDEST [n]
	p.Op(evm.DUP1)                 //          [n, n]
	p.PushUint(0)                  //          [n, n, 0]
	p.Op(evm.MSTORE)               // mem[0]=n [n]
	p.PushUint(1)                  //          [n, 1]
	p.Op(evm.SWAP1)                //          [1, n]
	p.Op(evm.SUB)                  //          [n-1]
	p.Op(evm.DUP1)                 //          [n-1, n-1]
	p.JumpI("loop")                // PUSH2+JUMPI [n-1]
	p.Op(evm.STOP)

	// 1 PUSH prologue, then per iteration: JUMPDEST, DUP1, PUSH1, MSTORE,
	// PUSH1, SWAP1, SUB, DUP1, PUSH2, JUMPI; the last iteration falls
	// through to STOP.
	return p.MustAssemble(), uint64(1 + 10*iterations + 1)
}

// dispatcherLoop assembles a dispatcher-shaped loop: each iteration walks a
// chain of 16 Solidity-style selector comparisons (DUP1; PUSH4 sel; EQ;
// PUSH2 dest; JUMPI) that all miss, then branches back through DUP1;
// PUSH2; JUMPI. This is the branch-dense profile real proxy fallbacks
// present to the detector's probes.
func dispatcherLoop(iterations int) (code []byte, steps uint64) {
	const arms = 16
	p := &asm.Program{}
	p.PushUint(uint64(iterations)) //               [n]
	p.Label("loop")                // JUMPDEST      [n]
	p.PushUint(0xdeadbeef)         //               [n, sel]
	for i := 0; i < arms; i++ {    //               (all compares miss)
		p.Op(evm.DUP1)
		p.PushBytes([]byte{0xaa, 0xbb, 0xcc, byte(i)}) // PUSH4
		p.Op(evm.EQ)
		p.JumpI("dead")
	}
	p.Op(evm.POP)   //                               [n]
	p.PushUint(1)   //                               [n, 1]
	p.Op(evm.SWAP1) //                               [1, n]
	p.Op(evm.SUB)   //                               [n-1]
	p.Op(evm.DUP1)  //                               [n-1, n-1]
	p.JumpI("loop") // PUSH2+JUMPI                   [n-1]
	p.Op(evm.STOP)
	p.Label("dead")
	p.Op(evm.INVALID)

	// 1 prologue push, then per iteration: JUMPDEST, PUSH4 const, 5 source
	// instructions per arm, POP, PUSH1, SWAP1, SUB, DUP1, PUSH2, JUMPI; the
	// last iteration falls through to STOP.
	return p.MustAssemble(), uint64(1 + (2+5*arms+7)*iterations + 1)
}

// loopCall installs code in a fresh state and returns a call of it: one
// fresh EVM under mode per call, with at most stepLimit instructions.
func loopCall(mode evm.InterpMode, code []byte, stepLimit uint64) func() error {
	st := chain.New()
	st.AdvanceTo(1)
	var addr, caller etypes.Address
	addr[19], caller[19] = 0xeb, 0xca
	st.InstallContract(addr, code)
	return func() error {
		e := evm.New(st, evm.Config{
			Block:     evm.DefaultBlockContext(),
			Tx:        evm.TxContext{Origin: caller},
			Lenient:   true,
			StepLimit: stepLimit,
			Interp:    mode,
		})
		return e.Call(caller, addr, nil, 1<<30, u256.Zero()).Err
	}
}

// benchLoop times one loop under one interpreter, in executed steps a second.
func benchLoop(b *testing.B, mode evm.InterpMode, code []byte, steps uint64) {
	call := loopCall(mode, code, steps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkInterpLoop times the countdown loop under the pre-decoded fast
// path and the retained reference loop, whose ratio is the fast path's
// uplift, and the dispatcher loop under the fast path.
func BenchmarkInterpLoop(b *testing.B) {
	code, steps := countdownLoop(loopIterations)
	b.Run("fast", func(b *testing.B) { benchLoop(b, evm.InterpFast, code, steps) })
	b.Run("reference", func(b *testing.B) { benchLoop(b, evm.InterpReference, code, steps) })
	dispatch, dispatchSteps := dispatcherLoop(loopIterations / 4)
	b.Run("dispatcher", func(b *testing.B) { benchLoop(b, evm.InterpFast, dispatch, dispatchSteps) })
}

// TestEVMLoopStepAccounting pins each loop's derived step count against the
// interpreters: a call completes within exactly that many steps, and one
// step fewer stops it at the step limit — so a loop that aborted early
// cannot pass for a fast one.
func TestEVMLoopStepAccounting(t *testing.T) {
	loop, loopSteps := countdownLoop(100)
	if loopSteps != 1+10*100+1 {
		t.Errorf("countdown steps = %d, want %d", loopSteps, 1+10*100+1)
	}
	dispatch, dispatchSteps := dispatcherLoop(100)
	if want := uint64(1 + (2+5*16+7)*100 + 1); dispatchSteps != want {
		t.Errorf("dispatcher steps = %d, want %d", dispatchSteps, want)
	}
	for _, c := range []struct {
		name  string
		mode  evm.InterpMode
		code  []byte
		steps uint64
	}{
		{"countdown/fast", evm.InterpFast, loop, loopSteps},
		{"countdown/reference", evm.InterpReference, loop, loopSteps},
		{"dispatcher/fast", evm.InterpFast, dispatch, dispatchSteps},
		{"dispatcher/reference", evm.InterpReference, dispatch, dispatchSteps},
	} {
		if err := loopCall(c.mode, c.code, c.steps)(); err != nil {
			t.Errorf("%s: call within %d steps failed: %v", c.name, c.steps, err)
		}
		if err := loopCall(c.mode, c.code, c.steps-1)(); !errors.Is(err, evm.ErrStepLimit) {
			t.Errorf("%s: call within %d steps ended with %v, want the step limit", c.name, c.steps-1, err)
		}
	}
}

// TestWorkloadCounterDeterminism: two independent set-ups of each measured
// operation with the same seed report identical deterministic outputs — a
// scan's counters on a concurrent engine under any scheduling, over the
// chain itself and through the resilient client, and each loop's step
// count and code size once it has run to its end.
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
	loop := func(build func(int) ([]byte, uint64), mode evm.InterpMode) func() map[string]int64 {
		return func() map[string]int64 {
			code, steps := build(500)
			if err := loopCall(mode, code, steps)(); err != nil {
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
		{"evm_interp-loop", loop(countdownLoop, evm.InterpFast)},
		{"evm_interp-reference", loop(countdownLoop, evm.InterpReference)},
		{"evm_interp-dispatcher", loop(dispatcherLoop, evm.InterpFast)},
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
