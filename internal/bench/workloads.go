package bench

import (
	"runtime"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/faultchain"
	"repro/internal/proxion"
	"repro/internal/u256"
)

// Instance is one set-up workload, ready to measure.
type Instance struct {
	// Op runs the workload once. Every call must redo the full measured
	// work (e.g. a fresh detector per call, so no verdict cache survives
	// between ops).
	Op func()
	// Counters reports the deterministic outputs of the most recent Op
	// call: equal (seed, scale) must yield equal maps on any machine and
	// any scheduling. Nil when the workload has no counters.
	Counters func() map[string]int64
}

// Workload is one named, seeded, fixed-scale measurement.
type Workload struct {
	Name string
	// Desc is a one-line description for -list output and reports.
	Desc string
	// Scale is the workload's input-size knob (contracts, loop iterations).
	Scale int
	// Batch is how many ops each timing sample aggregates; >1 smooths
	// microsecond-scale workloads.
	Batch int
	// Setup builds the instance: generates corpora, compiles bytecode,
	// allocates state. Setup time is never measured.
	Setup func(seed int64, scale int) Instance
}

// Suite returns the workload catalogue: only what bench/e2e does not
// measure on the same code path — the resilient client's fault-free
// overhead (stream-resilient against stream-maxw, with every node read
// through faultchain) and the raw interpreter loops.
func Suite() []Workload {
	const pipeline, evmLoop = 1200, 8_000
	return []Workload{
		{
			Name:  "pipeline/stream-maxw",
			Desc:  "end-to-end streaming engine at the production default, one worker per processor",
			Scale: pipeline,
			Batch: 1,
			Setup: setupPipeline(false),
		},
		{
			Name:  "pipeline/stream-resilient",
			Desc:  "stream-maxw with every node read through the fault-free resilient client (overhead check)",
			Scale: pipeline,
			Batch: 1,
			Setup: setupPipeline(true),
		},
		{
			Name:  "evm/interp-loop",
			Desc:  "raw EVM interpretation of an arithmetic/MSTORE loop (ops/sec floor)",
			Scale: evmLoop,
			Batch: 4,
			Setup: setupEVMLoop(evm.InterpFast),
		},
		{
			Name:  "evm/interp-reference",
			Desc:  "the same loop under the retained reference interpreter (fast-path ablation)",
			Scale: evmLoop,
			Batch: 4,
			Setup: setupEVMLoop(evm.InterpReference),
		},
		{
			Name:  "evm/interp-fused",
			Desc:  "selector-dispatcher chain exercising the fused superinstructions (dispatch, dup-branch)",
			Scale: evmLoop / 4,
			Batch: 4,
			Setup: setupEVMFused,
		},
	}
}

// setupPipeline runs the whole-landscape streaming analysis
// (AnalyzeAllWithOptions at the engine defaults) over a dataset landscape —
// the clone-heavy population whose duplicate skew the dedup cache feeds on.
// resilient routes every node read through the faultchain client with no
// fault injector, measuring the resilience layer's fault-free overhead.
// Counters come from the pipeline's deterministic snapshot export.
func setupPipeline(resilient bool) func(seed int64, scale int) Instance {
	return func(seed int64, scale int) Instance {
		pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: scale})
		var reader chain.Reader = pop.Chain
		if resilient {
			client, _ := faultchain.NewResilientReader(pop.Chain, nil, faultchain.Options{})
			reader = client
		}
		var last map[string]int64
		return Instance{
			Op: func() {
				det := proxion.NewDetector(reader)
				res := det.AnalyzeAllWithOptions(pop.Registry, proxion.AnalyzeOptions{})
				last = res.Stats.Counters()
			},
			Counters: func() map[string]int64 { return last },
		}
	}
}

// setupEVMLoop interprets a tight countdown loop (10 opcodes per
// iteration: arithmetic, MSTORE, conditional jump) — a floor on raw
// interpreter speed that isolates the EVM from detection logic. The step
// count is derived from the loop structure, so it is deterministic by
// construction; a tracer is deliberately not installed, keeping the timing
// free of per-step callback overhead. The interpreter mode is a parameter:
// interp-loop measures the pre-decoded fast path, interp-reference the
// retained byte-at-a-time loop, and their ratio is the fast path's uplift.
func setupEVMLoop(mode evm.InterpMode) func(seed int64, scale int) Instance {
	return func(seed int64, scale int) Instance {
		p := &asm.Program{}
		p.PushUint(uint64(scale)) //                 [n]
		p.Label("loop")           // JUMPDEST        [n]
		p.Op(evm.DUP1)            //                 [n, n]
		p.PushUint(0)             //                 [n, n, 0]
		p.Op(evm.MSTORE)          // mem[0] = n      [n]
		p.PushUint(1)             //                 [n, 1]
		p.Op(evm.SWAP1)           //                 [1, n]
		p.Op(evm.SUB)             //                 [n-1]
		p.Op(evm.DUP1)            //                 [n-1, n-1]
		p.JumpI("loop")           // PUSH2+JUMPI     [n-1]
		p.Op(evm.STOP)
		code := p.MustAssemble()

		// 1 PUSH prologue, then per iteration: JUMPDEST, DUP1, PUSH1, MSTORE,
		// PUSH1, SWAP1, SUB, DUP1, PUSH2, JUMPI; the last iteration falls
		// through to STOP.
		steps := int64(1 + 10*scale + 1)
		return evmCallInstance(mode, code, nil, steps, map[string]int64{
			"evm_steps":       steps,
			"loop_iterations": int64(scale),
		})
	}
}

// setupEVMFused interprets a dispatcher-shaped loop: each iteration walks a
// chain of 16 Solidity-style selector comparisons (DUP1; PUSH4 sel; EQ;
// PUSH2 dest; JUMPI — the fast path fuses the latter four into one
// kindDispatch superinstruction) that all miss, then branches back through
// a fused DUP1; PUSH2; JUMPI. This is the superinstruction-dense profile
// real proxy fallbacks present to the detector's probes.
func setupEVMFused(seed int64, scale int) Instance {
	const arms = 16
	p := &asm.Program{}
	p.PushUint(uint64(scale))   //                  [n]
	p.Label("loop")             // JUMPDEST         [n]
	p.PushUint(0xdeadbeef)      //                  [n, sel]
	for i := 0; i < arms; i++ { //                  (all compares miss)
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
	p.JumpI("loop") // fused DUP1+PUSH2+JUMPI        [n-1]
	p.Op(evm.STOP)
	p.Label("dead")
	p.Op(evm.INVALID)
	code := p.MustAssemble()

	// 1 prologue push, then per iteration: JUMPDEST, PUSH4 const, 5 source
	// instructions per arm, POP, PUSH1, SWAP1, SUB, DUP1, PUSH2, JUMPI; the
	// last iteration falls through to STOP.
	steps := int64(1 + (2+5*arms+7)*scale + 1)
	return evmCallInstance(evm.InterpFast, code, nil, steps, map[string]int64{
		"evm_steps":       steps,
		"dispatch_arms":   arms,
		"loop_iterations": int64(scale),
	})
}

// evmCallInstance builds the shared Instance shape of the raw-interpreter
// workloads: one Call per op against a fixed contract, counters reporting
// the structurally-derived step count (or -1 if the run errored, so a
// broken loop surfaces as counter drift instead of a fast timing).
func evmCallInstance(mode evm.InterpMode, code, input []byte, steps int64, counters map[string]int64) Instance {
	st := chain.New()
	st.AdvanceTo(1)
	var addr etypes.Address
	addr[19] = 0xeb
	st.InstallContract(addr, code)
	var caller etypes.Address
	caller[19] = 0xca

	var lastErr error
	return Instance{
		Op: func() {
			e := evm.New(st, evm.Config{
				Block:     evm.DefaultBlockContext(),
				Tx:        evm.TxContext{Origin: caller},
				Lenient:   true,
				StepLimit: uint64(steps) + 16,
				Interp:    mode,
			})
			res := e.Call(caller, addr, input, 1<<30, u256.Zero())
			lastErr = res.Err
		},
		Counters: func() map[string]int64 {
			if lastErr != nil {
				// Surface a broken loop as an impossible counter value
				// rather than silently benchmarking an early abort.
				return map[string]int64{"evm_steps": -1}
			}
			return counters
		},
	}
}

// HostInfo captures the measuring environment.
func HostInfo() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
