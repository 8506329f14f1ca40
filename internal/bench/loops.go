package bench

import (
	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// The interpreter loops the Go benchmarks time: internal/evm's
// BenchmarkInterpLoop runs them on the shipped loop and on the reference
// loop kept in that package's tests, and this package's tests pin their
// step counts on the shipped loop.

// CountdownLoop assembles a tight countdown loop (10 opcodes per
// iteration: arithmetic, MSTORE, conditional jump) — a floor on raw
// interpreter speed that isolates the EVM from detection logic — and
// returns it with the number of instructions a run executes.
func CountdownLoop(iterations int) (code []byte, steps uint64) {
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

// DispatcherLoop assembles a dispatcher-shaped loop: each iteration walks a
// chain of 16 Solidity-style selector comparisons (DUP1; PUSH4 sel; EQ;
// PUSH2 dest; JUMPI) that all miss, then branches back through DUP1;
// PUSH2; JUMPI. This is the branch-dense profile real proxy fallbacks
// present to the detector's probes.
func DispatcherLoop(iterations int) (code []byte, steps uint64) {
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

// LoopCall installs code in a fresh state and returns a call of it: one
// fresh EVM from build (evm.New for the shipped loop) per call, with at
// most stepLimit instructions.
func LoopCall(build func(evm.StateDB, evm.Config) *evm.EVM, code []byte, stepLimit uint64) func() error {
	st := chain.New()
	st.AdvanceTo(1)
	var addr, caller etypes.Address
	addr[19], caller[19] = 0xeb, 0xca
	st.InstallContract(addr, code)
	return func() error {
		e := build(st, evm.Config{
			Block:     evm.DefaultBlockContext(),
			Tx:        evm.TxContext{Origin: caller},
			Lenient:   true,
			StepLimit: stepLimit,
		})
		return e.Call(caller, addr, nil, 1<<30, u256.Zero()).Err
	}
}
