package evm_test

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/u256"
)

// FuzzInterpParity is the differential fuzz target: arbitrary bytecode and
// call data executed under both interpreters with the structlog traces,
// outcomes, and state-mutation sequences held in lockstep. Seeded from the
// generator corpus (real proxy shapes plus the detector's crafted probes)
// and a handful of hand-written edge programs. Registered in `make fuzz`.
func FuzzInterpParity(f *testing.F) {
	f.Add([]byte{0x00}, []byte{}, uint64(100_000))
	f.Add([]byte{0x5b, 0x60, 0x00, 0x56}, []byte{}, uint64(50_000)) // jumpdest push0 jump loop
	// Selector dispatcher: PUSH4 sel; EQ; PUSH1 dest; JUMPI.
	f.Add([]byte{
		0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c,
		0x63, 0xaa, 0xbb, 0xcc, 0xdd, 0x14, 0x60, 0x11, 0x57,
		0x60, 0x00, 0x5b, 0x00,
	}, []byte{0xaa, 0xbb, 0xcc, 0xdd}, uint64(200_000))
	f.Add([]byte{0x36, 0x3d, 0x3d, 0x37, 0xf4}, []byte{1, 2, 3, 4}, uint64(300_000)) // probe shape
	f.Add([]byte{0x7f, 0x01}, []byte{}, uint64(10_000))                              // truncated push32
	f.Add([]byte{0x90, 0x50}, []byte{}, uint64(10_000))                              // swap1 pop underflow
	f.Add([]byte{0x60, 0x01, 0x80, 0x60, 0x08, 0x57, 0xfe, 0x00, 0x5b, 0x00},
		[]byte{}, uint64(10_000)) // dup1 push jumpi

	c := gen.Generate(gen.Config{Seed: 1, Contracts: 12})
	for _, l := range c.Labels {
		f.Add(l.Code, proxion.CraftCallData(l.Address, l.Code), uint64(500_000))
	}

	f.Fuzz(func(t *testing.T, code, input []byte, gas uint64) {
		if len(code) > 24576 {
			code = code[:24576]
		}
		st := chain.New()
		st.AdvanceTo(1)
		st.InstallContract(testTarget, code)
		spec := paritySpec{
			Caller:    testCaller,
			To:        testTarget,
			Input:     input,
			Gas:       gas % 2_000_000,
			Value:     u256.Zero(),
			Block:     evm.DefaultBlockContext(),
			StepLimit: 8_192, // keeps pathological loops cheap per execution
			Lenient:   true,
		}
		if ms := checkParity(st, spec); len(ms) > 0 {
			for _, m := range ms {
				t.Errorf("%s", m)
			}
			t.Fatalf("interpreter divergence on code %x input %x gas %d",
				code, input, gas%2_000_000)
		}
	})
}

// FuzzHaltParity is FuzzInterpParity with a tracer that halts the run at
// its k-th frame: arbitrary bytecode installed beside a fixed call chain
// (haltChain) it can DELEGATECALL or CALL into, both interpreters held in
// lockstep and each against its own full run (checkHaltParity). Registered in
// `make fuzz`.
func FuzzHaltParity(f *testing.F) {
	f.Add(forwardingProxy(), []byte{0xab, 0xcd, 0xef, 0x01}, uint64(1_000_000), uint8(2))
	f.Add(forwardingProxy(), []byte{}, uint64(1_000_000), uint8(4))
	f.Add(forwardingProxy(), []byte{1}, uint64(40_000), uint8(3)) // runs out of gas near the halt
	f.Add([]byte{0x00}, []byte{}, uint64(100_000), uint8(1))
	f.Add([]byte{0x36, 0x3d, 0x3d, 0x37, 0xf4}, []byte{1, 2, 3, 4}, uint64(300_000), uint8(2))
	c := gen.Generate(gen.Config{Seed: 2, Contracts: 12})
	for i, l := range c.Labels {
		f.Add(l.Code, proxion.CraftCallData(l.Address, l.Code), uint64(500_000), uint8(1+i%3))
	}

	f.Fuzz(func(t *testing.T, code, input []byte, gas uint64, k uint8) {
		if len(code) > 24576 {
			code = code[:24576]
		}
		spec := haltSpec(input, gas%2_000_000)
		spec.StepLimit = 8_192
		if ms := checkHaltParity(haltChain(code), spec, 1+int(k%6)); len(ms) > 0 {
			for _, m := range ms {
				t.Errorf("%s", m)
			}
			t.Fatalf("halted runs diverge on code %x input %x gas %d frame %d",
				code, input, gas%2_000_000, 1+int(k%6))
		}
	})
}
