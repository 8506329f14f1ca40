package evm_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/evm"
	"repro/internal/u256"
)

// copyEdge is one hand-written program at an edge of the copy opcodes'
// semantics, with the call data it runs on.
type copyEdge struct {
	name        string
	code, input []byte
}

// above64Bytes pushes 2^64, a source offset no uint64 holds.
var above64Bytes = []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}

// copyEdges returns programs that drive CALLDATALOAD and every *COPY opcode
// across the end of its source: an offset past the end, a read straddling
// it, size 0, a source offset of 2^64 or more, a destination that grows
// memory over bytes already written, and RETURNDATACOPY beyond the return
// data. Each returns its first 160 bytes of memory, so the bytes the copy
// left are compared as well as the trace.
func copyEdges() []copyEdge {
	input := make([]byte, 40)
	for i := range input {
		input[i] = byte(0xa0 + i)
	}
	// dirty fills memory words 0..4 with 0xff bytes, so a copy that leaves
	// its zero-padding unwritten shows in the output.
	dirty := func() *asm.Program {
		p := &asm.Program{}
		for off := uint64(0); off < 160; off += 32 {
			p.PushBytes(bytes.Repeat([]byte{0xff}, 32)).PushUint(off).Op(evm.MSTORE)
		}
		return p
	}
	ret := func(p *asm.Program) []byte {
		return p.PushUint(160).PushUint(0).Op(evm.RETURN).MustAssemble()
	}
	// copyOp pushes size, source offset and destination, then op.
	copyOp := func(p *asm.Program, op evm.Op, dst, size uint64, src func(*asm.Program)) *asm.Program {
		p.PushUint(size)
		src(p)
		return p.PushUint(dst).Op(op)
	}
	// extcodecopy copies from the address p leaves on the stack.
	extcodecopy := func(p *asm.Program, dst, size, src uint64) *asm.Program {
		return p.PushUint(size).PushUint(src).PushUint(dst).Op(evm.DUP1+3, evm.EXTCODECOPY, evm.POP)
	}
	at := func(off uint64) func(*asm.Program) {
		return func(p *asm.Program) { p.PushUint(off) }
	}
	huge := func(p *asm.Program) { p.PushBytes(above64Bytes) }
	load := func(src func(*asm.Program)) []byte {
		p := dirty()
		src(p)
		return ret(p.Op(evm.CALLDATALOAD).PushUint(0).Op(evm.MSTORE))
	}
	// identityCall leaves 4 bytes of return data: the first 4 bytes of
	// memory echoed by the identity precompile.
	identityCall := func(p *asm.Program) *asm.Program {
		return p.PushUint(0).PushUint(0).PushUint(4).PushUint(0).PushUint(4).
			Op(evm.GAS, evm.STATICCALL, evm.POP)
	}

	return []copyEdge{
		{"calldataload-past-end", load(at(100)), input},
		{"calldataload-at-end", load(at(40)), input},
		{"calldataload-straddle", load(at(20)), input},
		{"calldataload-huge-offset", load(huge), input},
		{"calldataload-empty-input", load(at(0)), nil},
		{"calldatacopy-past-end", ret(copyOp(dirty(), evm.CALLDATACOPY, 0, 64, at(100))), input},
		{"calldatacopy-straddle", ret(copyOp(dirty(), evm.CALLDATACOPY, 16, 64, at(20))), input},
		{"calldatacopy-size-zero", ret(copyOp(dirty(), evm.CALLDATACOPY, 8, 0, at(4))), input},
		{"calldatacopy-size-zero-huge-src", ret(copyOp(dirty(), evm.CALLDATACOPY, 8, 0, huge)), input},
		{"calldatacopy-huge-src", ret(copyOp(dirty(), evm.CALLDATACOPY, 7, 50, huge)), input},
		{"calldatacopy-grows-memory", ret(copyOp(dirty(), evm.CALLDATACOPY, 150, 100, at(3))), input},
		{"calldatacopy-grows-fresh", ret(copyOp(&asm.Program{}, evm.CALLDATACOPY, 33, 90, at(0))), input},
		{"codecopy-straddle", ret(copyOp(dirty(), evm.CODECOPY, 1, 120, at(200))), nil},
		{"codecopy-past-end", ret(copyOp(dirty(), evm.CODECOPY, 0, 96, at(100_000))), nil},
		{"codecopy-huge-src", ret(copyOp(dirty(), evm.CODECOPY, 0, 32, huge)), nil},
		{"extcodecopy-self-straddle", ret(extcodecopy(dirty().Op(evm.ADDRESS), 5, 100, 150)), nil},
		{"extcodecopy-no-code", ret(extcodecopy(dirty().PushUint(0xdead), 0, 64, 0)), nil},
		{"returndatacopy-none", ret(copyOp(dirty(), evm.RETURNDATACOPY, 0, 32, at(0))), nil},
		{"returndatacopy-straddle", ret(copyOp(identityCall(dirty()), evm.RETURNDATACOPY, 3, 40, at(2))), nil},
		{"returndatacopy-past-end", ret(copyOp(identityCall(dirty()), evm.RETURNDATACOPY, 0, 8, at(9))), nil},
		{"returndatacopy-huge-src", ret(copyOp(identityCall(dirty()), evm.RETURNDATACOPY, 0, 8, huge)), nil},
	}
}

// TestParityCopyEdges holds the two loops together on the copy edges: the
// shipped copy opcodes write into memory in place, the reference loop
// copies a zero-padded temporary, and every byte they leave must agree.
func TestParityCopyEdges(t *testing.T) {
	for _, c := range copyEdges() {
		t.Run(c.name, func(t *testing.T) {
			checkCode(t, c.code, c.input, 1_000_000)
		})
	}
}

// copyLoop assembles n rounds of CALLDATALOAD, CALLDATACOPY and CODECOPY,
// each reading past the end of its source into the same memory words.
func copyLoop(n int) []byte {
	p := &asm.Program{}
	for i := 0; i < n; i++ {
		p.PushUint(20).Op(evm.CALLDATALOAD, evm.POP)
		p.PushUint(64).PushUint(8).PushUint(0).Op(evm.CALLDATACOPY)
		p.PushUint(64).PushUint(3).PushUint(32).Op(evm.CODECOPY)
	}
	return p.Op(evm.STOP).MustAssemble()
}

// TestCopyOpcodesAllocateNothing: the copy opcodes write into memory in
// place, so a call running twice as many of them allocates as often as
// one running half as many. (A -race build's sync.Pool drops a share of
// the pooled frames, so there the counts are not compared.)
func TestCopyOpcodesAllocateNothing(t *testing.T) {
	input := make([]byte, 40)
	allocs := func(n int) float64 {
		st := chain.New()
		st.AdvanceTo(1)
		st.InstallContract(testTarget, copyLoop(n))
		return testing.AllocsPerRun(50, func() {
			e := evm.New(st, evm.Config{Block: evm.DefaultBlockContext()})
			if res := e.Call(testCaller, testTarget, input, 1_000_000, u256.Zero()); res.Err != nil {
				t.Fatalf("copy loop of %d rounds: %v", n, res.Err)
			}
		})
	}
	if a, b := allocs(64), allocs(128); a != b && !raceEnabled {
		t.Errorf("64 copy rounds: %v allocs/run, 128 rounds: %v; want equal", a, b)
	}
}
