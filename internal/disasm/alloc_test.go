package disasm_test

import (
	"reflect"
	"testing"

	"repro/internal/disasm"
	"repro/internal/evm"
	"repro/internal/solc"
	"repro/internal/u256"
)

// sampleCode is a compiled storage proxy: dispatcher, PUSH32 slot constant,
// jumps and a metadata-free tail — every instruction shape the decoders see.
func sampleCode() []byte {
	return solc.MustCompile(&solc.Contract{
		Name:     "Proxy",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: u256.FromUint64(7).Bytes32()},
	})
}

// TestDisassembleAllocations pins the decoder's allocation shape: one slice
// sized by a counting pre-pass, immediates as views of the code — plus one
// copy for a PUSH cut short by the end of code, which must stay
// zero-padded — and nothing at all for empty code.
func TestDisassembleAllocations(t *testing.T) {
	code := sampleCode()
	if got := testing.AllocsPerRun(50, func() { disasm.Disassemble(code) }); got > 1 {
		t.Errorf("Disassemble of %d bytes: %v allocs/run, want 1", len(code), got)
	}
	for _, ins := range disasm.Disassemble(code) {
		if n := ins.Op.PushSize(); n > 0 {
			if len(ins.Imm) != n || cap(ins.Imm) != n || &ins.Imm[0] != &code[ins.PC+1] {
				t.Fatalf("%s: immediate is not a capacity-limited view of the code", ins)
			}
		} else if ins.Imm != nil {
			t.Fatalf("%s: non-PUSH carries an immediate", ins)
		}
	}

	truncated := []byte{byte(evm.PUSH1), 0x01, byte(evm.PUSH32), 0xaa, 0xbb}
	if got := testing.AllocsPerRun(50, func() { disasm.Disassemble(truncated) }); got > 2 {
		t.Errorf("Disassemble with a truncated PUSH: %v allocs/run, want 2", got)
	}
	last := disasm.Disassemble(truncated)[1]
	want := make([]byte, 32)
	want[0], want[1] = 0xaa, 0xbb
	if !reflect.DeepEqual(last.Imm, want) {
		t.Errorf("truncated PUSH32 immediate = %x, want zero-padded %x", last.Imm, want)
	}
	// A PUSH that is the very last byte has nothing to view at all.
	if ins := disasm.Disassemble([]byte{byte(evm.PUSH2)}); len(ins) != 1 || !reflect.DeepEqual(ins[0].Imm, []byte{0, 0}) {
		t.Errorf("bare trailing PUSH2 decoded as %v", ins)
	}

	if got := testing.AllocsPerRun(50, func() { disasm.Disassemble(nil) }); got != 0 {
		t.Errorf("Disassemble(nil): %v allocs/run, want 0", got)
	}
	if ins := disasm.Disassemble(nil); len(ins) != 0 {
		t.Errorf("Disassemble(nil) = %v", ins)
	}
}

// referenceBlocks is the partition BasicBlocks used to build by appending
// every instruction to a per-block slice; the windowed form must agree with
// it on every boundary and Start.
func referenceBlocks(code []byte) []disasm.BasicBlock {
	var blocks []disasm.BasicBlock
	var cur disasm.BasicBlock
	flush := func(nextStart uint64) {
		if len(cur.Instrs) > 0 {
			blocks = append(blocks, cur)
		}
		cur = disasm.BasicBlock{Start: nextStart}
	}
	for _, ins := range disasm.Disassemble(code) {
		if ins.Op == evm.JUMPDEST && len(cur.Instrs) > 0 {
			flush(ins.PC)
		}
		cur.Instrs = append(cur.Instrs, ins)
		switch ins.Op {
		case evm.JUMP, evm.JUMPI, evm.STOP, evm.RETURN, evm.REVERT, evm.INVALID, evm.SELFDESTRUCT:
			flush(ins.PC + 1)
		}
	}
	flush(0)
	return blocks
}

// TestBasicBlocksAreWindowsOfOneDisassembly: two allocations (the
// disassembly and the block list) whatever the block count, and the same
// partition as the appending reference, edge shapes included.
func TestBasicBlocksAreWindowsOfOneDisassembly(t *testing.T) {
	code := sampleCode()
	if got := testing.AllocsPerRun(50, func() { disasm.BasicBlocks(code) }); got > 2 {
		t.Errorf("BasicBlocks of %d bytes: %v allocs/run, want 2", len(code), got)
	}
	jd, stop, jump := byte(evm.JUMPDEST), byte(evm.STOP), byte(evm.JUMP)
	for name, c := range map[string][]byte{
		"compiled":              code,
		"empty":                 nil,
		"single":                {stop},
		"jumpdests-only":        {jd, jd, jd},
		"terminator-then-dest":  {byte(evm.PUSH1), 4, jump, stop, jd, stop},
		"terminator-last":       {jd, byte(evm.PUSH1), 0, jump},
		"truncated-push-last":   {jd, stop, byte(evm.PUSH4), 0xaa},
		"dest-inside-push-data": {byte(evm.PUSH2), jd, stop, jd, stop},
	} {
		got, want := disasm.BasicBlocks(c), referenceBlocks(c)
		if len(got) != len(want) {
			t.Errorf("%s: %d blocks, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].Start != want[i].Start || !reflect.DeepEqual(got[i].Instrs, want[i].Instrs) {
				t.Errorf("%s: block %d = {start %d, %v}, want {start %d, %v}",
					name, i, got[i].Start, got[i].Instrs, want[i].Start, want[i].Instrs)
			}
			if cap(got[i].Instrs) != len(got[i].Instrs) {
				t.Errorf("%s: block %d can be appended into its successor", name, i)
			}
		}
	}
	if got := testing.AllocsPerRun(50, func() { disasm.BasicBlocks(nil) }); got != 0 {
		t.Errorf("BasicBlocks(nil): %v allocs/run, want 0", got)
	}
}
