package disasm_test

import (
	"reflect"
	"testing"
	"unsafe"

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

// TestDisassembleAllocations pins the decoder's memory shape: one slice
// sized by a counting pre-pass, of 16-byte records holding no pointer —
// nothing for the collector to scan, and no copy even for a PUSH cut short
// by the end of code — and nothing at all for empty code.
func TestDisassembleAllocations(t *testing.T) {
	if typ := reflect.TypeOf(disasm.Instruction{}); holdsPointer(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
	if size := unsafe.Sizeof(disasm.Instruction{}); size > 16 {
		t.Errorf("Instruction is %d bytes, want at most 16", size)
	}
	truncated := []byte{byte(evm.PUSH1), 0x01, byte(evm.PUSH32), 0xaa, 0xbb}
	for name, code := range map[string][]byte{"compiled": sampleCode(), "truncated": truncated} {
		if got := testing.AllocsPerRun(50, func() { disasm.Disassemble(code) }); got > 1 {
			t.Errorf("Disassemble %s (%d bytes): %v allocs/run, want 1", name, len(code), got)
		}
	}
	if got := testing.AllocsPerRun(50, func() { disasm.Disassemble(nil) }); got != 0 {
		t.Errorf("Disassemble(nil): %v allocs/run, want 0", got)
	}
	if ins := disasm.Disassemble(nil); len(ins) != 0 {
		t.Errorf("Disassemble(nil) = %v", ins)
	}
}

// holdsPointer reports whether a value of type t contains anything the
// garbage collector must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestImmAccessors: Imm of a whole immediate is a capacity-limited view of
// the code, of one cut short by the end of code a zero-padded copy, of any
// other op nil; Value is the same word, read without allocating.
func TestImmAccessors(t *testing.T) {
	code := sampleCode()
	instrs := disasm.Disassemble(code)
	for _, ins := range instrs {
		imm := ins.Imm(code)
		if n := ins.Op.PushSize(); n > 0 {
			if len(imm) != n || cap(imm) != n || &imm[0] != &code[ins.PC+1] {
				t.Fatalf("%s: immediate is not a capacity-limited view of the code", ins)
			}
		} else if imm != nil {
			t.Fatalf("%s: non-PUSH carries an immediate", ins)
		}
		if got, want := ins.Value(code), u256.FromBytes(imm); !got.Eq(want) {
			t.Fatalf("%s: Value = %s, want %s", ins, got.Hex(), want.Hex())
		}
	}
	if got := testing.AllocsPerRun(50, func() {
		for _, ins := range instrs {
			ins.Value(code)
		}
	}); got != 0 {
		t.Errorf("Value: %v allocs/run, want 0", got)
	}

	truncated := []byte{byte(evm.PUSH1), 0x01, byte(evm.PUSH32), 0xaa, 0xbb}
	last := disasm.Disassemble(truncated)[1]
	want := make([]byte, 32)
	want[0], want[1] = 0xaa, 0xbb
	if got := last.Imm(truncated); !reflect.DeepEqual(got, want) {
		t.Errorf("truncated PUSH32 immediate = %x, want zero-padded %x", got, want)
	}
	if got := last.Value(truncated); !got.Eq(u256.FromBytes(want)) {
		t.Errorf("truncated PUSH32 value = %s, want zero-padded %x", got.Hex(), want)
	}
	// A PUSH that is the very last byte has nothing to view at all.
	bare := []byte{byte(evm.PUSH2)}
	if ins := disasm.Disassemble(bare); len(ins) != 1 || !reflect.DeepEqual(ins[0].Imm(bare), []byte{0, 0}) || !ins[0].Value(bare).IsZero() {
		t.Errorf("bare trailing PUSH2 decoded as %v", ins)
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
		checkBlocks(t, name, c)
	}
	if got := testing.AllocsPerRun(50, func() { disasm.BasicBlocks(nil) }); got != 0 {
		t.Errorf("BasicBlocks(nil): %v allocs/run, want 0", got)
	}
}

// checkBlocks holds BasicBlocks(code) to the appending reference, block for
// block, and BlockEnd, from every instruction of a block, to the block's end.
func checkBlocks(t *testing.T, name string, code []byte) {
	t.Helper()
	got, want := disasm.BasicBlocks(code), referenceBlocks(code)
	if len(got) != len(want) {
		t.Errorf("%s: %d blocks, want %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if got[i].Start != want[i].Start || !reflect.DeepEqual(got[i].Instrs, want[i].Instrs) {
			t.Errorf("%s: block %d = {start %d, %v}, want {start %d, %v}",
				name, i, got[i].Start, got[i].Instrs, want[i].Start, want[i].Instrs)
		}
		if cap(got[i].Instrs) != len(got[i].Instrs) {
			t.Errorf("%s: block %d can be appended into its successor", name, i)
		}
		end := min(int(want[i].End()), len(code))
		for _, ins := range want[i].Instrs {
			if e := disasm.BlockEnd(code, int(ins.PC)); e != end {
				t.Errorf("%s: BlockEnd from %d = %d, block %d ends at %d", name, ins.PC, e, i, end)
			}
		}
	}
}
