package disasm_test

import (
	"testing"

	"repro/internal/disasm"
	"repro/internal/evm"
)

// FuzzDisassemble: arbitrary byte blobs must disassemble without panicking,
// the instruction stream must cover the input exactly, and the blocks must
// partition it as the appending reference does.
func FuzzDisassemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x60})             // truncated PUSH1
	f.Add([]byte{0x7f, 0x01})       // truncated PUSH32
	f.Add([]byte{0xfe, 0xef, 0x5b}) // invalid + undefined + jumpdest
	f.Add([]byte{0x63, 0xde, 0xad, 0xbe, 0xef, 0x14, 0x61, 0x00, 0x10, 0x57})

	f.Fuzz(func(t *testing.T, code []byte) {
		instrs := disasm.Disassemble(code)
		pos := uint64(0)
		for _, ins := range instrs {
			if ins.PC != pos {
				t.Fatalf("instruction at PC %d, expected %d", ins.PC, pos)
			}
			pos += 1 + uint64(ins.Op.PushSize())
		}
		// The final instruction may carry a truncated (zero-padded)
		// immediate, so pos can exceed len(code), but never by more than
		// the max push width.
		if pos < uint64(len(code)) || pos > uint64(len(code))+32 {
			t.Fatalf("stream covers %d bytes of %d", pos, len(code))
		}

		// The byte scans must agree with the scanners over the decoded
		// stream, and the other derived analyses must not panic either.
		checkScanners(t, code)
		checkBlocks(t, "fuzz", code)
		disasm.MinimalProxyTarget(code)
		disasm.ContainsOp(code, evm.DELEGATECALL)
	})
}
