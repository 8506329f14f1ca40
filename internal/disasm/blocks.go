package disasm

import "repro/internal/evm"

// BasicBlock is a maximal straight-line instruction sequence: control enters
// only at the first instruction and leaves only at the last.
type BasicBlock struct {
	// Start is the PC of the first instruction.
	Start uint64
	// Instrs are the block's instructions in order.
	Instrs []Instruction
}

// End returns the PC just past the last instruction.
func (b BasicBlock) End() uint64 {
	if len(b.Instrs) == 0 {
		return b.Start
	}
	last := b.Instrs[len(b.Instrs)-1]
	return last.PC + 1 + uint64(last.Op.PushSize())
}

// terminatesBlock reports whether op ends a basic block.
func terminatesBlock(op evm.Op) bool {
	switch op {
	case evm.JUMP, evm.JUMPI, evm.STOP, evm.RETURN, evm.REVERT,
		evm.INVALID, evm.SELFDESTRUCT:
		return true
	}
	return false
}

// BasicBlocks partitions code into basic blocks. Blocks begin at code start,
// at every JUMPDEST, and after every terminator. Each block's Instrs is a
// capacity-limited window of one shared disassembly, not a copy.
func BasicBlocks(code []byte) []BasicBlock {
	instrs := Disassemble(code)
	// endsAt reports whether a block boundary follows instrs[i].
	endsAt := func(i int) bool {
		return i+1 == len(instrs) || terminatesBlock(instrs[i].Op) || instrs[i+1].Op == evm.JUMPDEST
	}
	n := 0
	for i := range instrs {
		if endsAt(i) {
			n++
		}
	}
	blocks := make([]BasicBlock, 0, n)
	start := 0
	for i := range instrs {
		if endsAt(i) {
			blocks = append(blocks, BasicBlock{Start: instrs[start].PC, Instrs: instrs[start : i+1 : i+1]})
			start = i + 1
		}
	}
	return blocks
}
