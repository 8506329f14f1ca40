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

// BlockEnd returns the end of the basic block of code that holds the
// instruction at pc, an instruction boundary: the offset just past the
// first terminator from pc on, the offset of the first JUMPDEST after pc,
// or len(code), whichever comes first. Blocks begin at code start, at every
// JUMPDEST and after every terminator, so code[pc:BlockEnd(code, pc)] is a
// whole block when pc starts one. It reads the bytes only: this is the
// block-boundary rule for callers that build no instruction stream, and
// BasicBlocks partitions by it too.
func BlockEnd(code []byte, pc int) int {
	for pc < len(code) {
		op := evm.Op(code[pc])
		pc += 1 + op.PushSize()
		if terminatesBlock(op) || pc < len(code) && evm.Op(code[pc]) == evm.JUMPDEST {
			break
		}
	}
	return min(pc, len(code))
}

// BasicBlocks partitions code into basic blocks (see BlockEnd). Each
// block's Instrs is a capacity-limited window of one shared disassembly,
// not a copy.
func BasicBlocks(code []byte) []BasicBlock {
	n := 0
	for pc := 0; pc < len(code); pc = BlockEnd(code, pc) {
		n++
	}
	instrs := Disassemble(code)
	blocks := make([]BasicBlock, 0, n)
	i := 0
	for pc := 0; pc < len(code); {
		end := BlockEnd(code, pc)
		j := i
		for j < len(instrs) && instrs[j].PC < uint64(end) {
			j++
		}
		blocks = append(blocks, BasicBlock{Start: uint64(pc), Instrs: instrs[i:j:j]})
		i, pc = j, end
	}
	return blocks
}
