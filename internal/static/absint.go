package static

import (
	"slices"
	"sort"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// Analysis budgets. The dataflow must fully stabilize within these bounds
// for a summary to be promotion-grade; exceeding any of them sets
// Summary.Truncated. Real proxy shapes (stamps, dispatchers, storage
// forwarders, diamonds) stabilize in one or two visits per block.
const (
	maxBlockVisits = 8       // re-analyses of one block before giving up
	maxSteps       = 1 << 19 // total abstract instructions interpreted
	maxStackDepth  = 128     // modeled stack slots; deeper values fold into deepTaint
)

// valueKind is the abstract domain's value classification.
type valueKind uint8

const (
	kindUnknown  valueKind = iota
	kindConst              // a compile-time constant (val holds it)
	kindCalldata           // derived from CALLDATALOAD/CALLDATASIZE
	kindSload              // loaded from storage (slot/slotKnown/slotKeccak)
	kindKeccak             // a KECCAK256 result
	kindCmp                // a comparison result (EQ/LT/GT/...)
)

// absValue is one abstract stack slot. Every field is comparable, so ==
// is exact structural equality and joins can test it directly.
type absValue struct {
	kind valueKind
	// imm is one plus the code offset of the masked PUSH whose immediate
	// this value carries — a kindConst's val, or a kindSload's slot —
	// and zero when no single masked immediate does.
	imm uint32
	val u256.Int // kindConst only
	// width is the PUSH immediate width that produced a constant
	// (0 for computed constants).
	width uint8
	// masked marks a constant produced by a PUSH of maskWidth+ bytes —
	// an immediate the structural fingerprint erases.
	masked bool
	// tainted marks a value derived from a masked immediate through any
	// chain of operations (arithmetic, memory, return data). Tainted
	// values reaching control flow set Summary.MaskedImmFlow.
	tainted bool
	// slot metadata for kindSload values.
	slot       etypes.Hash
	slotKnown  bool
	slotKeccak bool
}

func unknownVal(tainted bool) absValue {
	return absValue{kind: kindUnknown, tainted: tainted}
}

func constVal(v u256.Int, width int) absValue {
	av := absValue{kind: kindConst, val: v}
	if width > 0 && width <= 32 {
		av.width = uint8(width)
	}
	if width >= maskWidth {
		av.masked = true
		av.tainted = true
	}
	return av
}

// joinValue merges two abstract values flowing into the same stack slot.
// Two values carrying different immediates that agree in everything but
// their val, slot and taint join by comparing values: an inspection of
// both immediates. The joined value carries an immediate only when both
// did.
func (an *analysis) joinValue(a, b absValue) absValue {
	imm := a.imm
	if a.imm != b.imm {
		sa, sb := a, b
		sa.imm, sa.val, sa.slot, sa.tainted = 0, u256.Int{}, etypes.Hash{}, false
		sb.imm, sb.val, sb.slot, sb.tainted = 0, u256.Int{}, etypes.Hash{}, false
		if sa == sb {
			an.inspect(a.imm)
			an.inspect(b.imm)
		}
		imm, a.imm, b.imm = 0, 0, 0
	}
	if a == b {
		a.imm = imm
		return a
	}
	ta, tb := a, b
	ta.tainted, tb.tainted = false, false
	if ta == tb { // identical up to taint
		a.tainted = a.tainted || b.tainted
		a.imm = imm
		return a
	}
	return unknownVal(a.tainted || b.tainted)
}

// absState is the abstract machine state at a program point: the modeled
// operand stack plus three coarse taint bits for the unmodeled parts of
// the state (memory, return data, and stack slots dropped by depth caps
// or join truncation).
type absState struct {
	stack      []absValue // bottom .. top
	memTainted bool
	retTainted bool
	deepTaint  bool
}

// clone copies the state into a stack with room for depth slots (at least
// the slots it holds), so a block that peaks at depth never regrows it.
func (st *absState) clone(depth int) absState {
	cp := *st
	cp.stack = append(make([]absValue, 0, max(depth, len(st.stack))), st.stack...)
	return cp
}

func (st *absState) push(v absValue) {
	if len(st.stack) >= maxStackDepth {
		if st.stack[0].tainted {
			st.deepTaint = true
		}
		copy(st.stack, st.stack[1:])
		st.stack = st.stack[:len(st.stack)-1]
	}
	st.stack = append(st.stack, v)
}

func (st *absState) pop() absValue {
	if len(st.stack) == 0 {
		return unknownVal(st.deepTaint)
	}
	v := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	return v
}

// peek returns the i-th slot from the top (0 = top) without popping.
func (st *absState) peek(i int) absValue {
	if i >= len(st.stack) {
		return unknownVal(st.deepTaint)
	}
	return st.stack[len(st.stack)-1-i]
}

// joinState merges incoming state b into a, aligning stacks at the top and
// folding dropped slots into deepTaint. It reports whether a changed.
func (an *analysis) joinState(a, b *absState) bool {
	changed := false
	n := len(a.stack)
	if len(b.stack) < n {
		n = len(b.stack)
	}
	for _, dropped := range a.stack[:len(a.stack)-n] {
		if dropped.tainted && !a.deepTaint {
			a.deepTaint = true
			changed = true
		}
	}
	for _, dropped := range b.stack[:len(b.stack)-n] {
		if dropped.tainted && !a.deepTaint {
			a.deepTaint = true
			changed = true
		}
	}
	if len(a.stack) != n {
		a.stack = append(a.stack[:0], a.stack[len(a.stack)-n:]...)
		changed = true
	}
	off := len(b.stack) - n
	for i := 0; i < n; i++ {
		j := an.joinValue(a.stack[i], b.stack[off+i])
		if j != a.stack[i] {
			a.stack[i] = j
			changed = true
		}
	}
	if b.memTainted && !a.memTainted {
		a.memTainted = true
		changed = true
	}
	if b.retTainted && !a.retTainted {
		a.retTainted = true
		changed = true
	}
	if b.deepTaint && !a.deepTaint {
		a.deepTaint = true
		changed = true
	}
	return changed
}

// succ is a control-flow edge out of a block: the successor's index — one
// past the last block for a fall off the end of the code — and the state
// flowing along the edge. Each successor owns its stack.
type succ struct {
	block int
	state absState
}

// blockFlow is the dataflow's per-block state: the joined entry state, once
// some edge has reached the block, and the visits spent on it.
type blockFlow struct {
	entry    absState
	hasEntry bool
	visits   int
}

// analysis carries all working state for one Analyze run.
type analysis struct {
	code []byte
	// blocks partition the code in order: they are sorted by Start, and
	// block i falls through into block i+1.
	blocks []disasm.BasicBlock

	flow      []blockFlow
	reachable []bool
	// edges collects the CFG's successor sets; nil unless the caller asked
	// for the CFG.
	edges []map[int]struct{}
	// succs backs the slice runBlock returns: a block has at most two ways
	// out, and the caller is done with them before the next block runs.
	succs [2]succ
	steps int

	slotReads     map[etypes.Hash]struct{}
	slotWrites    map[etypes.Hash]struct{}
	keccakReadPC  map[uint64]struct{}
	keccakWritePC map[uint64]struct{}
	delegates     map[uint64]delegateSite
	// inspected holds the imm of every masked immediate the analysis read
	// the value of (see take).
	inspected []uint32

	maskedFlow bool
	truncated  bool
}

// newAnalysis prepares a run over code, whose basic blocks the caller
// supplies: blocks must be disasm.BasicBlocks(code).
func newAnalysis(code []byte, blocks []disasm.BasicBlock) *analysis {
	return &analysis{
		code:          code,
		blocks:        blocks,
		flow:          make([]blockFlow, len(blocks)),
		reachable:     make([]bool, len(blocks)),
		steps:         maxSteps,
		slotReads:     make(map[etypes.Hash]struct{}),
		slotWrites:    make(map[etypes.Hash]struct{}),
		keccakReadPC:  make(map[uint64]struct{}),
		keccakWritePC: make(map[uint64]struct{}),
		delegates:     make(map[uint64]delegateSite),
	}
}

// blockAt returns the index of the block starting at pc.
func (a *analysis) blockAt(pc uint64) (int, bool) {
	i := sort.Search(len(a.blocks), func(i int) bool { return a.blocks[i].Start >= pc })
	return i, i < len(a.blocks) && a.blocks[i].Start == pc
}

// peakDepth returns the deepest the modeled stack gets while block b runs
// from an entry state of depth entry — one pass over the block's stack
// arities, mirroring push and pop: a pop of an empty stack removes nothing.
func peakDepth(b disasm.BasicBlock, entry int) int {
	// grow is the peak over entry while no pop has found the stack empty;
	// alone is the peak of the same block entered empty.
	net, grow, depth, alone := 0, 0, 0, 0
	for _, ins := range b.Instrs {
		pops, pushes := evm.StackArity(ins.Op)
		switch {
		case ins.Op.IsDup(): // copies without popping
			pops, pushes = 0, 1
		case ins.Op.IsSwap():
			pops, pushes = 0, 0
		}
		net += pushes - pops
		grow = max(grow, net)
		depth = max(depth-pops, 0) + pushes
		alone = max(alone, depth)
	}
	return min(max(entry+grow, alone), maxStackDepth)
}

// jumpTarget resolves a constant jump destination to a block index; a valid
// target must start a block whose first instruction is JUMPDEST.
func (a *analysis) jumpTarget(v absValue) (int, bool) {
	if v.kind != kindConst || !v.val.IsUint64() {
		return 0, false
	}
	idx, ok := a.blockAt(v.val.Uint64())
	if !ok {
		return 0, false
	}
	b := a.blocks[idx]
	if len(b.Instrs) == 0 || b.Instrs[0].Op != evm.JUMPDEST {
		return 0, false
	}
	return idx, true
}

func (a *analysis) run() {
	if len(a.blocks) == 0 {
		return
	}
	work := []int{0}
	a.flow[0].hasEntry = true
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		cur := &a.flow[idx]
		if cur.visits >= maxBlockVisits {
			// The entry state changed but the revisit budget is gone:
			// the dataflow did not stabilize, so the summary must not
			// be trusted for verdict promotion.
			a.truncated = true
			continue
		}
		cur.visits++
		a.reachable[idx] = true
		st := cur.entry.clone(peakDepth(a.blocks[idx], len(cur.entry.stack)))
		for _, s := range a.runBlock(idx, &st) {
			j := s.block
			if j == len(a.blocks) {
				continue // fell off the end of the code
			}
			if a.edges != nil {
				if a.edges[idx] == nil {
					a.edges[idx] = make(map[int]struct{})
				}
				a.edges[idx][j] = struct{}{}
			}
			if next := &a.flow[j]; !next.hasEntry {
				next.entry = s.state // the successor's own stack: keep it
				next.hasEntry = true
				work = append(work, j)
			} else if a.joinState(&next.entry, &s.state) {
				work = append(work, j)
			}
		}
	}
}

// runBlock interprets one basic block from state st and returns the
// outgoing edges. st is mutated in place.
func (a *analysis) runBlock(idx int, st *absState) []succ {
	b := a.blocks[idx]
	for _, ins := range b.Instrs {
		if a.steps <= 0 {
			a.truncated = true
			return nil
		}
		a.steps--
		op := ins.Op
		switch {
		case op.IsPush():
			v := constVal(ins.Value(a.code), op.PushSize())
			if v.masked {
				v.imm = uint32(ins.PC) + 1
			}
			st.push(v)
			continue
		case op == evm.PUSH0:
			st.push(constVal(u256.Zero(), 0))
			continue
		case op.IsDup():
			st.push(st.peek(int(op - evm.DUP1)))
			continue
		case op.IsSwap():
			n := int(op-evm.SWAP1) + 1
			if n < len(st.stack) {
				top := len(st.stack) - 1
				st.stack[top], st.stack[top-n] = st.stack[top-n], st.stack[top]
			} else {
				// Swapping with a slot below the modeled stack: both
				// positions become unknown.
				for i := range st.stack {
					if st.stack[i].tainted {
						st.deepTaint = true
					}
					st.stack[i] = unknownVal(st.deepTaint)
				}
			}
			continue
		}

		switch op {
		case evm.JUMPDEST, evm.POP:
			if op == evm.POP {
				st.pop()
			}
		case evm.CALLDATALOAD:
			off := a.take(st)
			st.push(absValue{kind: kindCalldata, tainted: off.tainted})
		case evm.CALLDATASIZE:
			st.push(absValue{kind: kindCalldata})
		case evm.ADD, evm.SUB, evm.MUL, evm.OR, evm.XOR:
			a.binop(st, op)
		case evm.AND:
			a.andOp(st)
		case evm.DIV, evm.SHR, evm.SHL:
			a.shiftOp(st, op)
		case evm.NOT, evm.ISZERO:
			v := a.take(st)
			out := unknownVal(v.tainted)
			if v.kind == kindConst {
				out = constVal(applyUnary(op, v.val), 0)
				out.tainted = v.tainted
			} else if op == evm.ISZERO && v.kind == kindCmp {
				// Negated dispatcher comparisons stay comparisons so a
				// later JUMPI still sees masked-comparison taint.
				out = absValue{kind: kindCmp, tainted: v.tainted}
			}
			st.push(out)
		case evm.EQ, evm.LT, evm.GT, evm.SLT, evm.SGT:
			a.cmpOp(st, op)
		case evm.KECCAK256:
			off, length := a.take(st), a.take(st)
			st.push(absValue{
				kind:    kindKeccak,
				tainted: st.memTainted || off.tainted || length.tainted,
			})
		case evm.MLOAD:
			off := a.take(st)
			st.push(unknownVal(st.memTainted || off.tainted))
		case evm.MSTORE, evm.MSTORE8:
			off, val := a.take(st), a.take(st)
			if val.tainted || off.tainted {
				st.memTainted = true
			}
		case evm.SLOAD:
			a.sloadOp(st, ins.PC)
		case evm.SSTORE:
			slot := st.pop()
			a.take(st) // the stored value
			a.recordSlot(slot, ins.PC, a.slotWrites, a.keccakWritePC)
		case evm.CALLDATACOPY, evm.CODECOPY:
			o1, o2, o3 := a.take(st), a.take(st), a.take(st)
			if op == evm.CODECOPY || o1.tainted || o2.tainted || o3.tainted {
				// Own code contains masked immediates, so copying it
				// into memory launders them past the fingerprint.
				st.memTainted = true
			}
		case evm.RETURNDATACOPY:
			o1, o2, o3 := a.take(st), a.take(st), a.take(st)
			if st.retTainted || o1.tainted || o2.tainted || o3.tainted {
				st.memTainted = true
			}
		case evm.RETURNDATASIZE:
			st.push(unknownVal(st.retTainted))
		case evm.EXTCODECOPY:
			addr := a.take(st)
			a.take(st)
			a.take(st)
			a.take(st)
			if addr.tainted {
				st.memTainted = true
			}
		case evm.DELEGATECALL:
			a.delegateOp(st, ins.PC)
		case evm.CALL, evm.CALLCODE, evm.STATICCALL:
			a.take(st) // gas
			target := a.take(st)
			rest := 5 // value, argsOff, argsLen, retOff, retLen
			if op == evm.STATICCALL {
				rest = 4 // no value operand
			}
			for i := 0; i < rest; i++ {
				a.take(st)
			}
			// Return data (and the memory region it is written to)
			// depends on the callee and the arguments; if either is
			// derived from a masked immediate, so is everything read
			// back from this call.
			if target.tainted || st.memTainted {
				st.retTainted = true
				st.memTainted = true
			}
			st.push(unknownVal(target.tainted))
		case evm.JUMP:
			target := a.take(st)
			if target.tainted {
				a.maskedFlow = true
			}
			if j, ok := a.jumpTarget(target); ok {
				a.succs[0] = succ{block: j, state: *st}
				return a.succs[:1]
			}
			return nil
		case evm.JUMPI:
			target := a.take(st)
			cond := a.take(st)
			if target.tainted || cond.tainted {
				a.maskedFlow = true
			}
			if j, ok := a.jumpTarget(target); ok {
				a.succs[0] = succ{block: idx + 1, state: st.clone(0)}
				a.succs[1] = succ{block: j, state: *st}
				return a.succs[:2]
			}
			a.succs[0] = succ{block: idx + 1, state: *st}
			return a.succs[:1]
		case evm.STOP, evm.RETURN, evm.REVERT, evm.INVALID, evm.SELFDESTRUCT:
			if op == evm.SELFDESTRUCT {
				a.take(st)
			}
			return nil
		default:
			pops, pushes := evm.StackArity(op)
			taint := false
			for i := 0; i < pops; i++ {
				if a.take(st).tainted {
					taint = true
				}
			}
			for i := 0; i < pushes; i++ {
				st.push(unknownVal(taint))
			}
		}
	}
	a.succs[0] = succ{block: idx + 1, state: *st}
	return a.succs[:1]
}

// take pops an operand the instruction reads. Reading a constant inspects
// the masked immediate it carries, if any; a loaded value's slot is read by
// no instruction, only by joins and the DELEGATECALL record.
func (a *analysis) take(st *absState) absValue {
	v := st.pop()
	if v.kind == kindConst {
		a.inspect(v.imm)
	}
	return v
}

// inspect records that the analysis read the value of the masked
// immediate imm (zero: none).
func (a *analysis) inspect(imm uint32) {
	if imm != 0 && !slices.Contains(a.inspected, imm) {
		a.inspected = append(a.inspected, imm)
	}
}

// binop handles commutative-ish arithmetic: constants fold, anything else
// degrades to unknown with taint propagated.
func (a *analysis) binop(st *absState, op evm.Op) {
	x, y := a.take(st), a.take(st)
	taint := x.tainted || y.tainted
	if x.kind == kindConst && y.kind == kindConst {
		out := constVal(applyBinary(op, x.val, y.val), 0)
		out.tainted = taint
		st.push(out)
		return
	}
	st.push(unknownVal(taint))
}

// addressMask is 2^160-1, the canonical PUSH20 0xff..ff address mask solc
// emits after loading an implementation address from a packed slot. ANDing
// with it preserves the other operand's identity, so it does not taint —
// a clone family differing only in this constant would differ in behaviour
// and is caught by the general masked-const taint below.
var addressMask = func() u256.Int {
	var b [20]byte
	for i := range b {
		b[i] = 0xff
	}
	return u256.FromBytes(b[:])
}()

func (a *analysis) andOp(st *absState) {
	x, y := st.pop(), st.pop()
	if x.kind == kindConst && y.kind == kindConst {
		a.inspect(x.imm)
		a.inspect(y.imm)
		out := constVal(x.val.And(y.val), 0)
		out.tainted = x.tainted || y.tainted
		st.push(out)
		return
	}
	// Canonical address mask: transparent to the other operand, which
	// passes through as it was — only the mask's value is read.
	if x.kind == kindConst {
		a.inspect(x.imm)
		if x.val.Eq(addressMask) {
			st.push(y)
			return
		}
	}
	if y.kind == kindConst {
		a.inspect(y.imm)
		if y.val.Eq(addressMask) {
			st.push(x)
			return
		}
	}
	taint := x.tainted || y.tainted
	// Selector masking (AND with a small constant) keeps calldata-ness.
	if x.kind == kindCalldata || y.kind == kindCalldata {
		st.push(absValue{kind: kindCalldata, tainted: taint})
		return
	}
	st.push(unknownVal(taint))
}

// shiftOp handles SHR/SHL/DIV: constant folding, and a shifted call-data
// value (the dispatcher's `CALLDATALOAD ... SHR`, or the legacy
// `DIV 2^224`) keeps its calldata classification for the DELEGATECALL
// provenance.
func (a *analysis) shiftOp(st *absState, op evm.Op) {
	x, y := a.take(st), a.take(st)
	taint := x.tainted || y.tainted
	if x.kind == kindConst && y.kind == kindConst {
		out := constVal(applyBinary(op, x.val, y.val), 0)
		out.tainted = taint
		st.push(out)
		return
	}
	// SHR/SHL pop (shift, value); DIV pops (value, divisor).
	var value absValue
	if op == evm.DIV {
		value = x
	} else {
		value = y
	}
	if value.kind == kindCalldata {
		st.push(absValue{kind: kindCalldata, tainted: taint})
		return
	}
	st.push(unknownVal(taint))
}

func (a *analysis) cmpOp(st *absState, op evm.Op) {
	x, y := a.take(st), a.take(st)
	taint := x.tainted || y.tainted
	if x.kind == kindConst && y.kind == kindConst {
		out := constVal(applyBinary(op, x.val, y.val), 0)
		out.tainted = taint
		st.push(out)
		return
	}
	st.push(absValue{kind: kindCmp, tainted: taint})
}

func (a *analysis) sloadOp(st *absState, pc uint64) {
	slot := st.pop()
	out := absValue{kind: kindSload}
	switch {
	case slot.kind == kindConst:
		out.slot = etypes.HashFromWord(slot.val)
		out.slotKnown = true
		out.imm = slot.imm
		a.slotReads[out.slot] = struct{}{}
		// The slot identity is pinned in the provenance, so a masked
		// slot constant does not taint the loaded value.
	case slot.kind == kindKeccak:
		out.slotKeccak = true
		out.tainted = slot.tainted
		a.keccakReadPC[pc] = struct{}{}
	default:
		out.tainted = slot.tainted
	}
	st.push(out)
}

func (a *analysis) recordSlot(slot absValue, pc uint64, consts map[etypes.Hash]struct{}, keccaks map[uint64]struct{}) {
	switch slot.kind {
	case kindConst:
		consts[etypes.HashFromWord(slot.val)] = struct{}{}
	case kindKeccak:
		keccaks[pc] = struct{}{}
	}
}

// delegateSite is one DELEGATECALL site's record during the run: the
// summary's DelegateCall, and the imm its Target or Slot came from.
type delegateSite struct {
	dc  DelegateCall
	imm uint32
}

// delegateOp models DELEGATECALL: records the call site's target provenance
// and pushes the abstract success flag. The target is recorded, not
// inspected: a target or slot read from a masked immediate is that
// immediate's one opaque use besides moves and storage slots.
// Stack (top down): gas, target, argsOffset, argsLength, retOffset, retLength.
func (a *analysis) delegateOp(st *absState, pc uint64) {
	a.take(st) // gas
	target := st.pop()
	argsOff := a.take(st)
	argsLen := a.take(st)
	a.take(st) // retOffset
	a.take(st) // retLength

	dc := DelegateCall{PC: pc}
	dc.ForwardsCalldata = argsLen.kind == kindCalldata && !argsLen.tainted &&
		!argsOff.tainted
	var imm uint32
	switch {
	case target.kind == kindConst && target.masked:
		dc.Provenance = ProvHardcoded
		dc.Target = etypes.AddressFromWord(target.val)
		imm = target.imm
	case target.kind == kindSload && target.slotKnown:
		dc.Provenance = ProvSlotConst
		dc.Slot = target.slot
		dc.TargetTainted = target.tainted
		imm = target.imm
	case target.kind == kindSload && target.slotKeccak:
		dc.Provenance = ProvSlotKeccak
		dc.TargetTainted = target.tainted
	case target.kind == kindCalldata:
		dc.Provenance = ProvCalldata
		dc.TargetTainted = target.tainted
	default:
		dc.Provenance = ProvUnknown
		dc.TargetTainted = target.tainted
	}
	a.mergeDelegate(delegateSite{dc, imm})

	if dc.ForwardsCalldata {
		// A transparent forward: the probe's verdict is decided at the
		// moment of the call, so the success flag and return data do
		// not depend on which masked target was called.
		st.push(unknownVal(false))
	} else {
		t := target.tainted
		if t {
			st.retTainted = true
			st.memTainted = true
		}
		st.push(unknownVal(t))
	}
}

// mergeDelegate folds a call-site observation into the per-PC record; two
// visits disagreeing on provenance degrade the site to unknown+tainted.
// Visits whose targets came from different immediates compare their
// values: an inspection of both.
func (a *analysis) mergeDelegate(site delegateSite) {
	dc := site.dc
	prevSite, ok := a.delegates[dc.PC]
	if !ok {
		a.delegates[dc.PC] = site
		return
	}
	if prevSite.imm != site.imm {
		a.inspect(prevSite.imm)
		a.inspect(site.imm)
		site.imm = 0
	}
	prev := prevSite.dc
	if prev == dc {
		a.delegates[dc.PC] = site
		return
	}
	merged := DelegateCall{
		PC:               dc.PC,
		Provenance:       ProvUnknown,
		ForwardsCalldata: prev.ForwardsCalldata && dc.ForwardsCalldata,
		TargetTainted:    true,
	}
	if prev.Provenance == dc.Provenance && prev.Target == dc.Target && prev.Slot == dc.Slot {
		merged.Provenance = prev.Provenance
		merged.Target = prev.Target
		merged.Slot = prev.Slot
		merged.TargetTainted = prev.TargetTainted || dc.TargetTainted
	} else {
		site.imm = 0
	}
	a.delegates[dc.PC] = delegateSite{merged, site.imm}
}

func applyUnary(op evm.Op, x u256.Int) u256.Int {
	switch op {
	case evm.NOT:
		return x.Not()
	case evm.ISZERO:
		if x.IsZero() {
			return u256.One()
		}
		return u256.Zero()
	}
	return u256.Zero()
}

func applyBinary(op evm.Op, x, y u256.Int) u256.Int {
	switch op {
	case evm.ADD:
		return x.Add(y)
	case evm.SUB:
		return x.Sub(y)
	case evm.MUL:
		return x.Mul(y)
	case evm.AND:
		return x.And(y)
	case evm.OR:
		return x.Or(y)
	case evm.XOR:
		return x.Xor(y)
	case evm.SHR:
		if !x.IsUint64() || x.Uint64() > 255 {
			return u256.Zero()
		}
		return y.Shr(uint(x.Uint64()))
	case evm.SHL:
		if !x.IsUint64() || x.Uint64() > 255 {
			return u256.Zero()
		}
		return y.Shl(uint(x.Uint64()))
	case evm.DIV:
		if y.IsZero() {
			return u256.Zero()
		}
		return udiv(x, y)
	case evm.EQ:
		return boolWord(x.Eq(y))
	case evm.LT:
		return boolWord(x.Lt(y))
	case evm.GT:
		return boolWord(x.Gt(y))
	case evm.SLT:
		return boolWord(x.Slt(y))
	case evm.SGT:
		return boolWord(x.Sgt(y))
	}
	return u256.Zero()
}

func boolWord(b bool) u256.Int {
	if b {
		return u256.One()
	}
	return u256.Zero()
}

// udiv computes x/y for the power-of-two divisors the legacy dispatcher
// idiom uses; other divisors fold to zero-knowledge (unknown would be more
// precise but no summary fact depends on general division).
func udiv(x, y u256.Int) u256.Int {
	if bits := y.BitLen(); bits > 0 && y.Eq(u256.One().Shl(uint(bits-1))) {
		return x.Shr(uint(bits - 1))
	}
	return u256.Zero()
}

// summary assembles the final Summary from the run's accumulators and the
// two hashes of a.code, which the caller owns (see AnalyzeBlocks).
func (a *analysis) summary(codeHash, fingerprint etypes.Hash) *Summary {
	s := &Summary{
		CodeHash:        codeHash,
		Fingerprint:     fingerprint,
		SlotReads:       sortHashes(a.slotReads),
		SlotWrites:      sortHashes(a.slotWrites),
		KeccakReads:     len(a.keccakReadPC),
		KeccakWrites:    len(a.keccakWritePC),
		HasDelegateCall: disasm.ContainsOp(a.code, evm.DELEGATECALL),
		Blocks:          len(a.blocks),
		MaskedImmFlow:   a.maskedFlow,
		Truncated:       a.truncated,
	}
	for _, r := range a.reachable {
		if r {
			s.ReachableBlocks++
		}
	}
	s.Selectors = disasm.DispatcherSelectors(a.code)
	sort.Slice(s.Selectors, func(i, j int) bool {
		return compareBytes(s.Selectors[i][:], s.Selectors[j][:]) < 0
	})
	s.Immediates = a.immediates()
	if len(a.delegates) > 0 {
		s.Delegates = make([]DelegateCall, 0, len(a.delegates))
		for _, site := range a.delegates {
			dc := site.dc
			dc.Imm = -1
			if site.imm != 0 && !slices.Contains(a.inspected, site.imm) {
				dc.Imm = int(site.imm - 1)
			}
			s.Delegates = append(s.Delegates, dc)
		}
		sort.Slice(s.Delegates, func(i, j int) bool {
			return s.Delegates[i].PC < s.Delegates[j].PC
		})
	}
	return s
}

// immediates lists the code's masked immediates, each marked inspected or
// not.
func (a *analysis) immediates() []Immediate {
	var out []Immediate
	for pc := 0; pc < len(a.code); {
		w := evm.Op(a.code[pc]).PushSize()
		if w >= maskWidth {
			out = append(out, Immediate{PC: uint64(pc), Inspected: slices.Contains(a.inspected, uint32(pc)+1)})
		}
		pc += 1 + w
	}
	return out
}

// cfg assembles the CFG view of the run.
func (a *analysis) cfg() *CFG {
	g := &CFG{
		Blocks:    a.blocks,
		Succs:     make([][]int, len(a.blocks)),
		Reachable: a.reachable,
	}
	for i, es := range a.edges {
		if len(es) == 0 {
			continue
		}
		out := make([]int, 0, len(es))
		for j := range es {
			out = append(out, j)
		}
		sort.Ints(out)
		g.Succs[i] = out
	}
	return g
}
