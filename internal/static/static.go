// Package static implements a purely static analysis layer over EVM runtime
// bytecode: a control-flow graph recovered from `internal/disasm` basic
// blocks, a bounded abstract-stack dataflow that extracts the function
// selector table, the storage slots read and written (constant-slot and
// keccak-derived classes), and the provenance of every DELEGATECALL target
// (slot-loaded vs hardcoded vs calldata-derived), and a structural
// fingerprint that masks wide PUSH immediates (embedded addresses, salts,
// code hashes) so that near-clones — EIP-1167 stamps differing only in the
// implementation address, or compiler twins differing only in an embedded
// constant — normalize to the same key.
//
// The analysis never executes code and never reads chain state; it is the
// emulation-free fast path that the dynamic engine (internal/proxion)
// cross-checks against and uses to promote verdicts across near-clones.
// Everything here is deterministic: the same bytecode always yields the
// same Summary, byte for byte.
package static

import (
	"sort"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/keccak"
)

// maskWidth is the minimum PUSH immediate width (in bytes) treated as an
// embedded environment-specific constant. 20 bytes is an address; salts and
// code hashes are 32. Immediates this wide are excluded from the structural
// fingerprint and taint every value derived from them, so two contracts
// may only share a fingerprint if no such constant can influence control
// flow in a way the promotion protocol cannot re-anchor per contract.
const maskWidth = 20

// Provenance classifies where a DELEGATECALL target address comes from.
type Provenance uint8

const (
	// ProvUnknown means the analysis could not pin the target's origin.
	ProvUnknown Provenance = iota
	// ProvHardcoded means the target is a constant embedded in the code
	// (the EIP-1167 shape); DelegateCall.Target holds it.
	ProvHardcoded
	// ProvSlotConst means the target is loaded from a constant storage
	// slot (EIP-1967/1822 and ad-hoc storage proxies); DelegateCall.Slot
	// holds the slot.
	ProvSlotConst
	// ProvSlotKeccak means the target is loaded from a keccak-derived
	// slot (diamond facet mappings, mapping-based registries).
	ProvSlotKeccak
	// ProvCalldata means the target is taken from call data.
	ProvCalldata
)

// String returns a stable lower-case name for the provenance class.
func (p Provenance) String() string {
	switch p {
	case ProvHardcoded:
		return "hardcoded"
	case ProvSlotConst:
		return "slot-const"
	case ProvSlotKeccak:
		return "slot-keccak"
	case ProvCalldata:
		return "calldata"
	default:
		return "unknown"
	}
}

// DelegateCall summarizes one reachable DELEGATECALL site.
type DelegateCall struct {
	// PC is the program counter of the DELEGATECALL instruction.
	PC uint64
	// Provenance classifies where the target address comes from.
	Provenance Provenance
	// Target is the embedded address when Provenance is ProvHardcoded.
	Target etypes.Address
	// Slot is the storage slot when Provenance is ProvSlotConst.
	Slot etypes.Hash
	// ForwardsCalldata reports whether the call forwards the caller's
	// full call data (the argument length is CALLDATASIZE-derived) —
	// the defining trait of a transparent forwarding proxy.
	ForwardsCalldata bool
	// TargetTainted reports that the target value depends on a masked
	// immediate in a way the provenance fields do not capture (for
	// example an address computed from a salt, or a slot load combined
	// with a non-canonical mask). Verdicts must not be shared across a
	// structural clone family when this is set.
	TargetTainted bool
}

// Summary is the full static profile of one runtime bytecode.
type Summary struct {
	// CodeHash is keccak256 of the exact bytecode.
	CodeHash etypes.Hash
	// Fingerprint is the structural fingerprint (see Fingerprint).
	Fingerprint etypes.Hash
	// Selectors is the sorted set of 4-byte function selectors the
	// dispatcher compares call data against. Unlike a raw PUSH4 scan
	// this excludes decoy constants that are never compared.
	Selectors [][4]byte
	// SlotReads / SlotWrites are the sorted sets of constant storage
	// slots the code loads from / stores to on some reachable path.
	SlotReads  []etypes.Hash
	SlotWrites []etypes.Hash
	// KeccakReads / KeccakWrites count the distinct SLOAD / SSTORE sites
	// whose slot operand is keccak-derived (mappings, diamond facets).
	KeccakReads  int
	KeccakWrites int
	// Delegates lists every reachable DELEGATECALL site, ordered by PC.
	Delegates []DelegateCall
	// HasDelegateCall reports whether DELEGATECALL appears anywhere in
	// the decoded instruction stream, reachable or not (the Section 4.1
	// pre-filter).
	HasDelegateCall bool
	// Blocks and ReachableBlocks count basic blocks total and reached
	// by the abstract interpretation from the entry point.
	Blocks          int
	ReachableBlocks int
	// MaskedImmFlow reports that a masked immediate (or a value derived
	// from one) influences control flow: it feeds a JUMP/JUMPI target or
	// a comparison whose result feeds a branch condition. Two contracts
	// sharing a fingerprint but differing in such an immediate can take
	// different paths, so verdict promotion must refuse the family.
	MaskedImmFlow bool
	// Truncated reports that an analysis budget (block revisits or total
	// abstract steps) was exhausted before the dataflow stabilized. The
	// summary is still a sound partial profile for reporting, but must
	// not be used to promote verdicts.
	Truncated bool
}

// HasSelector reports whether sel is in the summary's selector table.
func (s *Summary) HasSelector(sel [4]byte) bool {
	for _, have := range s.Selectors {
		if have == sel {
			return true
		}
	}
	return false
}

// ReadsSlot reports whether the constant slot appears in SlotReads.
func (s *Summary) ReadsSlot(slot etypes.Hash) bool {
	for _, have := range s.SlotReads {
		if have == slot {
			return true
		}
	}
	return false
}

// CFG is the recovered control-flow graph.
type CFG struct {
	// Blocks are the underlying basic blocks, in code order.
	Blocks []disasm.BasicBlock
	// Succs[i] lists the successor block indices of block i, sorted.
	// Unresolvable computed jumps contribute no edge.
	Succs [][]int
	// Reachable[i] reports whether block i was reached from the entry.
	Reachable []bool
}

// Analyze runs the full static analysis over runtime bytecode. It is total:
// any byte string (truncated PUSH data, undefined opcodes, unreachable or
// missing JUMPDESTs) yields a Summary without panicking.
func Analyze(code []byte) *Summary {
	return AnalyzeBlocks(code, disasm.BasicBlocks(code), etypes.Keccak(code), Fingerprint(code))
}

// AnalyzeWithCFG is Analyze, additionally returning the recovered CFG.
func AnalyzeWithCFG(code []byte) (*Summary, *CFG) {
	a := newAnalysis(code, disasm.BasicBlocks(code))
	a.edges = make([]map[int]struct{}, len(a.blocks))
	a.run()
	return a.summary(etypes.Keccak(code), Fingerprint(code)), a.cfg()
}

// AnalyzeBlocks is Analyze for a caller that already holds both hashes of
// code and its basic blocks — the chain caches every account's code hash,
// and the structural cache tier computes the fingerprint to find the clone
// family before it asks for a summary — so the bytecode is neither hashed
// nor disassembled again. The inputs are trusted, not checked: blocks must
// be disasm.BasicBlocks(code) (and is only read), codeHash keccak256(code)
// and fingerprint Fingerprint(code), and then the result equals
// Analyze(code) field for field.
func AnalyzeBlocks(code []byte, blocks []disasm.BasicBlock, codeHash, fingerprint etypes.Hash) *Summary {
	a := newAnalysis(code, blocks)
	a.run()
	return a.summary(codeHash, fingerprint)
}

// Fingerprint computes the structural fingerprint of runtime bytecode:
// keccak256 over the opcode stream with PUSH immediates narrower than 20
// bytes included verbatim and immediates of 20+ bytes omitted (the PUSH
// opcode byte itself still encodes the width). Embedded addresses, salts
// and code hashes therefore do not distinguish two codes, while small
// immediates — jump targets, selectors, ad-hoc slot numbers, offsets — do.
func Fingerprint(code []byte) etypes.Hash {
	// The hashed stream is code minus its wide immediates, so feed the
	// hasher the runs between them instead of assembling a copy.
	var h keccak.Hasher
	run := 0
	for pc := 0; pc < len(code); {
		w := evm.Op(code[pc]).PushSize()
		pc++
		if w == 0 {
			continue
		}
		end := pc + w
		if end > len(code) {
			end = len(code)
		}
		if w >= maskWidth {
			h.Write(code[run:pc])
			run = end
		}
		pc = end
	}
	h.Write(code[run:])
	return h.Sum256()
}

// sortHashes returns the set's elements in ascending byte order.
func sortHashes(set map[etypes.Hash]struct{}) []etypes.Hash {
	if len(set) == 0 {
		return nil
	}
	out := make([]etypes.Hash, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		return compareBytes(out[i][:], out[j][:]) < 0
	})
	return out
}

func compareBytes(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
