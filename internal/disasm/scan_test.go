package disasm_test

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/disasm"
	"repro/internal/evm"
	"repro/internal/gen"
)

// The three PUSH4 scanners as they were before they became byte scans: a
// full disassembly each, a map to de-duplicate. They are the oracles for
// the shipped scanners (and for FuzzDisassemble); nothing else calls them.

func refPush4Candidates(code []byte) [][4]byte {
	seen := make(map[[4]byte]struct{})
	var out [][4]byte
	for _, ins := range disasm.Disassemble(code) {
		if ins.Op == evm.PUSH4 {
			var sel [4]byte
			copy(sel[:], ins.Imm(code))
			if _, dup := seen[sel]; !dup {
				seen[sel] = struct{}{}
				out = append(out, sel)
			}
		}
	}
	return out
}

func refDispatcherSelectors(code []byte) [][4]byte {
	instrs := disasm.Disassemble(code)
	seen := make(map[[4]byte]struct{})
	var out [][4]byte
	for i, ins := range instrs {
		if ins.Op != evm.PUSH4 || !refComparisonFeedsJump(instrs, i) {
			continue
		}
		var sel [4]byte
		copy(sel[:], ins.Imm(code))
		if _, dup := seen[sel]; !dup {
			seen[sel] = struct{}{}
			out = append(out, sel)
		}
	}
	return out
}

func refDispatcherTargets(code []byte) map[[4]byte]uint64 {
	instrs := disasm.Disassemble(code)
	out := make(map[[4]byte]uint64)
	for i, ins := range instrs {
		if ins.Op != evm.PUSH4 || !refComparisonFeedsJump(instrs, i) {
			continue
		}
		// The jump-target push is the last PUSH before the JUMPI.
		var target uint64
		found := false
		for j := i + 1; j < len(instrs) && j <= i+6; j++ {
			op := instrs[j].Op
			if op.IsPush() {
				target = 0
				for _, b := range instrs[j].Imm(code) {
					target = target<<8 | uint64(b)
				}
				found = true
			}
			if op == evm.JUMPI {
				break
			}
		}
		if !found {
			continue
		}
		var sel [4]byte
		copy(sel[:], ins.Imm(code))
		if _, dup := out[sel]; !dup {
			out[sel] = target
		}
	}
	return out
}

func refComparisonFeedsJump(instrs []disasm.Instruction, i int) bool {
	const window = 6
	sawCompare := false
	for j := i + 1; j < len(instrs) && j <= i+window; j++ {
		op := instrs[j].Op
		switch {
		case op == evm.EQ || op == evm.SUB:
			sawCompare = true
		case op == evm.JUMPI:
			return sawCompare
		case op.IsDup() || op.IsSwap() || op == evm.ISZERO:
		case op.IsPush():
		default:
			return false
		}
	}
	return false
}

// checkScanners holds the byte scans against the references on one code.
func checkScanners(t testing.TB, code []byte) {
	t.Helper()
	if got, want := disasm.Push4Candidates(code), refPush4Candidates(code); !reflect.DeepEqual(got, want) {
		t.Fatalf("Push4Candidates(%x) = %x, want %x", code, got, want)
	}
	if got, want := disasm.DispatcherSelectors(code), refDispatcherSelectors(code); !reflect.DeepEqual(got, want) {
		t.Fatalf("DispatcherSelectors(%x) = %x, want %x", code, got, want)
	}
	if got, want := disasm.DispatcherTargets(code), refDispatcherTargets(code); !reflect.DeepEqual(got, want) {
		t.Fatalf("DispatcherTargets(%x) = %v, want %v", code, got, want)
	}
	scan := disasm.ScanCode(code)
	wantOps := disasm.ContainsOp(code, evm.SLOAD) || disasm.ContainsOp(code, evm.SSTORE)
	if scan.StorageOps != wantOps {
		t.Fatalf("ScanCode(%x).StorageOps = %v, want %v", code, scan.StorageOps, wantOps)
	}
}

func TestByteScansMatchDisassemblyOnCorpora(t *testing.T) {
	g := gen.Generate(gen.Config{Seed: 17, Contracts: 96})
	if got := len(g.Shapes()); got < 9 {
		t.Fatalf("gen corpus holds %d shapes, want the full taxonomy", got)
	}
	withSelectors := 0
	for _, l := range g.Labels {
		checkScanners(t, l.Code)
		if len(disasm.DispatcherSelectors(l.Code)) > 0 {
			withSelectors++
		}
	}
	pop := dataset.Generate(dataset.Config{Seed: 17, Contracts: 400})
	for _, a := range pop.Chain.Contracts() {
		checkScanners(t, pop.Chain.Code(a))
	}
	if withSelectors < 20 {
		t.Fatalf("only %d gen contracts have a dispatcher", withSelectors)
	}
}

func TestByteScansEdgeCases(t *testing.T) {
	const (
		push0, push1, push2, push4, push32 = 0x5f, 0x60, 0x61, 0x63, 0x7f
		eq, sub, jumpi, dup1, swap1        = 0x14, 0x03, 0x57, 0x80, 0x90
		iszero, pop, add                   = 0x15, 0x50, 0x01
	)
	entry := func(sel ...byte) []byte { return append([]byte{push4}, sel...) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := map[string][]byte{
		"empty":                          nil,
		"bare PUSH4 opcode at the end":   {push4},
		"PUSH4 cut to one byte":          {push1, 0, push4, 0xaa},
		"PUSH4 cut to three bytes":       {push4, 0xaa, 0xbb, 0xcc},
		"whole PUSH4 then end":           entry(1, 2, 3, 4),
		"dispatcher entry":               cat(entry(1, 2, 3, 4), []byte{eq, push2, 0x01, 0x23, jumpi}),
		"PUSH2 target cut by the end":    cat(entry(1, 2, 3, 4), []byte{eq, push2, 0x01}),
		"PUSH2 opcode is the last byte":  cat(entry(1, 2, 3, 4), []byte{eq, push2}),
		"PUSH4 opcode byte in push data": {push32, push4, 1, 2, 3, 4, eq, push1, 9, jumpi, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, eq},
		"PUSH4 in the data of a PUSH2":   {push2, push4, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, eq, push1, 4, jumpi},
		"PUSH0 as the jump target":       cat(entry(1, 2, 3, 4), []byte{eq, push0, jumpi}),
		"no push before the JUMPI":       cat(entry(1, 2, 3, 4), []byte{eq, jumpi}),
		"SUB as the comparison":          cat(entry(1, 2, 3, 4), []byte{sub, push1, 7, jumpi}),
		"no comparison":                  cat(entry(1, 2, 3, 4), []byte{push1, 7, jumpi}),
		"a foreign op in the window":     cat(entry(1, 2, 3, 4), []byte{eq, add, push1, 7, jumpi}),
		"JUMPI is the sixth instruction": cat(entry(1, 2, 3, 4), []byte{dup1, eq, iszero, swap1, push1, 7, jumpi}),
		"JUMPI is the seventh":           cat(entry(1, 2, 3, 4), []byte{dup1, dup1, eq, iszero, swap1, push1, 7, jumpi}),
		"two pushes, the last one wins":  cat(entry(1, 2, 3, 4), []byte{eq, push1, 5, push2, 0x02, 0x00, jumpi}),
		"PUSH32 target keeps low bytes":  cat(entry(1, 2, 3, 4), []byte{eq, push32}, make([]byte, 23), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{jumpi}),
		"selector twice, first target":   cat(entry(1, 2, 3, 4), []byte{eq, push1, 5, jumpi}, entry(1, 2, 3, 4), []byte{eq, push1, 9, jumpi}),
		"first entry has no target":      cat(entry(1, 2, 3, 4), []byte{eq, jumpi}, entry(1, 2, 3, 4), []byte{eq, push1, 9, jumpi}),
		"decoy then entry, same value":   cat(entry(1, 2, 3, 4), []byte{pop}, entry(1, 2, 3, 4), []byte{eq, push1, 9, jumpi}),
		"nested PUSH4 as the target":     cat(entry(1, 2, 3, 4), []byte{eq}, entry(0, 0, 0, 8), []byte{jumpi}),
		"SLOAD byte in push data only":   {push1, 0x54, push1, 0x55, pop},
	}
	for name, code := range cases {
		t.Run(name, func(t *testing.T) { checkScanners(t, code) })
	}

	// The trap the byte scan must not fall into: a PUSH4 cut short by the
	// end of code reads zero-padded and is a candidate to avoid.
	if got := disasm.Push4Candidates([]byte{push4, 0xaa}); !reflect.DeepEqual(got, [][4]byte{{0xaa, 0, 0, 0}}) {
		t.Errorf("truncated PUSH4 candidates = %x, want the zero-padded immediate", got)
	}
	// More distinct values than the scan collects on its stack.
	var many []byte
	for i := 0; i < 100; i++ {
		many = append(many, cat(entry(byte(i), 0, 0, 1), []byte{eq, push1, byte(i), jumpi})...)
	}
	checkScanners(t, many)
	if got := len(disasm.DispatcherSelectors(many)); got != 100 {
		t.Errorf("%d selectors from a 100-entry dispatcher", got)
	}
}
