package evm_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/evm"
	"repro/internal/gen"
)

// decodeEdgeShapes are the byte shapes where the compact decoder's
// immediate encoding could part from the two-pass reference: pushes cut
// short by the end of code on either side of the 8-byte inline read,
// values either side of the small words, PUSH0, JUMPDEST bytes inside push
// data, dispatcher and dup dests at and past 2^32 and past 2^64, and PUSH9+
// static jumps.
func decodeEdgeShapes() map[string][]byte {
	const (
		push0, push1, push2, push4, push5 = 0x5f, 0x60, 0x61, 0x63, 0x64
		push8, push9, push32              = 0x67, 0x68, 0x7f
		eq, jump, jumpi, jumpdest         = 0x14, 0x56, 0x57, 0x5b
		dup1, swap16, pop, stop           = 0x80, 0x9f, 0x50, 0x00
	)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	zeros := func(n int) []byte { return make([]byte, n) }
	sel := []byte{push4, 0xde, 0xad, 0xbe, 0xef, eq}
	return map[string][]byte{
		"empty":                     nil,
		"truncated PUSH1":           {push1},
		"truncated PUSH8":           {stop, push8, 1, 2, 3},
		"truncated PUSH9":           {push9, 1, 2},
		"truncated PUSH32":          {push32, 0xaa},
		"whole PUSH8 at the end":    {push8, 1, 2, 3, 4, 5, 6, 7, 8},
		"whole PUSH9 at the end":    {push9, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"PUSH2 either side of 255":  {push2, 0, 0xff, push2, 1, 0, stop},
		"PUSH0 alone":               {push0},
		"PUSH0 jump":                {push0, jump},
		"PUSH0 as a dispatch dest":  cat(sel, []byte{push0, jumpi}),
		"JUMPDEST inside push data": {push2, jumpdest, jumpdest, jumpdest, stop},
		"forward and backward jump": {push1, 4, jump, stop, jumpdest, push1, 4, jumpi},
		"dispatch dest 2^32":        cat(sel, []byte{push5, 1, 0, 0, 0, 0, jumpi}),
		"dispatch dest 2^64-1":      cat(sel, []byte{push8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, jumpi}),
		"dispatch PUSH9 dest fits":  cat(sel, []byte{push9, 0, 0, 0, 0, 0, 0, 0, 0, 17, jumpi, jumpdest}),
		"dispatch dest past 2^64":   cat(sel, []byte{push9, 1}, zeros(8), []byte{jumpi}),
		"dup PUSH32 dest fits":      cat([]byte{dup1, push32}, zeros(31), []byte{35, jumpi, jumpdest}),
		"dup dest past 2^64":        cat([]byte{dup1, push32, 0xff}, zeros(31), []byte{jumpi}),
		"PUSH9 jump":                cat([]byte{push9}, zeros(8), []byte{11, jump, jumpdest}),
		"PUSH32 jumpi":              cat([]byte{push32}, zeros(31), []byte{34, jumpi, jumpdest}),
		"PUSH32 jump past 2^64":     cat([]byte{push32, 1}, zeros(31), []byte{jump}),
		"dispatch cut before JUMPI": cat(sel, []byte{push2, 0, 9}),
		"swap16 pop":                {swap16, pop},
	}
}

// TestDecodeMatchesReference holds the single-pass decoder to the frozen
// two-pass one, instruction for instruction, over the gen taxonomy, a
// dataset landscape and the edge shapes.
func TestDecodeMatchesReference(t *testing.T) {
	check := func(name string, code []byte) {
		t.Helper()
		if d := evm.DiffDecode(code); d != "" {
			t.Fatalf("%s (%x): %s", name, code, d)
		}
	}
	g := gen.Generate(gen.Config{Seed: 17, Contracts: 96})
	if got := len(g.Shapes()); got < 9 {
		t.Fatalf("gen corpus holds %d shapes, want the full taxonomy", got)
	}
	for _, l := range g.Labels {
		check(l.Kind.String(), l.Code)
	}
	pop := dataset.Generate(dataset.Config{Seed: 17, Contracts: 400})
	for _, a := range pop.Chain.Contracts() {
		check(a.String(), pop.Chain.Code(a))
	}
	for name, code := range decodeEdgeShapes() {
		check(name, code)
	}
}

// FuzzDecode: on arbitrary bytes the single-pass decoder equals the
// two-pass reference.
func FuzzDecode(f *testing.F) {
	for _, code := range decodeEdgeShapes() {
		f.Add(code)
	}
	seedFuzzWithGeneratedCode(func(code []byte) { f.Add(code) })
	f.Fuzz(func(t *testing.T, code []byte) {
		if d := evm.DiffDecode(code); d != "" {
			t.Fatalf("%x: %s", code, d)
		}
	})
}
