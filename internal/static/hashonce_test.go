package static

import (
	"hash/maphash"
	"reflect"
	"testing"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/keccak"
)

// maskedStream is the stream Fingerprint and FamilyKey hash, materialised:
// code with the immediates of its maskWidth+ PUSHes left out.
func maskedStream(code []byte) []byte {
	buf := make([]byte, 0, len(code))
	for pc := 0; pc < len(code); {
		op := evm.Op(code[pc])
		buf = append(buf, code[pc])
		pc++
		w := op.PushSize()
		if w == 0 {
			continue
		}
		end := pc + w
		if end > len(code) {
			end = len(code)
		}
		if w < maskWidth {
			buf = append(buf, code[pc:end]...)
		}
		pc = end
	}
	return buf
}

// fingerprintBuffered is the fingerprint as first written: materialise the
// masked stream, then hash it in one shot. Fingerprint streams the same
// bytes and must agree on every input.
func fingerprintBuffered(code []byte) etypes.Hash {
	return etypes.Keccak(maskedStream(code))
}

// taxonomy is a gen corpus wide enough to hold every shape (the generator
// deals one of each before drawing randomly).
func taxonomy(t testing.TB) *gen.Corpus {
	t.Helper()
	c := gen.Generate(gen.Config{Seed: 7, Contracts: 32})
	if got := len(c.Shapes()); got < 9 {
		t.Fatalf("corpus holds %d shapes, want the full taxonomy", got)
	}
	return c
}

// TestAnalyzeBlocksEqualsAnalyze is the hash-once contract: handed the
// basic blocks and the two true hashes, AnalyzeBlocks returns Analyze's
// summary field for field — and it hashes nothing itself, neither to
// recompute them (sentinels come back untouched) nor for any other reason
// (no sponge runs).
func TestAnalyzeBlocksEqualsAnalyze(t *testing.T) {
	sentinelHash, sentinelFP := etypes.Hash{0: 0xaa}, etypes.Hash{0: 0xbb}
	for _, l := range taxonomy(t).Labels {
		want := Analyze(l.Code)
		if want.CodeHash != etypes.Keccak(l.Code) || want.Fingerprint != fingerprintBuffered(l.Code) {
			t.Fatalf("%v: Analyze hashes wrong: %+v", l.Kind, want)
		}
		blocks := disasm.BasicBlocks(l.Code)
		var got *Summary
		runs := keccak.CountSponges(func() {
			got = AnalyzeBlocks(l.Code, blocks, want.CodeHash, want.Fingerprint)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: AnalyzeBlocks differs from Analyze:\n got %+v\nwant %+v", l.Kind, got, want)
		}
		if runs != 0 {
			t.Errorf("%v: AnalyzeBlocks ran %d sponges, want 0", l.Kind, runs)
		}
		marked := AnalyzeBlocks(l.Code, blocks, sentinelHash, sentinelFP)
		if marked.CodeHash != sentinelHash || marked.Fingerprint != sentinelFP {
			t.Errorf("%v: AnalyzeBlocks replaced the caller's hashes", l.Kind)
		}
	}
}

// TestFingerprintStreamsSameBytes covers the shapes where the run
// bookkeeping could slip: masked immediates back to back, first and last,
// truncated by the end of code, and the widths on either side of the mask.
// FamilyKey walks the same runs into its own hash, and must hash the same
// stream.
func TestFingerprintStreamsSameBytes(t *testing.T) {
	push := func(w int) []byte {
		out := []byte{byte(evm.PUSH1) + byte(w-1)}
		for i := 0; i < w; i++ {
			out = append(out, byte(0xc0+i))
		}
		return out
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := [][]byte{
		nil,
		{0x00},
		push(19),
		push(20),
		push(32),
		cat(push(20), push(32)),
		cat([]byte{0x5b}, push(20), []byte{0x5b}, push(19), push(32), []byte{0x56}),
		push(32)[:10],              // wide push cut short by the end of code
		cat(push(4), push(20)[:1]), // wide push with no immediate at all
		disasm.MinimalProxyRuntime(etypes.MustAddress("0x00000000000000000000000000000000000000aa")),
	}
	for _, l := range taxonomy(t).Labels {
		cases = append(cases, l.Code)
	}
	for i, code := range cases {
		if got, want := Fingerprint(code), fingerprintBuffered(code); got != want {
			t.Errorf("case %d (%d bytes): streamed %s, buffered %s", i, len(code), got, want)
		}
		if got, want := FamilyKey(code), maphash.Bytes(familySeed, maskedStream(code)); got != want {
			t.Errorf("case %d (%d bytes): family key %#x, of the buffered stream %#x", i, len(code), got, want)
		}
	}
}

func TestFingerprintDoesNotAllocate(t *testing.T) {
	for _, l := range taxonomy(t).Labels {
		code := l.Code
		if n := testing.AllocsPerRun(20, func() { Fingerprint(code) }); n != 0 {
			t.Fatalf("%v: Fingerprint allocates %v times per call", l.Kind, n)
		}
	}
}

// TestFamilyKeyIsCheap: the key that finds a near-clone's family allocates
// nothing and runs no Keccak sponge.
func TestFamilyKeyIsCheap(t *testing.T) {
	for _, l := range taxonomy(t).Labels {
		code := l.Code
		if n := testing.AllocsPerRun(20, func() { FamilyKey(code) }); n != 0 {
			t.Fatalf("%v: FamilyKey allocates %v times per call", l.Kind, n)
		}
		if runs := keccak.CountSponges(func() { FamilyKey(code) }); runs != 0 {
			t.Fatalf("%v: FamilyKey ran %d sponges, want 0", l.Kind, runs)
		}
	}
}
