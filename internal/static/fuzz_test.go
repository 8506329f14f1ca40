package static

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/solc"
)

// FuzzStaticAnalyze asserts the static layer is total and deterministic on
// arbitrary bytecode: the CFG builder and abstract interpreter must
// terminate without panicking on truncated PUSH data, undefined opcodes,
// unreachable or missing JUMPDESTs, and adversarial loop shapes — and two
// analyses of the same bytes must agree exactly, since verdict promotion
// keys on the summary.
func FuzzStaticAnalyze(f *testing.F) {
	// Seed with the generator's full taxonomy (proxies, negatives,
	// collision pairs) so mutation starts from realistic compiler output.
	corpus := gen.Generate(gen.Config{Seed: 7, Contracts: 16})
	seen := make(map[etypes.Hash]bool)
	for _, l := range corpus.Labels {
		h := etypes.Keccak(l.Code)
		if !seen[h] {
			seen[h] = true
			f.Add(l.Code)
		}
	}
	f.Add(disasm.MinimalProxyRuntime(etypes.MustAddress("0x00000000000000000000000000000000000000aa")))
	f.Add([]byte{})
	f.Add([]byte{0x7f, 0x01})             // truncated PUSH32
	f.Add([]byte{0x5b, 0x60, 0x00, 0x56}) // tight jump loop

	f.Fuzz(func(t *testing.T, code []byte) {
		sum, cfg := AnalyzeWithCFG(code)
		if sum == nil || cfg == nil {
			t.Fatal("nil analysis result")
		}
		if sum.Blocks != len(cfg.Blocks) {
			t.Fatalf("summary blocks %d != cfg blocks %d", sum.Blocks, len(cfg.Blocks))
		}
		if sum.ReachableBlocks > sum.Blocks {
			t.Fatalf("reachable %d > blocks %d", sum.ReachableBlocks, sum.Blocks)
		}
		for i, succs := range cfg.Succs {
			for _, j := range succs {
				if j < 0 || j >= len(cfg.Blocks) {
					t.Fatalf("edge %d->%d out of range", i, j)
				}
			}
		}
		for i := 1; i < len(sum.Delegates); i++ {
			if sum.Delegates[i-1].PC >= sum.Delegates[i].PC {
				t.Fatalf("delegates not strictly PC-ordered: %+v", sum.Delegates)
			}
		}
		if sum.Fingerprint != Fingerprint(code) {
			t.Fatal("summary fingerprint disagrees with Fingerprint()")
		}
		if sum.Fingerprint != fingerprintBuffered(code) {
			t.Fatal("streamed fingerprint disagrees with the buffered form")
		}
		if blocks := AnalyzeBlocks(code, disasm.BasicBlocks(code), sum.CodeHash, sum.Fingerprint); !reflect.DeepEqual(sum, blocks) {
			t.Fatalf("AnalyzeBlocks differs from Analyze:\n%+v\n%+v", sum, blocks)
		}
		again := Analyze(code)
		if !reflect.DeepEqual(sum, again) {
			t.Fatalf("nondeterministic analysis:\n%+v\n%+v", sum, again)
		}
	})
}

// FuzzFamilyKey holds the structural cache tier's family key to the
// fingerprint it stands in for: two codes share a FamilyKey exactly when
// they share a Fingerprint. Both hash one masked stream, so a failure is a
// slip in the shared walk or a 64-bit collision found by the fuzzer.
func FuzzFamilyKey(f *testing.F) {
	// The generator's corpus, each code with its successor (other shapes)
	// and with itself (a duplicate).
	corpus := gen.Generate(gen.Config{Seed: 7, Contracts: 16})
	for i, l := range corpus.Labels {
		f.Add(l.Code, l.Code)
		if i > 0 {
			f.Add(corpus.Labels[i-1].Code, l.Code)
		}
	}
	// EIP-1167 stamps and storage twins: near-clones one family apart.
	f.Add(disasm.MinimalProxyRuntime(addrA), disasm.MinimalProxyRuntime(addrB))
	twin := func(slot etypes.Hash) []byte {
		return solc.MustCompile(&solc.Contract{Name: "Twin", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}})
	}
	f.Add(twin(etypes.Keccak([]byte("slot.a"))), twin(etypes.Keccak([]byte("slot.b"))))
	// A PUSH32 cut short by the end of code, and wide pushes at the first
	// and the last byte.
	f.Add([]byte{0x60, 0x01, 0x7f, 0x01, 0x02}, []byte{0x60, 0x01, 0x7f, 0xff})
	f.Add(append([]byte{0x73}, make([]byte, 20)...), append([]byte{0x73}, bytes.Repeat([]byte{0xff}, 20)...))
	f.Add([]byte{0x5b, 0x7f}, []byte{0x5b, 0x73})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		sameFP := Fingerprint(a) == Fingerprint(b)
		sameKey := FamilyKey(a) == FamilyKey(b)
		if sameFP != sameKey {
			t.Fatalf("fingerprints equal %v, family keys equal %v\na %x\nb %x", sameFP, sameKey, a, b)
		}
	})
}
