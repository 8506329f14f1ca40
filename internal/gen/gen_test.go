package gen

import (
	"testing"

	"repro/internal/disasm"
	"repro/internal/evm"
)

// TestDeterminism: equal configs must produce byte-identical corpora.
func TestDeterminism(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, 31337} {
		a := Generate(Config{Seed: seed})
		b := Generate(Config{Seed: seed})
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("seed %d: corpora differ across runs", seed)
		}
	}
	if Generate(Config{Seed: 1}).Fingerprint() == Generate(Config{Seed: 2}).Fingerprint() {
		t.Fatalf("different seeds produced identical corpora")
	}
}

// TestShapeCoverage: any corpus with at least len(allShapes) units carries
// the full taxonomy — all 9 primary shapes plus auxiliary logic contracts,
// of which at least 3 are non-proxy.
func TestShapeCoverage(t *testing.T) {
	c := Generate(Config{Seed: 7, Contracts: len(allShapes)})
	seen := make(map[Shape]int)
	negatives := 0
	for _, l := range c.Labels {
		seen[l.Kind]++
		if !l.IsProxy {
			negatives++
		}
	}
	for _, s := range allShapes {
		if seen[s] == 0 {
			t.Errorf("shape %v missing from coverage prefix", s)
		}
	}
	if seen[ShapeLogic] == 0 {
		t.Errorf("no auxiliary logic contracts generated")
	}
	if len(seen) < 8 {
		t.Errorf("only %d distinct shapes, want >= 8", len(seen))
	}
	if negatives < 3 {
		t.Errorf("only %d negative labels, want >= 3", negatives)
	}
}

// TestPrefixStability: the corpus at k units must be an exact prefix of the
// corpus at n>k units with the same seed — the property seed minimization
// relies on.
func TestPrefixStability(t *testing.T) {
	small := Generate(Config{Seed: 11, Contracts: 10})
	big := Generate(Config{Seed: 11, Contracts: 30})
	if len(big.Labels) < len(small.Labels) {
		t.Fatalf("bigger corpus has fewer labels")
	}
	for i, l := range small.Labels {
		bl := big.Labels[i]
		if l.Address != bl.Address || l.Kind != bl.Kind || l.Unit != bl.Unit {
			t.Fatalf("label %d diverges: %v/%v vs %v/%v", i, l.Kind, l.Address, bl.Kind, bl.Address)
		}
		if string(l.Code) != string(bl.Code) {
			t.Fatalf("label %d (%v): bytecode diverges between corpus sizes", i, l.Kind)
		}
	}
}

// TestLabelInternalConsistency cross-checks labels against the installed
// artifacts: the delegatecall flag against a real opcode scan, minimal
// proxies against the canonical 1167 decoder, storage proxies against the
// chain's implementation-slot value.
func TestLabelInternalConsistency(t *testing.T) {
	c := Generate(Config{Seed: 3, Contracts: 40})
	for _, l := range c.Labels {
		if got := disasm.ContainsOp(l.Code, evm.DELEGATECALL); got != l.HasDelegateCall {
			t.Errorf("%v %v: HasDelegateCall label %v, opcode scan %v", l.Kind, l.Address, l.HasDelegateCall, got)
		}
		switch l.Kind {
		case ShapeMinimalProxy:
			target, ok := disasm.MinimalProxyTarget(l.Code)
			if !ok || target != l.Logic {
				t.Errorf("minimal proxy %v: decoded target %v ok=%v, label %v", l.Address, target, ok, l.Logic)
			}
		case ShapeEIP1967Proxy, ShapeEIP1822Proxy, ShapeAdHocProxy:
			if !l.TargetStorage {
				t.Errorf("%v %v: storage proxy not labeled TargetStorage", l.Kind, l.Address)
			}
			v := c.Chain.GetState(l.Address, l.ImplSlot)
			var got [20]byte
			copy(got[:], v[12:])
			if got != [20]byte(l.Logic) {
				t.Errorf("%v %v: impl slot holds %x, label logic %v", l.Kind, l.Address, v, l.Logic)
			}
		}
		if l.HasSource && c.Registry.Source(l.Address) == nil {
			t.Errorf("%v %v: labeled HasSource but registry has none", l.Kind, l.Address)
		}
		if !l.HasSource && c.Registry.Source(l.Address) != nil {
			t.Errorf("%v %v: source published but label says none", l.Kind, l.Address)
		}
	}
}

// TestReproString pins the failure-report format.
func TestReproString(t *testing.T) {
	got := Config{Seed: 5}.Repro()
	want := "gen.Generate(gen.Config{Seed: 5, Contracts: 24})"
	if got != want {
		t.Fatalf("Repro() = %q, want %q", got, want)
	}
}
