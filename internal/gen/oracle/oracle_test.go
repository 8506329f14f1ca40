package oracle

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// fixedSeeds is the corpus set every run (including -short) checks; wide
// randomized sweeps live in TestOracleSweep and the fuzz target.
var fixedSeeds = []int64{0, 1, 2, 3, 7, 42, 31337, 987654321}

// TestOracleFixedSeeds runs every differential layer on the pinned seeds.
func TestOracleFixedSeeds(t *testing.T) {
	for _, seed := range fixedSeeds {
		c := gen.Generate(gen.Config{Seed: seed})
		if ms := Run(c); len(ms) > 0 {
			t.Errorf("%s", Format(c, ms))
		}
	}
}

// TestOracleSweep is the nightly wide sweep: ORACLE_SWEEP chains (default
// 200), fresh seeds disjoint from the fixed set. When ORACLE_SWEEP is set,
// as `make fuzz` sets it, a tenth as many landscape populations follow
// through the label layers; tier-1 checks the pinned landscapes only
// (TestOracleLandscape). Skipped under -short.
func TestOracleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("wide sweep skipped in -short mode")
	}
	n, landscapes := 200, 0
	if env := os.Getenv("ORACLE_SWEEP"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("bad ORACLE_SWEEP=%q: %v", env, err)
		}
		n, landscapes = v, v/10
	}
	for i := 0; i < n; i++ {
		seed := int64(1_000_000 + i)
		c := gen.Generate(gen.Config{Seed: seed})
		if ms := Run(c); len(ms) > 0 {
			t.Errorf("%s", Format(c, ms))
			if len(ms) > 20 {
				t.Fatalf("aborting sweep after a badly failing seed")
			}
		}
	}
	for i := 0; i < landscapes; i++ {
		checkLandscape(t, dataset.Config{Seed: int64(1_000_000 + i), Contracts: 4000})
	}
}

// TestOracleStreamingConfigs stresses the parity layers across the
// engine's two knobs: from strictly serial (one worker, one contract in
// flight) through more workers than window slots to the defaults.
func TestOracleStreamingConfigs(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 5})
	ref := SequentialReference(c)
	for _, workers := range []int{1, 2, 8} {
		for _, window := range []int{1, 4, 0} {
			name := fmt.Sprintf("workers=%d window=%d", workers, window)
			opts := proxion.AnalyzeOptions{Workers: workers, Window: window}
			if ms := CheckStreaming(c, ref, opts); len(ms) > 0 {
				t.Errorf("%s: %s", name, Format(c, ms))
			}
			if ms := CheckStoreParity(c, opts); len(ms) > 0 {
				t.Errorf("%s: %s", name, Format(c, ms))
			}
		}
	}
}

// TestOracleCacheParityBounded holds the cached engine against the uncached
// sequential reference while CacheCapacity squeezes everything keyed by
// bytecode — verdicts, clone families and per-bytecode artifacts — down to
// one entry, to four, and not at all: an evicted artifact is rebuilt, never
// served stale.
func TestOracleCacheParityBounded(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 9, Contracts: 48})
	ref := SequentialReference(c)
	for _, capacity := range []int{1, 4, 0} {
		opts := proxion.AnalyzeOptions{CacheCapacity: capacity}
		if ms := CheckStreaming(c, ref, opts); len(ms) > 0 {
			t.Errorf("capacity=%d: %s", capacity, Format(c, ms))
		}
	}
}

// TestMetamorphic applies every perturbation to every eligible label of a
// few corpora and requires the invariants to hold — and the preconditions
// to be met often enough that the layer is actually exercising something.
func TestMetamorphic(t *testing.T) {
	kinds := []struct {
		name  string
		apply func(*gen.Corpus, *gen.Label) ([]Mismatch, bool)
	}{
		{"rename", MetamorphicRename},
		{"inject-function", MetamorphicInjectFunction},
		{"inject-storage", MetamorphicInjectStorage},
	}
	applied := make(map[string]int)
	for _, seed := range []int64{1, 2, 3} {
		c := gen.Generate(gen.Config{Seed: seed})
		for _, l := range c.Labels {
			for _, k := range kinds {
				ms, ok := k.apply(c, l)
				if !ok {
					continue
				}
				applied[k.name]++
				if len(ms) > 0 {
					t.Errorf("%s on %v: %s", k.name, l.Kind, Format(c, ms))
				}
			}
			// The corpus must be restored after each perturbation; the
			// fingerprint of chain code is implicitly re-checked by later
			// labels analyzing against the same chain.
		}
	}
	for _, k := range kinds {
		if applied[k.name] < 5 {
			t.Errorf("perturbation %q applied only %d times; preconditions too narrow", k.name, applied[k.name])
		}
	}
}

// TestMetamorphicRestores pins the in-place mutation contract: after a full
// metamorphic pass the corpus must be byte-identical to a fresh generation.
func TestMetamorphicRestores(t *testing.T) {
	cfg := gen.Config{Seed: 9}
	c := gen.Generate(cfg)
	want := c.Fingerprint()
	for _, l := range c.Labels {
		MetamorphicRename(c, l)
		MetamorphicInjectFunction(c, l)
		MetamorphicInjectStorage(c, l)
	}
	if got := c.Fingerprint(); got != want {
		t.Fatalf("metamorphic pass left the corpus mutated: fingerprint %x != %x", got, want)
	}
}

// TestMinimizeDemo demonstrates failing-seed minimization. The predicate
// plays the role of a buggy analyzer: it "fails" whenever the corpus
// contains a diamond (the one proxy shape emulation legitimately misses).
// The generator's coverage prefix puts the first diamond at unit index 5,
// so the minimal failing prefix is exactly 6 units, with the offending
// contract last.
func TestMinimizeDemo(t *testing.T) {
	fails := func(cfg gen.Config) bool {
		c := gen.Generate(cfg)
		ref := SequentialReference(c)
		for i, rep := range ref.Reports {
			if rep.IsProxy != c.Labels[i].IsProxy {
				return true
			}
		}
		return false
	}
	minimized, failed := gen.Minimize(gen.Config{Seed: 4}, fails)
	if !failed {
		t.Fatalf("demo predicate did not fail on the full corpus")
	}
	if minimized.Contracts != 6 {
		t.Fatalf("minimized to %d units, want 6 (diamond is coverage unit 5)", minimized.Contracts)
	}
	c := gen.Generate(minimized)
	last := c.Labels[len(c.Labels)-1]
	if last.Kind != gen.ShapeDiamond {
		t.Fatalf("minimized corpus ends in %v, want the offending diamond", last.Kind)
	}

	// A predicate that never fails must report so.
	if _, failed := gen.Minimize(gen.Config{Seed: 4}, func(gen.Config) bool { return false }); failed {
		t.Fatalf("Minimize invented a failure")
	}
}

// FuzzGeneratorOracle lets the fuzzer drive seed and corpus size through
// the full differential stack.
func FuzzGeneratorOracle(f *testing.F) {
	f.Add(int64(0), uint8(12))
	f.Add(int64(31337), uint8(24))
	f.Add(int64(-1), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, units uint8) {
		cfg := gen.Config{Seed: seed, Contracts: 1 + int(units%32)}
		c := gen.Generate(cfg)
		if ms := Run(c); len(ms) > 0 {
			t.Fatalf("%s", Format(c, ms))
		}
	})
}
