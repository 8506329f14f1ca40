package evm_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/u256"
)

// corpusSender is the synthetic caller the corpus probes run as, mirroring
// the detector's own probe sender.
var corpusSender = etypes.MustAddress("0x00000000000000000000000000000000deca0de0")

// corpusStepLimit matches the detector's emulation step budget, so parity
// covers exactly the executions the detector performs in production.
const corpusStepLimit = 1 << 18

// corpusParity executes every labeled contract of c under both the
// reference and the pre-decoded fast interpreter and diffs all
// observables, one line per divergence. Each contract runs twice: once with
// the detector's crafted unknown-selector probe — the exact call the
// emulation layer issues — and once with empty calldata, which takes the
// fallback path through dispatcher shapes. The probe run is repeated with a
// tracer that halts it where the detector's does (checkHaltParity).
// parityRun snapshots and reverts around each execution, so the corpus
// chain is unchanged.
func corpusParity(c *gen.Corpus) []string {
	var out []string
	for _, l := range c.Labels {
		for _, input := range [][]byte{proxion.CraftCallData(l.Address, l.Code), nil} {
			spec := paritySpec{
				Caller:    corpusSender,
				To:        l.Address,
				Input:     input,
				Gas:       5_000_000,
				Value:     u256.Zero(),
				Block:     evm.DefaultBlockContext(),
				Tx:        evm.TxContext{Origin: corpusSender},
				StepLimit: corpusStepLimit,
				Lenient:   true,
			}
			ms := checkParity(c.Chain, spec)
			kind := "empty"
			if len(input) > 0 {
				kind = "probe"
				// The detector's tracer halts a proxy's probe at the first
				// nested frame; both loops must unwind from there alike.
				ms = append(ms, checkHaltParity(c.Chain, spec, 2)...)
			}
			for _, m := range ms {
				out = append(out, fmt.Sprintf("%s %s input=%s: %s", l.Address, l.Kind, kind, m))
			}
		}
	}
	return out
}

// checkCorpus generates cfg's corpus and reports its divergences, if any,
// with the command line that reproduces it. It returns their number.
func checkCorpus(t *testing.T, cfg gen.Config) int {
	t.Helper()
	c := gen.Generate(cfg)
	ms := corpusParity(c)
	if len(ms) > 0 {
		t.Errorf("%d mismatch(es) on %s:\n  %s", len(ms), c.Config.Repro(), strings.Join(ms, "\n  "))
	}
	return len(ms)
}

// TestInterpParityFixedSeeds runs the corpus layer on the pinned seeds,
// the full default taxonomy, diamonds and beacons included.
func TestInterpParityFixedSeeds(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 42, 31337, 987654321} {
		checkCorpus(t, gen.Config{Seed: seed})
	}
}

// sweepSize reads a seed count from the environment, def when unset.
func sweepSize(t *testing.T, env string, def int) int {
	v := os.Getenv(env)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("bad %s=%q: %v", env, v, err)
	}
	return n
}

// TestInterpParitySweep is the nightly widening over fresh seeds disjoint
// from the pinned ones: INTERP_SWEEP seeds from 2,000,000 (default 100),
// and ORACLE_SWEEP seeds from 1,000,000 (default 200), the range the
// differential oracle's sweep checks. Skipped under -short.
func TestInterpParitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("interp sweep skipped in -short mode")
	}
	for _, r := range []struct {
		first int64
		n     int
	}{
		{2_000_000, sweepSize(t, "INTERP_SWEEP", 100)},
		{1_000_000, sweepSize(t, "ORACLE_SWEEP", 200)},
	} {
		for i := 0; i < r.n; i++ {
			if checkCorpus(t, gen.Config{Seed: r.first + int64(i)}) > 20 {
				t.Fatalf("aborting sweep after a badly failing seed")
			}
		}
	}
}

// FuzzGeneratorInterpParity lets the fuzzer drive seed and corpus size, as
// FuzzGeneratorOracle does, through the corpus layer. Registered in `make
// fuzz`.
func FuzzGeneratorInterpParity(f *testing.F) {
	f.Add(int64(0), uint8(12))
	f.Add(int64(31337), uint8(24))
	f.Add(int64(-1), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, units uint8) {
		if checkCorpus(t, gen.Config{Seed: seed, Contracts: 1 + int(units%32)}) > 0 {
			t.FailNow()
		}
	})
}
