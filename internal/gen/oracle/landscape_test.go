package oracle

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// landscapeSeeds are the pinned landscape populations every run checks.
var landscapeSeeds = []int64{1, 7}

// checkLandscape runs the label layers over one landscape population's
// alive contracts, renders any mismatch with the population's reproduction
// hint, and returns the corpus it checked.
func checkLandscape(t *testing.T, cfg dataset.Config) *gen.Corpus {
	t.Helper()
	c := dataset.Generate(cfg).Corpus()
	ref := SequentialReference(c)
	ms := CheckDetector(c, ref.Reports)
	ms = append(ms, CheckPairs(c, ref.Pairs)...)
	ms = append(ms, CheckStaticParity(c)...)
	if len(ms) == 0 {
		return c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d mismatch(es) on dataset.Generate(dataset.Config{Seed: %d, Contracts: %d}):\n",
		len(ms), cfg.Seed, cfg.Contracts)
	for i, m := range ms {
		if i == 20 {
			fmt.Fprintf(&b, "  ... %d more\n", len(ms)-i)
			break
		}
		b.WriteString("  " + m.String() + "\n")
	}
	t.Error(b.String())
	return c
}

// TestOracleLandscape holds the detector, the pair analysis and the static
// analyzer to the labels of every alive contract in the pinned landscapes,
// which hold every alive landscape kind: the catalogue shapes gen's own
// corpora do not draw.
func TestOracleLandscape(t *testing.T) {
	for _, seed := range landscapeSeeds {
		c := checkLandscape(t, dataset.Config{Seed: seed, Contracts: 4000})
		present := make(map[gen.Shape]bool)
		for _, s := range c.Shapes() {
			present[s] = true
		}
		for _, k := range []dataset.Kind{
			dataset.KindPlain, dataset.KindToken, dataset.KindMinimalProxy,
			dataset.KindOwnableProxy, dataset.KindEIP1967Proxy, dataset.KindEIP1822Proxy,
			dataset.KindAdHocProxy, dataset.KindHoneypotProxy, dataset.KindAudiusProxy,
			dataset.KindDiamond, dataset.KindLibraryUser, dataset.KindLibrary,
			dataset.KindBroken, dataset.KindHostileProxy, dataset.KindLogic,
		} {
			if !present[k] {
				t.Errorf("seed %d: landscape has no alive %v", seed, k)
			}
		}
	}
}
