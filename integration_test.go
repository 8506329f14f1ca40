package repro_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/crush"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/experiments"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
	"repro/internal/uschunt"
)

// TestEndToEndLandscape runs the complete pipeline — generation, detection,
// pairing, collision analysis — and checks the aggregate invariants the
// paper's evaluation rests on.
func TestEndToEndLandscape(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 99, Contracts: 1500})
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)

	if len(res.Reports) == 0 {
		t.Fatal("no contracts analyzed")
	}

	// Detection agrees with ground truth modulo the documented blind spots.
	var missed, spurious int
	for _, rep := range res.Reports {
		l := pop.ByAddr[rep.Address]
		if l == nil {
			continue
		}
		if l.Detectable && !rep.IsProxy {
			missed++
		}
		if !l.IsProxy && rep.IsProxy {
			spurious++
		}
	}
	if missed != 0 || spurious != 0 {
		t.Errorf("detector vs ground truth: %d missed, %d spurious", missed, spurious)
	}

	// Every detected pair's logic matches the label's current logic.
	for _, pa := range res.Pairs {
		l := pop.ByAddr[pa.Proxy]
		if l == nil {
			continue
		}
		if l.Logic != pa.Logic {
			t.Errorf("%s: pair logic %s, label logic %s (kind %s)",
				pa.Proxy, pa.Logic, l.Logic, l.Kind)
		}
	}

	// Ground-truth collisions are all found.
	idx := experiments.NewIndex(res)
	for _, l := range pop.Labels {
		pa := idx[l.Address].Pair
		if pa == nil {
			pa = &proxion.PairAnalysis{}
		}
		if len(l.FuncCollisions) > 0 && len(pa.Functions) == 0 {
			t.Errorf("%s (%s): labeled function collision not detected", l.Address, l.Kind)
		}
		if l.StorageCollision {
			if len(pa.Storage) == 0 {
				t.Errorf("%s (%s): labeled storage collision not detected", l.Address, l.Kind)
			}
			// The Audius pair is built to be exploitable, so its replay
			// must succeed; the collision an upgrade opens is not built to be.
			if l.Kind == dataset.KindAudiusProxy && !pa.ExploitVerified {
				t.Errorf("%s (%s): labeled storage collision not verified", l.Address, l.Kind)
			}
		}
	}
}

// TestEndToEndToolDisagreements verifies the characteristic tool
// disagreements the paper's comparison hinges on, on one shared landscape.
func TestEndToEndToolDisagreements(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 7, Contracts: 1500})
	det := proxion.NewDetector(pop.Chain)
	hunt := uschunt.New(pop.Registry)
	cr := crush.New(pop.Chain)

	var hiddenFoundByProxion, hiddenFoundByCrush, hiddenFoundByHunt int
	var libraryFPByCrush, libraryFPByProxion int

	for _, l := range pop.Labels {
		switch {
		case l.Detectable && !l.HasSource && !l.HasTx:
			if det.Check(l.Address).IsProxy {
				hiddenFoundByProxion++
			}
			if cr.IsProxy(l.Address) {
				hiddenFoundByCrush++
			}
			if hunt.DetectProxy(l.Address).Detected {
				hiddenFoundByHunt++
			}
		case l.Kind == dataset.KindLibraryUser:
			if cr.IsProxy(l.Address) {
				libraryFPByCrush++
			}
			if det.Check(l.Address).IsProxy {
				libraryFPByProxion++
			}
		}
	}

	if hiddenFoundByProxion == 0 {
		t.Error("Proxion found no hidden proxies")
	}
	if hiddenFoundByCrush != 0 || hiddenFoundByHunt != 0 {
		t.Errorf("baselines saw hidden proxies: crush=%d hunt=%d",
			hiddenFoundByCrush, hiddenFoundByHunt)
	}
	if libraryFPByCrush == 0 {
		t.Error("CRUSH produced no library false positives — the comparison loses its point")
	}
	if libraryFPByProxion != 0 {
		t.Errorf("Proxion misclassified %d library callers", libraryFPByProxion)
	}
}

// TestEndToEndHoneypotScenario is the Listing 1 walkthrough as a test.
func TestEndToEndHoneypotScenario(t *testing.T) {
	c := chain.New()
	victim := etypes.MustAddress("0x000000000000000000000000000000000000f00d")

	logic := &solc.Contract{
		Name: "Lure",
		Funcs: []solc.Func{{
			ABI:  abi.Function{Name: "free_ether_withdrawal"},
			Body: []solc.Stmt{solc.SendToCaller{Amount: u256.FromUint64(10)}},
		}},
	}
	logicAddr := etypes.MustAddress("0x0000000000000000000000000000000000006001")
	c.InstallContract(logicAddr, solc.MustCompile(logic))

	implSlot := etypes.HashFromWord(u256.One())
	trapMarker := u256.MustHex("0xdead")
	proxy := &solc.Contract{
		Name: "Trap",
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "logic", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{{
			ABI:  abi.Function{Name: "impl_LUsXCWD2AKCc"},
			Body: []solc.Stmt{solc.ReturnConst{Value: trapMarker}},
		}},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: implSlot},
	}
	proxyAddr := etypes.MustAddress("0x0000000000000000000000000000000000006002")
	c.InstallContract(proxyAddr, solc.MustCompile(proxy))
	c.SetStorageDirect(proxyAddr, implSlot, etypes.HashFromWord(logicAddr.Word()))

	// The victim's call to the lure lands in the trap.
	rc := c.Execute(victim, proxyAddr, abi.EncodeCall(abi.SelectorOf("free_ether_withdrawal()")), 0, u256.Zero())
	if !rc.Status {
		t.Fatalf("trap call failed: %v", rc.Err)
	}
	if got := u256.FromBytes(rc.Output); !got.Eq(trapMarker) {
		t.Fatalf("victim got %s — the lure executed instead of the trap?!", got)
	}

	// Proxion detects the collision without source or transactions... the
	// single victim tx exists, but the bytecode path alone must suffice.
	det := proxion.NewDetector(c)
	pa := det.AnalyzePair(proxyAddr, logicAddr, nil)
	if len(pa.Functions) != 1 {
		t.Fatalf("function collisions = %d, want 1", len(pa.Functions))
	}
	want := [4]byte{0xdf, 0x4a, 0x31, 0x06}
	if pa.Functions[0].Selector != want {
		t.Errorf("selector = %x, want df4a3106", pa.Functions[0].Selector)
	}
}

// TestEndToEndAccuracyCorpusStable pins the Table 2 confusion matrices at
// the integration level: any analyzer regression that shifts a cell fails
// here with a readable diff.
func TestEndToEndAccuracyCorpusStable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second corpus analysis")
	}
	res := experiments.Table2(dataset.GenerateAccuracyCorpus())
	want := map[string][4]int{
		"storage/USCHunt":  {33, 83, 79, 11},
		"storage/CRUSH":    {26, 76, 86, 18},
		"storage/Proxion":  {27, 28, 134, 17},
		"function/USCHunt": {299, 1, 0, 261},
		"function/Proxion": {557, 0, 1, 3},
	}
	got := map[string]experiments.Confusion{
		"storage/USCHunt":  res.StorageUSCHunt,
		"storage/CRUSH":    res.StorageCRUSH,
		"storage/Proxion":  res.StorageProxion,
		"function/USCHunt": res.FuncUSCHunt,
		"function/Proxion": res.FuncProxion,
	}
	for name, w := range want {
		g := got[name]
		if g.TP != w[0] || g.FP != w[1] || g.TN != w[2] || g.FN != w[3] {
			t.Errorf("%s: got %+v, want TP/FP/TN/FN %v (paper Table 2)", name, g, w)
		}
	}
}
