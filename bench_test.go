// Package repro_test holds the benchmark harness that regenerates every
// table and figure in the paper's evaluation. Each BenchmarkTableN /
// BenchmarkFigureN times the corresponding experiment and, on the first
// iteration, prints the reproduced rows next to the paper's reported
// values. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/experiments"
	"repro/internal/keccak"
	"repro/internal/proxion"
	"repro/internal/sigminer"
	"repro/internal/solc"
	"repro/internal/u256"
)

// benchScale is the landscape size used by the table/figure benchmarks.
// The paper operates on 36M contracts; proportions, not absolute counts,
// are the reproduction target.
const benchScale = 4000

var (
	benchOnce   sync.Once
	benchPop    *dataset.Population
	benchDet    *proxion.Detector
	benchResult *proxion.Result

	corpusOnce sync.Once
	benchCorp  *dataset.AccuracyCorpus

	printOnce sync.Map
)

func population(b *testing.B) (*dataset.Population, *proxion.Detector, *proxion.Result) {
	b.Helper()
	benchOnce.Do(func() {
		benchPop = dataset.Generate(dataset.Config{Seed: 1, Contracts: benchScale})
		benchDet = proxion.NewDetector(benchPop.Chain)
		benchResult = benchDet.AnalyzeAll(benchPop.Registry)
	})
	return benchPop, benchDet, benchResult
}

func corpus(b *testing.B) *dataset.AccuracyCorpus {
	b.Helper()
	corpusOnce.Do(func() { benchCorp = dataset.GenerateAccuracyCorpus() })
	return benchCorp
}

// report prints a table once per benchmark name, outside the timed region.
func report(b *testing.B, t *experiments.Table) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(b.Name(), true); !done {
		fmt.Println()
		fmt.Println(t.Render())
	}
}

// BenchmarkTable1Coverage regenerates the tool-coverage matrix (Table 1).
func BenchmarkTable1Coverage(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table1(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkFigure2Landscape regenerates the availability breakdown (Figure 2).
func BenchmarkFigure2Landscape(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Figure2(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkTable2Accuracy regenerates the accuracy comparison (Table 2,
// Section 6.3): all three tools run over the labeled corpus.
func BenchmarkTable2Accuracy(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table2(c)
	}
	b.StopTimer()
	report(b, res.Table())
}

// BenchmarkEffectivenessSanctuary reproduces the Section 6.2 comparison on
// the all-source subset (Proxion vs USCHunt).
func BenchmarkEffectivenessSanctuary(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.EffectivenessSanctuary(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkEffectivenessCrush reproduces the Section 6.2 comparison on the
// mixed dataset (Proxion vs CRUSH).
func BenchmarkEffectivenessCrush(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.EffectivenessCrush(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkFigure4Pairs regenerates the pair-availability series (Figure 4).
func BenchmarkFigure4Pairs(b *testing.B) {
	pop, _, res := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Figure4(pop, res)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkTable3Collisions regenerates collisions-per-year (Table 3).
func BenchmarkTable3Collisions(b *testing.B) {
	pop, det, res := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table3(pop, det, res)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkFigure5Duplicates regenerates the bytecode-uniqueness skew
// (Figure 5).
func BenchmarkFigure5Duplicates(b *testing.B) {
	pop, _, res := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Figure5(pop, res)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkTable4Standards regenerates the design-standard split (Table 4).
func BenchmarkTable4Standards(b *testing.B) {
	_, _, res := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table4(res)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkFigure6Upgrades regenerates the upgrade-count distribution
// (Figure 6) via Algorithm 1 over every storage proxy.
func BenchmarkFigure6Upgrades(b *testing.B) {
	pop, det, res := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Figure6(pop, det, res)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkProxyCheck measures the core single-contract detection latency
// (Section 6.1: 6.4 ms/contract, 156.3 contracts/s on the paper's server).
func BenchmarkProxyCheck(b *testing.B) {
	pop, det, _ := population(b)
	addrs := pop.Chain.Contracts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Check(addrs[i%len(addrs)])
	}
}

// BenchmarkLogicHistory measures Algorithm 1's archive-call efficiency
// (Section 6.1: ~26 getStorageAt calls per proxy).
func BenchmarkLogicHistory(b *testing.B) {
	pop, det, res := population(b)
	var proxies []proxion.Report
	for _, rep := range res.Proxies() {
		if rep.Target == proxion.TargetStorage {
			proxies = append(proxies, rep)
		}
	}
	if len(proxies) == 0 {
		b.Skip("no storage proxies")
	}
	pop.Chain.ResetAPICalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := proxies[i%len(proxies)]
		det.LogicHistory(rep.Address, rep.ImplSlot)
	}
	b.StopTimer()
	calls := float64(pop.Chain.APICalls()) / float64(b.N)
	b.ReportMetric(calls, "getStorageAt/op")
}

// BenchmarkFunctionCollision measures per-pair function-collision analysis
// (Section 6.1: 6.7 ms/pair on the paper's server).
func BenchmarkFunctionCollision(b *testing.B) {
	pop, det, res := population(b)
	if len(res.Pairs) == 0 {
		b.Skip("no pairs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := res.Pairs[i%len(res.Pairs)]
		det.AnalyzePair(pa.Proxy, pa.Logic, pop.Registry)
	}
}

// BenchmarkStorageCollision measures the slicing + symbolic width-inference
// engine on the Audius pair (Section 6.1: 1.3 min/pair for full CRUSH; our
// engine is narrower and faster).
func BenchmarkStorageCollision(b *testing.B) {
	proxySrc, logicSrc := audiusFixture()
	proxyCode := solc.MustCompile(proxySrc)
	logicCode := solc.MustCompile(logicSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pAcc := proxion.ExtractStorageAccesses(proxyCode)
		lAcc := proxion.ExtractStorageAccesses(logicCode)
		if len(proxion.StorageCollisions(pAcc, lAcc)) == 0 {
			b.Fatal("collision lost")
		}
	}
}

// BenchmarkSigminerThroughput measures selector-collision search speed —
// the Section 2.3 "600M attempts in 1.5h on a laptop" experiment, scaled to
// a 2-byte prefix.
func BenchmarkSigminerThroughput(b *testing.B) {
	target := keccak.Selector("free_ether_withdrawal()")
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		res, _ := sigminer.Mine(target, "impl", 2, 200_000)
		total += res.Attempts
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(b.N), "hashes/op")
}

// BenchmarkAblationNoDisasmFilter measures design choice 1 (Ablation 1).
func BenchmarkAblationNoDisasmFilter(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AblationDisasmFilter(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkAblationSelectorChoice measures design choice 2 (Ablation 2).
func BenchmarkAblationSelectorChoice(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AblationSelectorChoice(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkAblationNaiveHistoryScan measures design choice 3 (Ablation 3).
func BenchmarkAblationNaiveHistoryScan(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AblationHistorySearch(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkAblationNaivePush4 measures design choice 4 (Ablation 4).
func BenchmarkAblationNaivePush4(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AblationNaivePush4(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkAblationNoDedup measures design choice 5 (Ablation 5).
func BenchmarkAblationNoDedup(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.AblationDedup(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkExtensionDiamond measures the Section 8.2 history-assisted
// diamond detection extension.
func BenchmarkExtensionDiamond(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.ExtensionDiamond(pop)
	}
	b.StopTimer()
	report(b, t)
}

// BenchmarkAnalyzeAll measures the end-to-end pipeline throughput over the
// whole landscape (Section 6.1's 36M-in-65h headline, scaled).
func BenchmarkAnalyzeAll(b *testing.B) {
	pop, _, _ := population(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := proxion.NewDetector(pop.Chain)
		res := det.AnalyzeAll(pop.Registry)
		if len(res.Proxies()) == 0 {
			b.Fatal("no proxies found")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pop.Chain.Contracts())), "contracts/op")
}

// audiusFixture rebuilds the Listing 2 pair for microbenchmarks.
func audiusFixture() (*solc.Contract, *solc.Contract) {
	implSlot := etypes.HashFromWord(u256.One())
	proxy := &solc.Contract{
		Name: "AudiusProxyBench",
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "logic", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "proxyOwner"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
			{ABI: abi.Function{Name: "upgradeTo", Params: []string{"address"}},
				Body: []solc.Stmt{
					solc.RequireCallerIs{Var: "owner"},
					solc.AssignArg{Var: "logic", Arg: 0},
				}},
		},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: implSlot},
	}
	logic := &solc.Contract{
		Name: "AudiusLogicBench",
		Vars: []solc.Var{
			{Name: "initialized", Type: solc.TypeBool},
			{Name: "initializing", Type: solc.TypeBool},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "initialize"}, Body: []solc.Stmt{
				solc.RequireInitializable{Initialized: "initialized", Initializing: "initializing"},
				solc.AssignConst{Var: "initialized", Value: u256.One()},
				solc.AssignCallerToSlot{Slot: etypes.Hash{}, Offset: 0, Size: 20},
			}},
		},
	}
	return proxy, logic
}

// BenchmarkMultiChain measures the Section 8.2 cross-network sweep: five
// EVM chains analyzed by the unchanged pipeline.
func BenchmarkMultiChain(b *testing.B) {
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.MultiChain(900, 500)
	}
	b.StopTimer()
	report(b, t)
}
