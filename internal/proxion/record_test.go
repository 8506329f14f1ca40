package proxion

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/solc"
)

// countingReader counts the per-account reads an analysis makes.
type countingReader struct {
	chain.Reader
	code, codeHash, getState atomic.Int64
}

func (r *countingReader) Code(a etypes.Address) []byte {
	r.code.Add(1)
	return r.Reader.Code(a)
}

func (r *countingReader) CodeHash(a etypes.Address) etypes.Hash {
	r.codeHash.Add(1)
	return r.Reader.CodeHash(a)
}

func (r *countingReader) GetState(a etypes.Address, k etypes.Hash) etypes.Hash {
	r.getState.Add(1)
	return r.Reader.GetState(a, k)
}

// readsOf runs fn and returns the Code, CodeHash and GetState reads it made.
func (r *countingReader) readsOf(fn func()) [3]int64 {
	before := [3]int64{r.code.Load(), r.codeHash.Load(), r.getState.Load()}
	fn()
	return [3]int64{r.code.Load() - before[0], r.codeHash.Load() - before[1], r.getState.Load() - before[2]}
}

// TestExactHitReadBudget pins the node reads of one AnalyzeAddress call that
// an exact hit serves: the filter reads the code, the probe its hash, and
// the pair stage the logic's code and hash, while the proxy's code and
// record are handed from the probe to the pair stage. A storage proxy reads
// its implementation slot once, to check and re-anchor the verdict in one.
func TestExactHitReadBudget(t *testing.T) {
	c, p1, p2, _ := boundedPair(t)
	logic := structAddr(0x01)
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	clone1, clone2 := structAddr(0x21), structAddr(0x22)
	for _, a := range []etypes.Address{clone1, clone2} {
		c.InstallContract(a, disasm.MinimalProxyRuntime(logic))
	}

	// A warm detector seeded from a store, as proxiond restarts.
	cold := NewDetector(c)
	cold.AnalyzeAddress(p1, nil, AnalyzeOptions{})
	var entries []CacheEntry
	for _, e := range cold.ExportVerdicts() {
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dec CacheEntry
		if err := dec.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, dec)
	}

	for _, tc := range []struct {
		name         string
		first, again etypes.Address
		seeded       bool
		want         [3]int64
	}{
		{name: "hard-coded clone", first: clone1, again: clone2, want: [3]int64{2, 2, 0}},
		{name: "storage proxy", first: p1, again: p2, want: [3]int64{2, 2, 1}},
		{name: "store-seeded storage proxy", again: p2, seeded: true, want: [3]int64{2, 2, 1}},
	} {
		r := &countingReader{Reader: c}
		d := NewDetector(r)
		if tc.seeded {
			if n := d.ImportVerdicts(entries); n == 0 {
				t.Fatalf("%s: nothing imported", tc.name)
			}
		} else {
			d.AnalyzeAddress(tc.first, nil, AnalyzeOptions{})
		}
		var stats pipeline.Stats
		var it Item
		got := r.readsOf(func() { it = d.AnalyzeAddress(tc.again, nil, AnalyzeOptions{Stats: &stats}) })
		if !it.Report.IsProxy || it.Pair == nil || stats.CacheHits.Load() != 1 || stats.StructuralHits.Load() != 0 {
			t.Fatalf("%s: want an exact hit with its pair, got %+v (hits %d)", tc.name, it.Report, stats.CacheHits.Load())
		}
		if got != tc.want {
			t.Errorf("%s: Code/CodeHash/GetState reads %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStructuralHitReadBudget pins the node reads of one AnalyzeAddress
// call that a structural promotion serves, for a family's first follower
// (which also runs the leader's deferred check: the leader's code and hash
// are read again) and for a later one. A stamp follower reads its own code
// and hash, and the pair stage the logic's; a slot twin also reads its own
// implementation slot once, to re-anchor the verdict.
func TestStructuralHitReadBudget(t *testing.T) {
	c := chain.New()
	logic := structAddr(0x01)
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	stamps := make([]etypes.Address, 3)
	twins := make([]etypes.Address, 3)
	for i := range stamps {
		// Each stamp its own logic: distinct bytecodes, one family.
		own := structAddr(byte(0x31 + i))
		stamps[i] = structAddr(byte(0x21 + i))
		c.InstallContract(own, solc.MustCompile(boundedTestLogic()))
		c.InstallContract(stamps[i], disasm.MinimalProxyRuntime(own))

		twins[i] = structAddr(byte(0x41 + i))
		slot := etypes.Keccak(twins[i][:])
		c.InstallContract(twins[i], solc.MustCompile(&solc.Contract{
			Name: "Twin", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}}))
		c.SetStorageDirect(twins[i], slot, etypes.HashFromWord(logic.Word()))
	}

	for _, tc := range []struct {
		name    string
		members []etypes.Address
		want    [2][3]int64 // first follower, later follower
	}{
		{name: "stamp", members: stamps, want: [2][3]int64{{3, 3, 0}, {2, 2, 0}}},
		{name: "slot twin", members: twins, want: [2][3]int64{{3, 3, 1}, {2, 2, 1}}},
	} {
		r := &countingReader{Reader: c}
		d := NewDetector(r)
		d.AnalyzeAddress(tc.members[0], nil, AnalyzeOptions{})
		for i, f := range tc.members[1:] {
			var stats pipeline.Stats
			var it Item
			got := r.readsOf(func() { it = d.AnalyzeAddress(f, nil, AnalyzeOptions{Stats: &stats}) })
			if !it.Report.IsProxy || it.Pair == nil || stats.StructuralHits.Load() != 1 {
				t.Fatalf("%s follower %d: want a structural hit with its pair, got %+v (hits %d)", tc.name, i, it.Report, stats.StructuralHits.Load())
			}
			if got != tc.want[i] {
				t.Errorf("%s follower %d: Code/CodeHash/GetState reads %v, want %v", tc.name, i, got, tc.want[i])
			}
		}
	}
}

// TestVerdictInvalidateRace has goroutines analyze duplicates of one beacon
// proxy bytecode while another upgrades the beacon and invalidates, round
// after round (run under -race). A beacon proxy's verdict carries its logic
// as a hard-coded target, so only Invalidate keeps a duplicate from being
// served the pre-upgrade logic: every report must equal Check's in some
// round, and never in a round before the last one whose Invalidate had
// returned when the analysis started.
func TestVerdictInvalidateRace(t *testing.T) {
	const proxies, rounds, workers = 8, 24, 4
	c := chain.New()
	beacon := structAddr(0xbe)
	c.InstallContract(beacon, solc.MustCompile(&solc.Contract{
		Name:  "Beacon",
		Vars:  []solc.Var{{Name: "impl", Type: solc.TypeAddress}},
		Funcs: []solc.Func{{ABI: abi.Function{Name: "implementation"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "impl"}}}},
	}))
	proxyCode := solc.MustCompile(&solc.Contract{
		Name: "BeaconProxy", Fallback: solc.Fallback{Kind: solc.FallbackDelegateBeacon, Slot: SlotEIP1967Beacon}})
	addrs := make([]etypes.Address, proxies)
	for i := range addrs {
		addrs[i] = structAddr(byte(0x30 + i))
		c.InstallContract(addrs[i], proxyCode)
		c.SetStorageDirect(addrs[i], SlotEIP1967Beacon, etypes.HashFromWord(beacon.Word()))
	}
	logics := make([]etypes.Address, rounds)
	roundOf := make(map[etypes.Address]int64, rounds)
	for k := range logics {
		logics[k] = structAddr(byte(0x80 + k))
		c.InstallContract(logics[k], solc.MustCompile(boundedTestLogic()))
		roundOf[logics[k]] = int64(k)
	}
	upgrade := func(k int) { c.SetStorageDirect(beacon, etypes.Hash{}, etypes.HashFromWord(logics[k].Word())) }

	// Check's report of every proxy in every round, uncached.
	want := make([]map[etypes.Address]string, rounds)
	for k := range want {
		upgrade(k)
		want[k] = make(map[etypes.Address]string, proxies)
		for _, a := range addrs {
			rep := NewDetector(c).Check(a)
			if !rep.IsProxy || rep.Logic != logics[k] {
				t.Fatalf("test setup: round %d: Check(%s) = %+v", k, a, rep)
			}
			want[k][a] = reportString(rep)
		}
	}
	upgrade(0)

	d := NewDetector(c)
	var published, analyses atomic.Int64 // the last round whose Invalidate returned
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				addr := addrs[i%proxies]
				floor := published.Load()
				rep := d.AnalyzeAddress(addr, nil, AnalyzeOptions{}).Report
				analyses.Add(1)
				k, ok := roundOf[rep.Logic]
				switch {
				case !ok:
					t.Errorf("%s: report %s names no round's logic", addr, reportString(rep))
				case k < floor:
					t.Errorf("%s: served round %d's logic after round %d's Invalidate returned", addr, k, floor)
				case reportString(rep) != want[k][addr]:
					t.Errorf("%s: report %s, Check's in round %d is %s", addr, reportString(rep), k, want[k][addr])
				}
			}
		}(g)
	}
	for k := 1; k < rounds; k++ {
		// Let every worker finish an analysis or two in the round.
		for target := analyses.Load() + 2*workers; analyses.Load() < target; {
			runtime.Gosched()
		}
		upgrade(k)
		if n, err := d.Invalidate(addrs[k%proxies]); err != nil || n == 0 {
			t.Errorf("round %d: Invalidate = %d, %v; want a verdict dropped", k, n, err)
		}
		published.Store(int64(k))
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, a := range addrs {
		if got := reportString(d.AnalyzeAddress(a, nil, AnalyzeOptions{}).Report); got != want[rounds-1][a] {
			t.Errorf("%s after the last round: %s, want %s", a, got, want[rounds-1][a])
		}
	}
}
