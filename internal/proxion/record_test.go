package proxion

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/pipeline"
	"repro/internal/solc"
	"repro/internal/u256"
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
	c := chain.New()
	beacon := structAddr(0xbe)
	proxyCode := installBeacon(c, beacon)
	addrs := raceProxies(c, proxyCode)
	for _, a := range addrs {
		c.SetStorageDirect(a, SlotEIP1967Beacon, etypes.HashFromWord(beacon.Word()))
	}
	invalidateRace(t, c, addrs, false, func(logic etypes.Address) {
		c.SetStorageDirect(beacon, etypes.Hash{}, etypes.HashFromWord(logic.Word()))
	})
}

// TestStorageVerdictInvalidateRace is TestVerdictInvalidateRace for
// storage proxies: every duplicate's implementation slot is rewritten each
// round, and Invalidate keeps the record. Every hit re-reads the slot, so
// the same bound holds — no report from a round before the last one
// published — and once the rounds are over every duplicate is an exact
// hit.
func TestStorageVerdictInvalidateRace(t *testing.T) {
	c := chain.New()
	slot := etypes.HashFromWord(u256.FromUint64(3))
	proxyCode := solc.MustCompile(&solc.Contract{
		Name:     "P",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
	addrs := raceProxies(c, proxyCode)
	invalidateRace(t, c, addrs, true, func(logic etypes.Address) {
		for _, a := range addrs {
			c.SetStorageDirect(a, slot, etypes.HashFromWord(logic.Word()))
		}
	})
}

// raceProxies installs the race tests' eight duplicates of proxyCode.
func raceProxies(c *chain.Chain, proxyCode []byte) []etypes.Address {
	addrs := make([]etypes.Address, 8)
	for i := range addrs {
		addrs[i] = structAddr(byte(0x30 + i))
		c.InstallContract(addrs[i], proxyCode)
	}
	return addrs
}

// invalidateRace installs one logic per round and has goroutines analyze
// addrs while, round after round, upgrade points every proxy at the
// round's logic and Invalidate of one proxy publishes the round. Every
// report must equal Check's in some round, never in one before the round
// published when its analysis started. keep says Invalidate keeps the
// record (returns 0, and the duplicates are exact hits afterwards) rather
// than dropping it.
func invalidateRace(t *testing.T, c *chain.Chain, addrs []etypes.Address, keep bool, upgrade func(logic etypes.Address)) {
	t.Helper()
	const rounds, workers = 24, 4
	logics := make([]etypes.Address, rounds)
	roundOf := make(map[etypes.Address]int64, rounds)
	for k := range logics {
		logics[k] = structAddr(byte(0x80 + k))
		c.InstallContract(logics[k], solc.MustCompile(boundedTestLogic()))
		roundOf[logics[k]] = int64(k)
	}

	// Check's report of every proxy in every round, uncached.
	want := make([]map[etypes.Address]string, rounds)
	for k := range want {
		upgrade(logics[k])
		want[k] = make(map[etypes.Address]string, len(addrs))
		for _, a := range addrs {
			rep := NewDetector(c).Check(a)
			if !rep.IsProxy || rep.Logic != logics[k] {
				t.Fatalf("test setup: round %d: Check(%s) = %+v", k, a, rep)
			}
			want[k][a] = reportString(rep)
		}
	}
	upgrade(logics[0])

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
				addr := addrs[i%len(addrs)]
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
		upgrade(logics[k])
		if n, err := d.Invalidate(addrs[k%len(addrs)]); err != nil || (n == 0) != keep {
			t.Errorf("round %d: Invalidate = %d, %v; want a verdict kept %v", k, n, err, keep)
		}
		published.Store(int64(k))
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	var stats pipeline.Stats
	for _, a := range addrs {
		if got := reportString(d.AnalyzeAddress(a, nil, AnalyzeOptions{Stats: &stats}).Report); got != want[rounds-1][a] {
			t.Errorf("%s after the last round: %s, want %s", a, got, want[rounds-1][a])
		}
	}
	if em := stats.Emulations.Load(); keep && em != 0 {
		t.Errorf("%d emulations after the last round, want every duplicate an exact hit", em)
	}
}

// installBeacon installs at beacon a contract whose implementation()
// returns its slot 0, and returns the bytecode of a proxy that reads the
// beacon's address from SlotEIP1967Beacon and forwards to what it answers.
func installBeacon(c *chain.Chain, beacon etypes.Address) []byte {
	c.InstallContract(beacon, solc.MustCompile(&solc.Contract{
		Name:  "Beacon",
		Vars:  []solc.Var{{Name: "impl", Type: solc.TypeAddress}},
		Funcs: []solc.Func{{ABI: abi.Function{Name: "implementation"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "impl"}}}},
	}))
	return solc.MustCompile(&solc.Contract{
		Name: "BeaconProxy", Fallback: solc.Fallback{Kind: solc.FallbackDelegateBeacon, Slot: SlotEIP1967Beacon}})
}

// codeSizeGatedProxy assembles a fallback that forwards to the address in
// slot only if that address has code: EXTCODESIZE(sload(slot)) > 0.
func codeSizeGatedProxy(slot etypes.Hash) []byte {
	var p asm.Program
	p.Push(slot.Word()).Op(evm.SLOAD).Op(evm.EXTCODESIZE).JumpI("fwd").
		PushUint(0).PushUint(0).Op(evm.REVERT).
		Label("fwd")
	return forwardTail(&p, slot)
}

// precompileCallingProxy assembles a fallback that STATICCALLs the identity
// precompile, which loads no code, and then forwards to the address in
// slot.
func precompileCallingProxy(slot etypes.Hash) []byte {
	var p asm.Program
	p.PushUint(0).PushUint(0).PushUint(0).PushUint(0).PushUint(4).
		Op(evm.GAS).Op(evm.STATICCALL).Op(evm.POP)
	return forwardTail(&p, slot)
}

// forwardTail appends the forwarding tail: copy the call data and
// delegatecall the address held in slot with it.
func forwardTail(p *asm.Program, slot etypes.Hash) []byte {
	p.Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).Op(evm.CALLDATASIZE).PushUint(0).
		Push(slot.Word()).Op(evm.SLOAD).
		Op(evm.GAS).Op(evm.DELEGATECALL).Op(evm.STOP)
	return p.MustAssemble()
}

// TestProbeOwnStateOnly pins the bit Invalidate keeps a verdict by. It is
// set for a storage proxy that reads only its own storage before
// forwarding, and cleared for one that asks its logic's code size first,
// for one that calls a precompile first (a nested call that loads no code)
// and for a beacon proxy, which calls its beacon: Invalidate keeps the
// first one's record and drops the other three.
func TestProbeOwnStateOnly(t *testing.T) {
	c, plain, _, logic := boundedPair(t)
	slot := etypes.HashFromWord(u256.FromUint64(3))
	gated, beacon, beaconed := structAddr(0x51), structAddr(0xbe), structAddr(0x52)
	c.InstallContract(gated, codeSizeGatedProxy(slot))
	c.SetStorageDirect(gated, slot, etypes.HashFromWord(logic.Word()))
	precompiled := structAddr(0x53)
	c.InstallContract(precompiled, precompileCallingProxy(slot))
	c.SetStorageDirect(precompiled, slot, etypes.HashFromWord(logic.Word()))
	c.InstallContract(beaconed, installBeacon(c, beacon))
	c.SetStorageDirect(beaconed, SlotEIP1967Beacon, etypes.HashFromWord(beacon.Word()))
	c.SetStorageDirect(beacon, etypes.Hash{}, etypes.HashFromWord(logic.Word()))

	for _, tc := range []struct {
		name   string
		addr   etypes.Address
		target TargetSource
		own    bool
	}{
		{"storage proxy", plain, TargetStorage, true},
		{"code-size gate", gated, TargetStorage, false},
		{"precompile call", precompiled, TargetStorage, false},
		{"beacon proxy", beaconed, TargetHardcoded, false},
	} {
		d := NewDetector(c)
		code := c.Code(tc.addr)
		out := d.emulateProbe(tc.addr, code, CraftCallData(tc.addr, code))
		if !out.rep.IsProxy || out.rep.Logic != logic || out.rep.Target != tc.target {
			t.Fatalf("%s: probe %s, want a %s forwarder to %s", tc.name, reportString(out.rep), tc.target, logic)
		}
		if out.ownStateOnly != tc.own {
			t.Errorf("%s: ownStateOnly = %v, want %v", tc.name, out.ownStateOnly, tc.own)
		}
		d.AnalyzeAddress(tc.addr, nil, AnalyzeOptions{})
		if n, err := d.Invalidate(tc.addr); err != nil || (n == 0) != tc.own {
			t.Errorf("%s: Invalidate = %d, %v; want the record kept exactly when the bit is set", tc.name, n, err)
		}
	}
}
