package proxion_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
)

// TestAnalyzePairHistoryFindsRetiredCollision: a proxy once pointed at a
// colliding logic (V1) and was upgraded to a clean one (V2). Analyzing only
// the current pair misses the historical exposure; the history analysis
// must surface it.
func TestAnalyzePairHistoryFindsRetiredCollision(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.One())
	c := chain.New()

	shared := abi.Function{Name: "claim"}
	// V1 collides with the proxy's function.
	v1 := &solc.Contract{
		Name:  "V1",
		Funcs: []solc.Func{{ABI: shared, Body: []solc.Stmt{solc.Stop{}}}},
	}
	v1Addr := etypes.MustAddress("0x000000000000000000000000000000000000b101")
	c.InstallContract(v1Addr, solc.MustCompile(v1))

	// V2 renamed the function: clean.
	v2 := &solc.Contract{
		Name:  "V2",
		Funcs: []solc.Func{{ABI: abi.Function{Name: "claimV2"}, Body: []solc.Stmt{solc.Stop{}}}},
	}
	v2Addr := etypes.MustAddress("0x000000000000000000000000000000000000b102")
	c.InstallContract(v2Addr, solc.MustCompile(v2))

	proxy := &solc.Contract{
		Name:     "P",
		Vars:     []solc.Var{{Name: "owner", Type: solc.TypeAddress}},
		Funcs:    []solc.Func{{ABI: shared, Body: []solc.Stmt{solc.Stop{}}}},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: implSlot},
	}
	pAddr := etypes.MustAddress("0x000000000000000000000000000000000000b103")
	c.InstallContract(pAddr, solc.MustCompile(proxy))

	c.AdvanceTo(100)
	c.SetStorageDirect(pAddr, implSlot, etypes.HashFromWord(v1Addr.Word()))
	c.AdvanceTo(50_000)
	c.SetStorageDirect(pAddr, implSlot, etypes.HashFromWord(v2Addr.Word()))
	c.AdvanceTo(80_000)

	d := proxion.NewDetector(c)
	rep := d.Check(pAddr)
	if !rep.IsProxy || rep.Logic != v2Addr {
		t.Fatalf("report = %+v", rep)
	}
	// Current pair is clean.
	if cur := d.AnalyzePair(pAddr, rep.Logic, nil); len(cur.Functions) != 0 {
		t.Fatalf("current pair should be clean: %+v", cur.Functions)
	}
	// History finds the retired V1 collision.
	hist := d.AnalyzePairHistory(rep, nil)
	if len(hist.Pairs) != 2 {
		t.Fatalf("historical pairs = %d, want 2", len(hist.Pairs))
	}
	var collidedWith etypes.Address
	for _, pa := range hist.Pairs {
		if len(pa.Functions) > 0 {
			collidedWith = pa.Logic
		}
	}
	if collidedWith.IsZero() {
		t.Fatal("historical collision missed")
	}
	if collidedWith != v1Addr {
		t.Errorf("collision attributed to %s, want V1 %s", collidedWith, v1Addr)
	}
}

func TestAnalyzePairHistoryMinimalProxy(t *testing.T) {
	implSlot := etypes.HashFromWord(u256.FromUint64(7))
	c := newChainWithPair(t, implSlot)
	d := proxion.NewDetector(c)
	rep := d.Check(proxyAt)
	hist := d.AnalyzePairHistory(rep, nil)
	if len(hist.Pairs) != 1 || hist.Pairs[0].Logic != logicAt {
		t.Errorf("history = %+v", hist.Pairs)
	}
	// Non-proxy reports yield empty histories.
	empty := d.AnalyzePairHistory(proxion.Report{}, nil)
	if len(empty.Pairs) != 0 {
		t.Error("non-proxy produced pairs")
	}
}
