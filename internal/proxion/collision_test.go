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

// TestFunctionCollisionsSource: with both sources verified, collision
// detection intersects the declared prototypes — the Slither-style path
// (Section 5.1) — and names both sides of each collision.
func TestFunctionCollisionsSource(t *testing.T) {
	proxy := &solc.Contract{
		Name: "P",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "implementation"}, Body: []solc.Stmt{solc.Stop{}}},
			{ABI: abi.Function{Name: "admin"}, Body: []solc.Stmt{solc.Stop{}}},
		},
	}
	logic := &solc.Contract{
		Name: "L",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "implementation"}, Body: []solc.Stmt{solc.Stop{}}},
			{ABI: abi.Function{Name: "doWork"}, Body: []solc.Stmt{solc.Stop{}}},
		},
	}
	cols := proxion.FunctionCollisions(nil, nil, proxy, logic)
	if len(cols) != 1 {
		t.Fatalf("collisions = %d, want 1", len(cols))
	}
	if cols[0].ProxyProto != "implementation()" || cols[0].LogicProto != "implementation()" {
		t.Errorf("collision = %+v", cols[0])
	}
}

func TestFunctionCollisionsBytecodeIgnoresDecoys(t *testing.T) {
	shared := abi.Function{Name: "claim"}
	mk := func(name string, decoys [][4]byte, extra ...abi.Function) []byte {
		fns := []solc.Func{{ABI: shared, Body: []solc.Stmt{solc.Stop{}}}}
		for _, f := range extra {
			fns = append(fns, solc.Func{ABI: f, Body: []solc.Stmt{solc.Stop{}}})
		}
		return solc.MustCompile(&solc.Contract{Name: name, Funcs: fns, DecoyPush4: decoys})
	}
	// Both contracts embed the same decoy constant: a naive PUSH4 scan
	// would report it as a collision; dispatcher extraction must not.
	decoy := [][4]byte{{0xAA, 0xBB, 0xCC, 0xDD}}
	proxyCode := mk("P", decoy, abi.Function{Name: "adminOnly"})
	logicCode := mk("L", decoy, abi.Function{Name: "withdraw"})

	cols := proxion.FunctionCollisionsBytecode(proxyCode, logicCode)
	if len(cols) != 1 {
		t.Fatalf("collisions = %d, want exactly the shared selector: %+v", len(cols), cols)
	}
	if cols[0].Selector != shared.Selector() {
		t.Errorf("collision selector = %x", cols[0].Selector)
	}
	if cols[0].ProxyProto != "" {
		t.Error("bytecode path cannot know prototypes")
	}
}

func TestFunctionCollisionsMixedSource(t *testing.T) {
	shared := abi.Function{Name: "upgradeTo", Params: []string{"address"}}
	proxySrc := &solc.Contract{
		Name:  "P",
		Funcs: []solc.Func{{ABI: shared, Body: []solc.Stmt{solc.Stop{}}}},
	}
	logic := &solc.Contract{
		Name:  "L",
		Funcs: []solc.Func{{ABI: shared, Body: []solc.Stmt{solc.Stop{}}}},
	}
	proxyCode := solc.MustCompile(proxySrc)
	logicCode := solc.MustCompile(logic)

	// Proxy has source, logic is bytecode-only.
	cols := proxion.FunctionCollisions(proxyCode, logicCode, proxySrc, nil)
	if len(cols) != 1 {
		t.Fatalf("mixed collisions = %d, want 1", len(cols))
	}
	if cols[0].ProxyProto != "upgradeTo(address)" || cols[0].LogicProto != "" {
		t.Errorf("mixed collision = %+v", cols[0])
	}
}

func TestExtractStorageAccessesPackedFields(t *testing.T) {
	contract := &solc.Contract{
		Name: "Packed",
		Vars: []solc.Var{
			{Name: "flag", Type: solc.TypeBool},     // slot 0 off 0 size 1
			{Name: "owner", Type: solc.TypeAddress}, // slot 0 off 1 size 20
			{Name: "total", Type: solc.TypeUint256}, // slot 1 full
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "flag"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "flag"}}},
			{ABI: abi.Function{Name: "owner"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
			{ABI: abi.Function{Name: "setTotal", Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: "total", Arg: 0}}},
			{ABI: abi.Function{Name: "setFlag"},
				Body: []solc.Stmt{solc.AssignConst{Var: "flag", Value: u256.One()}}},
			{ABI: abi.Function{Name: "guarded"},
				Body: []solc.Stmt{solc.RequireCallerIs{Var: "owner"}, solc.Stop{}}},
		},
	}
	accs := proxion.ExtractStorageAccesses(solc.MustCompile(contract))

	type key struct {
		slot   uint64
		offset int
		size   int
		kind   proxion.AccessKind
	}
	found := make(map[key]proxion.StorageAccess)
	for _, a := range accs {
		found[key{a.Slot.Word().Uint64(), a.Offset, a.Size, a.Kind}] = a
	}

	// flag read: slot 0 [0,1)
	if _, ok := found[key{0, 0, 1, proxion.AccessRead}]; !ok {
		t.Errorf("flag read not recovered; accesses: %+v", accs)
	}
	// owner read: slot 0 [1,21)
	ownerRead, ok := found[key{0, 1, 20, proxion.AccessRead}]
	if !ok {
		t.Fatalf("owner read not recovered; accesses: %+v", accs)
	}
	// guarded() compares owner against CALLER.
	if !ownerRead.CallerCheck || !ownerRead.Guard {
		t.Errorf("owner read flags = %+v, want CallerCheck+Guard", ownerRead)
	}
	// total write: slot 1 full width, tainted (calldata).
	totalWrite, ok := found[key{1, 0, 32, proxion.AccessWrite}]
	if !ok {
		t.Fatalf("total write not recovered")
	}
	if !totalWrite.Tainted {
		t.Error("calldata-derived write should be tainted")
	}
	// flag packed write: slot 0 [0,1), constant so untainted.
	flagWrite, ok := found[key{0, 0, 1, proxion.AccessWrite}]
	if !ok {
		t.Fatalf("packed flag write not recovered")
	}
	if flagWrite.Tainted {
		t.Error("constant write should not be tainted")
	}
	// The read-modify-write's internal SLOAD must not surface as a
	// full-slot read of slot 0.
	if _, rmwLeak := found[key{0, 0, 32, proxion.AccessRead}]; rmwLeak {
		t.Error("RMW skeleton leaked a full-slot read")
	}
}

func TestStorageCollisionsDetectMismatch(t *testing.T) {
	// Proxy: address at slot 0 [0,20). Logic: two bools at slot 0 [0,1)
	// and [1,2). Overlapping, mismatched: collision.
	proxyAcc := []proxion.StorageAccess{
		{Slot: etypes.Hash{}, Offset: 0, Size: 20, Kind: proxion.AccessRead, CallerCheck: true, Guard: true},
		{Slot: etypes.Hash{}, Offset: 0, Size: 20, Kind: proxion.AccessWrite, Tainted: true},
	}
	logicAcc := []proxion.StorageAccess{
		{Slot: etypes.Hash{}, Offset: 0, Size: 1, Kind: proxion.AccessRead, Guard: true},
		{Slot: etypes.Hash{}, Offset: 1, Size: 1, Kind: proxion.AccessRead, Guard: true},
		{Slot: etypes.Hash{}, Offset: 0, Size: 1, Kind: proxion.AccessWrite},
	}
	cols := proxion.StorageCollisions(proxyAcc, logicAcc)
	if len(cols) != 1 {
		t.Fatalf("collisions = %d, want 1", len(cols))
	}
	if !cols[0].GuardInvolved {
		t.Error("guard involvement not flagged")
	}
	if !cols[0].Exploitable {
		t.Error("guard read overlapped by tainted write should be exploitable")
	}
}

func TestStorageCollisionsIdenticalLayoutClean(t *testing.T) {
	acc := []proxion.StorageAccess{
		{Slot: etypes.Hash{}, Offset: 0, Size: 20, Kind: proxion.AccessRead},
		{Slot: etypes.Hash{}, Offset: 0, Size: 20, Kind: proxion.AccessWrite},
	}
	if cols := proxion.StorageCollisions(acc, acc); len(cols) != 0 {
		t.Errorf("identical layouts reported as colliding: %+v", cols)
	}
}

func TestStorageCollisionsDisjointFieldsClean(t *testing.T) {
	proxyAcc := []proxion.StorageAccess{
		{Slot: etypes.Hash{}, Offset: 0, Size: 1, Kind: proxion.AccessRead},
	}
	logicAcc := []proxion.StorageAccess{
		{Slot: etypes.Hash{}, Offset: 16, Size: 16, Kind: proxion.AccessRead},
	}
	if cols := proxion.StorageCollisions(proxyAcc, logicAcc); len(cols) != 0 {
		t.Errorf("disjoint fields reported as colliding: %+v", cols)
	}
}

// buildAudiusPair deploys the Listing 2 scenario and returns the chain.
func buildAudiusPair(t *testing.T) (*chain.Chain, *solc.Contract, *solc.Contract) {
	t.Helper()
	logic := &solc.Contract{
		Name: "AudiusLogic",
		Vars: []solc.Var{
			{Name: "initialized", Type: solc.TypeBool},
			{Name: "initializing", Type: solc.TypeBool},
		},
		Funcs: []solc.Func{
			{
				ABI: abi.Function{Name: "initialize"},
				Body: []solc.Stmt{
					solc.RequireInitializable{Initialized: "initialized", Initializing: "initializing"},
					solc.AssignConst{Var: "initialized", Value: u256.One()},
					solc.AssignConst{Var: "initializing", Value: u256.Zero()},
					solc.AssignCallerToSlot{Slot: etypes.Hash{}, Offset: 0, Size: 20},
				},
			},
			{ABI: abi.Function{Name: "owner"},
				Body: []solc.Stmt{solc.ReturnSlotField{Slot: etypes.Hash{}, Offset: 0, Size: 20}}},
		},
	}
	slot1 := etypes.HashFromWord(u256.One())
	proxy := &solc.Contract{
		Name: "AudiusProxy",
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
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot1},
	}
	c := chain.New()
	c.InstallContract(logicAt, solc.MustCompile(logic))
	c.InstallContract(proxyAt, solc.MustCompile(proxy))
	c.SetStorageDirect(proxyAt, slot1, etypes.HashFromWord(logicAt.Word()))
	return c, proxy, logic
}

func TestAudiusPairCollisionDetectedAndVerified(t *testing.T) {
	c, _, _ := buildAudiusPair(t)
	d := proxion.NewDetector(c)

	rep := d.Check(proxyAt)
	if !rep.IsProxy {
		t.Fatalf("audius proxy not detected: %+v", rep)
	}
	pa := d.AnalyzePair(proxyAt, rep.Logic, nil)
	if len(pa.Storage) == 0 {
		t.Fatal("storage collision not detected")
	}
	foundExploitable := false
	for _, col := range pa.Storage {
		if col.Slot == (etypes.Hash{}) && col.Exploitable {
			foundExploitable = true
		}
	}
	if !foundExploitable {
		t.Fatalf("slot-0 exploitable collision missing: %+v", pa.Storage)
	}
	if !pa.ExploitVerified {
		t.Error("dynamic replay failed to verify the Audius-style exploit")
	}
}

func TestCorrectInitializerNotVerified(t *testing.T) {
	// Same shape but with matching layouts: the guard works, the replay's
	// second initialize reverts, and nothing is verified.
	logic := &solc.Contract{
		Name: "SafeLogic",
		Vars: []solc.Var{
			{Name: "initialized", Type: solc.TypeBool},
			{Name: "owner", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{
				ABI: abi.Function{Name: "initialize"},
				Body: []solc.Stmt{
					solc.RequireVarZero{Var: "initialized"},
					solc.AssignConst{Var: "initialized", Value: u256.One()},
					solc.AssignCaller{Var: "owner"},
				},
			},
		},
	}
	slot1 := etypes.HashFromWord(u256.One())
	proxy := &solc.Contract{
		Name: "SafeProxy",
		Vars: []solc.Var{
			{Name: "initialized", Type: solc.TypeBool},
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "logic", Type: solc.TypeAddress},
		},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot1},
	}
	c := chain.New()
	c.InstallContract(logicAt, solc.MustCompile(logic))
	c.InstallContract(proxyAt, solc.MustCompile(proxy))
	c.SetStorageDirect(proxyAt, slot1, etypes.HashFromWord(logicAt.Word()))

	d := proxion.NewDetector(c)
	pa := d.AnalyzePair(proxyAt, logicAt, nil)
	if pa.ExploitVerified {
		t.Error("correct initializer verified as exploitable")
	}
}

// mapSource is a test SourceProvider.
type mapSource map[etypes.Address]*solc.Contract

func (m mapSource) Source(a etypes.Address) *solc.Contract { return m[a] }

func TestAnalyzeAllEndToEnd(t *testing.T) {
	c, proxySrc, logicSrc := buildAudiusPair(t)
	// Add a couple of non-proxies for noise.
	plain := &solc.Contract{
		Name: "Plain",
		Funcs: []solc.Func{{
			ABI: abi.Function{Name: "noop"}, Body: []solc.Stmt{solc.Stop{}},
		}},
	}
	c.InstallContract(etypes.MustAddress("0x0000000000000000000000000000000000009301"), solc.MustCompile(plain))

	d := proxion.NewDetector(c)
	res := d.AnalyzeAll(mapSource{proxyAt: proxySrc, logicAt: logicSrc})
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(res.Reports))
	}
	proxies := res.Proxies()
	if len(proxies) != 1 || proxies[0].Address != proxyAt {
		t.Fatalf("proxies = %+v", proxies)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(res.Pairs))
	}
	pa := res.Pairs[0]
	if !pa.ProxyHasSource || !pa.LogicHasSource {
		t.Error("source availability not recorded")
	}
	if len(pa.Storage) == 0 || !pa.ExploitVerified {
		t.Errorf("end-to-end pair analysis missed the collision: %+v", pa)
	}
}
