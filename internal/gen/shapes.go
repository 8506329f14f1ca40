package gen

import (
	"repro/internal/abi"
	"repro/internal/etypes"
	"repro/internal/solc"
	"repro/internal/u256"
)

// slotPlans are the layouts one storage slot can take. Every plan starts
// with a type at least 8 bytes wide and leaves fewer than 8 free bytes, so
// under Solidity packing rules consecutive plans can never bleed into each
// other's slots: each plan owns exactly one slot regardless of what follows.
var slotPlans = [][]solc.VarType{
	{solc.TypeUint256},
	{solc.TypeBytes32},
	{solc.TypeUint128, solc.TypeUint128},
	{solc.TypeAddress, solc.TypeUint64, solc.TypeUint32},
	{solc.TypeAddress, solc.TypeUint64},
	{solc.TypeUint64, solc.TypeUint64, solc.TypeUint64, solc.TypeUint32},
	{solc.TypeUint128, solc.TypeUint64, solc.TypeUint32},
}

// fullSlotTypes always start a fresh slot, so they are safe to append after
// any layout without disturbing earlier slots.
var fullSlotTypes = []solc.VarType{solc.TypeUint256, solc.TypeBytes32}

// randVars lays out nSlots independently planned storage slots.
func (g *generator) randVars(prefix string, nSlots int) []solc.Var {
	var vars []solc.Var
	for i := 0; i < nSlots; i++ {
		for _, t := range slotPlans[g.rng.Intn(len(slotPlans))] {
			vars = append(vars, solc.Var{Name: g.ident(prefix), Type: t})
		}
	}
	return vars
}

// accessors builds a random selection of getters and setters over vars.
// Every function name is freshly minted, so accessors never collide across
// contracts; only deliberately shared prototypes do.
func (g *generator) accessors(prefix string, vars []solc.Var) []solc.Func {
	var funcs []solc.Func
	for _, v := range vars {
		if g.rng.Intn(100) < 70 {
			funcs = append(funcs, solc.Func{
				ABI:  abi.Function{Name: g.ident(prefix + "Get")},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: v.Name}},
			})
		}
		if g.rng.Intn(100) < 50 {
			funcs = append(funcs, solc.Func{
				ABI:  abi.Function{Name: g.ident(prefix + "Set"), Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: v.Name, Arg: 0}},
			})
		}
	}
	return funcs
}

// constFunc is a guaranteed externally callable function, for shapes that
// must expose at least one selector.
func (g *generator) constFunc(prefix string, v uint64) solc.Func {
	return solc.Func{
		ABI:  abi.Function{Name: g.ident(prefix)},
		Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(v)}},
	}
}

// maybeDecoys sprinkles non-selector PUSH4 immediates into the contract,
// the pattern that defeats naive any-PUSH4 signature extraction.
func (g *generator) maybeDecoys(src *solc.Contract) {
	for n := g.rng.Intn(3); n > 0; n-- {
		var d [4]byte
		g.rng.Read(d[:])
		src.DecoyPush4 = append(src.DecoyPush4, d)
	}
}

// sourceDice rolls whether a contract's source is published.
func (g *generator) sourceDice() bool { return g.rng.Intn(100) < 70 }

// pairPlan is the collision ground truth a proxy/logic pair is built to.
type pairPlan struct {
	funcCollide    bool
	storageCollide bool
}

func (g *generator) rollPair() pairPlan {
	return pairPlan{
		funcCollide:    g.rng.Intn(100) < 45,
		storageCollide: g.rng.Intn(100) < 35,
	}
}

// pairShape is the source material of one proxy/logic pair with its
// injected collisions.
type pairShape struct {
	proxyVars  []solc.Var
	proxyFuncs []solc.Func
	logicVars  []solc.Var
	logicFuncs []solc.Func
	// selectors are the injected function collisions, ascending; storage
	// says the layouts were built to conflict. Zero values mean the pair
	// must analyze clean.
	selectors [][4]byte
	storage   bool
}

// buildPair assembles pair sources realizing the plan.
//
// Clean pairs use *identical type sequences* on both sides (different
// names): every field boundary matches, so overlapping accesses are always
// same-field and no storage collision can be detected. Colliding pairs
// re-create the Audius shape: the proxy's owner address occupies slot 0
// while the logic packs initializer bits into the same slot — mismatched
// overlapping boundaries by construction.
func (g *generator) buildPair(plan pairPlan) pairShape {
	var ps pairShape
	if plan.storageCollide {
		ps.proxyVars, ps.proxyFuncs = g.audiusProxySide()
		ps.logicVars, ps.logicFuncs = g.audiusLogicCore()
		ps.storage = true
		// Extra logic-only state past the colliding slot, full-slot only.
		for n := g.rng.Intn(2); n > 0; n-- {
			ps.logicVars = append(ps.logicVars, solc.Var{
				Name: g.ident("lPad"), Type: fullSlotTypes[g.rng.Intn(len(fullSlotTypes))],
			})
		}
	} else {
		nSlots := 1 + g.rng.Intn(3)
		for i := 0; i < nSlots; i++ {
			for _, t := range slotPlans[g.rng.Intn(len(slotPlans))] {
				ps.proxyVars = append(ps.proxyVars, solc.Var{Name: g.ident("p"), Type: t})
				ps.logicVars = append(ps.logicVars, solc.Var{Name: g.ident("l"), Type: t})
			}
		}
		ps.proxyFuncs = g.accessors("p", ps.proxyVars)
		ps.logicFuncs = g.accessors("l", ps.logicVars)
		// Logic-only trailing slots: they start past the shared region, so
		// the proxy never touches them.
		for n := g.rng.Intn(2); n > 0; n-- {
			v := solc.Var{Name: g.ident("lx"), Type: fullSlotTypes[g.rng.Intn(len(fullSlotTypes))]}
			ps.logicVars = append(ps.logicVars, v)
			ps.logicFuncs = append(ps.logicFuncs, solc.Func{
				ABI:  abi.Function{Name: g.ident("lxGet")},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: v.Name}},
			})
		}
	}
	if plan.funcCollide {
		shared := abi.Function{Name: g.ident("shared"), Params: []string{"uint256"}}
		ps.proxyFuncs = append(ps.proxyFuncs, solc.Func{
			ABI: shared, Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(1)}},
		})
		ps.logicFuncs = append(ps.logicFuncs, solc.Func{
			ABI: shared, Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(2)}},
		})
		ps.selectors = append(ps.selectors, shared.Selector())
	}
	return ps
}

// audiusProxySide mints the proxy half of the Audius layout: the owner
// address in slot 0 with its getter and its owner-only claim.
func (g *generator) audiusProxySide() ([]solc.Var, []solc.Func) {
	owner := g.ident("pOwner")
	vars := []solc.Var{{Name: owner, Type: solc.TypeAddress}}
	funcs := []solc.Func{
		{
			ABI:  abi.Function{Name: g.ident("pOwnerOf")},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: owner}},
		},
		{
			ABI: abi.Function{Name: g.ident("pClaim")},
			Body: []solc.Stmt{
				solc.RequireCallerIs{Var: owner},
				solc.AssignCaller{Var: owner},
			},
		},
	}
	return vars, funcs
}

// audiusLogicCore mints the colliding logic half: initializer bools packed
// into slot 0, under the proxy's owner address, with their initializer and
// getter.
func (g *generator) audiusLogicCore() ([]solc.Var, []solc.Func) {
	inited := g.ident("lInitialized")
	initing := g.ident("lInitializing")
	vars := []solc.Var{
		{Name: inited, Type: solc.TypeBool},
		{Name: initing, Type: solc.TypeBool},
	}
	funcs := []solc.Func{
		{
			ABI: abi.Function{Name: g.ident("lInitialize")},
			Body: []solc.Stmt{
				solc.RequireVarZero{Var: inited},
				solc.AssignConst{Var: inited, Value: u256.One()},
			},
		},
		{
			ABI:  abi.Function{Name: g.ident("lInitializedRead")},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: inited}},
		},
	}
	return vars, funcs
}

// buildLogicAux deploys an auxiliary logic/library/facet contract.
func (g *generator) buildLogicAux(name string, vars []solc.Var, funcs []solc.Func) *Label {
	src := &solc.Contract{
		Name: name, Vars: vars, Funcs: funcs,
		Fallback: solc.Fallback{Kind: solc.FallbackRevert},
	}
	g.maybeDecoys(src)
	l := &Label{Kind: ShapeLogic, HasSource: g.sourceDice()}
	return g.compileInstall(l, src)
}

// buildUnit generates one unit: the primary contract of the given shape
// plus whatever auxiliaries it points at. Each builder draws from the rng
// in a self-contained sequence, which is what keeps corpora prefix-stable.
func (g *generator) buildUnit(s Shape) {
	switch s {
	case ShapeMinimalProxy:
		g.buildMinimalProxy()
	case ShapeHardcodedForwarder:
		g.buildHardcodedForwarder()
	case ShapeEIP1967Proxy, ShapeEIP1822Proxy, ShapeAdHocProxy:
		g.buildSlotProxy(s)
	case ShapeDiamond:
		g.buildDiamond()
	case ShapeLibraryCaller:
		g.buildLibraryCaller()
	case ShapeDispatcherOnly:
		g.buildDispatcherOnly()
	case ShapeDeadDelegate:
		g.buildDeadDelegate()
	default:
		panic("gen: no builder for shape " + s.String())
	}
}

// buildMinimalProxy installs a raw EIP-1167 runtime over a fresh logic
// contract. The canonical runtime has no dispatcher and no storage, so the
// pair is clean by construction.
func (g *generator) buildMinimalProxy() {
	vars := g.randVars("l", 1+g.rng.Intn(2))
	logic := g.buildLogicAux(g.ident("Logic"), vars, g.accessors("l", vars))
	t := MinimalProxy(logic.Address)
	proxy, clone := t.Label, t.Label
	g.install(&proxy)
	// Byte-identical clone of the same logic: the duplication the
	// bytecode-dedup cache exists for (same code, same hard-coded target).
	if g.rng.Intn(100) < 40 {
		g.install(&clone)
	}
}

// buildHardcodedForwarder compiles a contract whose fallback forwards to an
// address fixed in the bytecode — a non-minimal clone proxy.
func (g *generator) buildHardcodedForwarder() {
	ps := g.buildPair(g.rollPair())
	logic := g.buildLogicAux(g.ident("Impl"), ps.logicVars, ps.logicFuncs)
	src := &solc.Contract{
		Name: g.ident("Forwarder"), Vars: ps.proxyVars, Funcs: ps.proxyFuncs,
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateHardcoded, Target: logic.Address},
	}
	g.maybeDecoys(src)
	mk := func() *Label {
		return &Label{
			Kind: ShapeHardcodedForwarder, IsProxy: true, Detectable: true,
			HasDelegateCall: true, Logic: logic.Address, Standard: "Others",
			FuncCollisions: ps.selectors, StorageCollision: ps.storage,
			HasSource: g.sourceDice(),
		}
	}
	g.compileInstall(mk(), src)
	// Identical-bytecode clone forwarding to the same target.
	if g.rng.Intn(100) < 30 {
		g.compileInstall(mk(), src)
	}
}

// buildSlotProxy compiles an upgradeable proxy reading its logic address
// from a storage slot: the EIP-1967 slot, the EIP-1822 slot, or an ad-hoc
// low slot that classifies as "Others".
func (g *generator) buildSlotProxy(shape Shape) {
	ps := g.buildPair(g.rollPair())
	logic := g.buildLogicAux(g.ident("Impl"), ps.logicVars, ps.logicFuncs)

	slot, std := g.implSlot(shape)

	src := &solc.Contract{
		Name: g.ident("Upgradeable"), Vars: ps.proxyVars, Funcs: ps.proxyFuncs,
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	}
	g.maybeDecoys(src)
	mk := func(logicAddr etypes.Address) *Label {
		l := slotProxy(shape, slot, std)
		l.Logic, l.FuncCollisions, l.StorageCollision = logicAddr, ps.selectors, ps.storage
		l.HasSource = g.sourceDice()
		return &l
	}
	l := g.compileInstall(mk(logic.Address), src)
	g.dep.SetSlot(l.Address, slot, logic.Address)

	// Byte-identical upgradeable clone pointing at a *different* logic
	// deployment: the cache must re-anchor the logic address from the
	// clone's own implementation slot.
	if g.rng.Intn(100) < 40 {
		logic2 := g.buildLogicAux(g.ident("Impl"), ps.logicVars, ps.logicFuncs)
		l2 := g.compileInstall(mk(logic2.Address), src)
		g.dep.SetSlot(l2.Address, slot, logic2.Address)
	}
}

// implSlot picks a slot proxy's implementation slot and its expected
// standard: the EIP-1967 slot, the EIP-1822 slot, or for ad-hoc proxies a
// random low slot, far above any packed variable and below any
// keccak-derived one.
func (g *generator) implSlot(shape Shape) (etypes.Hash, string) {
	switch shape {
	case ShapeEIP1967Proxy:
		return slotEIP1967, "EIP-1967"
	case ShapeEIP1822Proxy:
		return slotEIP1822, "EIP-1822"
	}
	return etypes.HashFromWord(u256.FromUint64(uint64(0x40 + g.rng.Intn(64)))), "Others"
}

// buildDiamond compiles an EIP-2535 facet router and registers one facet's
// selectors in its mapping. Ground truth proxy, but the crafted-selector
// probe always misses the facet table, so Detectable is false.
func (g *generator) buildDiamond() {
	vars := g.randVars("f", 1)
	funcs := append(g.accessors("f", vars), g.constFunc("fVersion", 2))
	facet := g.buildLogicAux(g.ident("Facet"), vars, funcs)

	base := etypes.Keccak([]byte(g.ident("diamond.storage")))
	src := &solc.Contract{
		Name:     g.ident("Diamond"),
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateDiamond, Slot: base},
	}
	g.maybeDecoys(src)
	l := g.compileInstall(&Label{
		Kind: ShapeDiamond, IsProxy: true, Detectable: false,
		HasDelegateCall: true, Logic: facet.Address,
		HasSource: g.sourceDice(),
	}, src)
	g.dep.RegisterFacet(l, facet)
}

// buildLibraryCaller compiles the library idiom: the fallback delegatecalls
// a fixed library with *constructed* call data. DELEGATECALL present, probe
// data never forwarded — the negative that defeats opcode-only detection.
func (g *generator) buildLibraryCaller() {
	libFn := g.constFunc("libHelper", 7)
	lib := g.buildLogicAux(g.ident("Lib"), nil, []solc.Func{libFn})

	vars := g.randVars("c", 1)
	src := &solc.Contract{
		Name: g.ident("LibUser"), Vars: vars, Funcs: g.accessors("c", vars),
		Fallback: solc.Fallback{
			Kind: solc.FallbackLibraryCall, Target: lib.Address,
			Proto: libFn.ABI.Prototype(),
		},
	}
	g.maybeDecoys(src)
	g.compileInstall(&Label{
		Kind: ShapeLibraryCaller, HasDelegateCall: true, HasSource: g.sourceDice(),
	}, src)
}

// buildDispatcherOnly compiles a plain application contract: dispatcher and
// storage, no DELEGATECALL anywhere.
func (g *generator) buildDispatcherOnly() {
	vars := g.randVars("d", 1+g.rng.Intn(2))
	funcs := append(g.accessors("d", vars), g.constFunc("dPing", 1))
	fb := solc.Fallback{Kind: solc.FallbackRevert}
	if g.rng.Intn(2) == 0 {
		fb.Kind = solc.FallbackStop
	}
	src := &solc.Contract{Name: g.ident("App"), Vars: vars, Funcs: funcs, Fallback: fb}
	g.maybeDecoys(src)
	g.compileInstall(&Label{Kind: ShapeDispatcherOnly, HasSource: g.sourceDice()}, src)
}

// buildDeadDelegate compiles a plain contract and appends an unreachable
// STOP; DELEGATECALL trailer. The disassembly filter sees the opcode and
// passes the contract to emulation, which must still say "not a proxy".
func (g *generator) buildDeadDelegate() {
	vars := g.randVars("z", 1)
	funcs := append(g.accessors("z", vars), g.constFunc("zPing", 3))
	src := &solc.Contract{
		Name: g.ident("Decoy"), Vars: vars, Funcs: funcs,
		Fallback: solc.Fallback{Kind: solc.FallbackRevert},
	}
	g.maybeDecoys(src)
	// The bytecode diverges from the source, which is never published.
	g.install(&Label{
		Kind: ShapeDeadDelegate, HasDelegateCall: true,
		Source: src, Code: append(solc.MustCompile(src), 0x00, 0xF4),
	})
}
