package gen

import (
	"math/rand"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/solc"
	"repro/internal/u256"
)

// The timeline generator scripts upgrade histories instead of snapshots:
// each proxy is deployed against a clean logic, upgraded to a logic whose
// layout collides with the proxy's (the window opens), and upgraded again
// to a fixed logic (the window closes). The ground truth is therefore a
// per-proxy sequence of (block, logic, collides) steps — exactly what a
// live follower must reproduce block-by-block and what the watch-parity
// oracle diffs against cold analysis of the end state.

// slotEIP1967Beacon = keccak256("eip1967.proxy.beacon") - 1, duplicated
// from the analyzer so the generator shares no code with the system under
// test.
var slotEIP1967Beacon = etypes.HashFromWord(
	u256.FromBytes32(keccak.Sum256([]byte("eip1967.proxy.beacon"))).Sub(u256.One()))

// TimelineKind selects how a scripted proxy stores its implementation.
type TimelineKind int

// Timeline proxy kinds. The first three keep the logic address in the
// proxy's own storage (EIP-1967 slot, EIP-1822 slot, ad-hoc low slot); the
// beacon kind keeps only a beacon address there — upgrades rewrite the
// beacon's storage and the proxy's own slots never change.
const (
	TimelineEIP1967 TimelineKind = iota
	TimelineEIP1822
	TimelineAdHoc
	TimelineBeacon
)

// String names the kind.
func (k TimelineKind) String() string {
	switch k {
	case TimelineEIP1967:
		return "eip1967"
	case TimelineEIP1822:
		return "eip1822"
	case TimelineAdHoc:
		return "adhoc"
	case TimelineBeacon:
		return "beacon"
	}
	return "unknown"
}

// timelineKinds is the coverage cycle: every corpus with at least four
// proxies exercises all kinds including the beacon indirection.
var timelineKinds = []TimelineKind{
	TimelineEIP1967, TimelineBeacon, TimelineEIP1822, TimelineAdHoc,
}

// TimelineStep is one point of a proxy's logic history: from Block onwards
// the proxy delegates to Logic, and Collides says whether that pairing was
// built to collide (storage and possibly function collisions).
type TimelineStep struct {
	Block    uint64
	Logic    etypes.Address
	Collides bool
}

// TimelineProxy is one scripted proxy with its ground-truth history.
type TimelineProxy struct {
	// Address is the proxy contract.
	Address etypes.Address
	// Kind is how the implementation is stored.
	Kind TimelineKind
	// WatchAddr/WatchSlot locate the storage cell whose value IS the
	// current logic address: the proxy's own implementation slot for slot
	// kinds, the beacon's slot 0 for the beacon kind.
	WatchAddr etypes.Address
	WatchSlot etypes.Hash
	// ImplSlot is the proxy's own slot holding the logic (slot kinds) or
	// the beacon address (beacon kind).
	ImplSlot etypes.Hash
	// Beacon is the beacon contract; zero unless Kind == TimelineBeacon.
	Beacon etypes.Address
	// Steps is the deploy plus every upgrade, oldest first.
	Steps []TimelineStep
}

// LogicAt returns the logic active as of block b (zero before deploy).
func (p *TimelineProxy) LogicAt(b uint64) etypes.Address {
	var out etypes.Address
	for _, s := range p.Steps {
		if s.Block <= b {
			out = s.Logic
		}
	}
	return out
}

// TimelineEvent is one block's happening, across all proxies in order.
type TimelineEvent struct {
	Block uint64
	Proxy etypes.Address
	Logic etypes.Address
	// Deploy marks the proxy's deployment; false means an upgrade.
	Deploy bool
	// Collides is the ground truth of the pairing the event activates.
	Collides bool
}

// TimelineConfig seeds a scripted upgrade corpus.
type TimelineConfig struct {
	Seed int64
	// Proxies is the number of scripted proxies (default 4 — one full
	// kind cycle).
	Proxies int
}

// Timeline is a generated upgrade-history corpus.
type Timeline struct {
	Config   TimelineConfig
	Chain    *chain.Chain
	Registry *etherscan.Registry
	Proxies  []*TimelineProxy
	// Events lists every deploy and upgrade in block order.
	Events []TimelineEvent
}

// End returns the final block height of the scripted history.
func (t *Timeline) End() uint64 { return t.Chain.CurrentBlock() }

// GenerateTimeline builds a scripted upgrade corpus. Deterministic in the
// seed; every proxy's history contains at least one collision window that
// opens mid-timeline and is closed by a later fixing upgrade.
func GenerateTimeline(cfg TimelineConfig) *Timeline {
	if cfg.Proxies <= 0 {
		cfg.Proxies = len(timelineKinds)
	}
	c := &Corpus{
		Config:   Config{Seed: cfg.Seed, Contracts: cfg.Proxies},
		Chain:    chain.New(),
		Registry: etherscan.NewRegistry(),
		ByAddr:   make(map[etypes.Address]*Label),
	}
	// A distinct stream from Generate's so a timeline and a snapshot
	// corpus with the same seed do not mirror each other.
	g := &generator{
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x7a11e7b10c4f0110)),
		corpus:   c,
		nextAddr: 0x100,
	}
	t := &Timeline{Config: cfg, Chain: c.Chain, Registry: c.Registry}
	c.Chain.AdvanceTo(1)

	// Collision patterns per proxy: deploy clean, open a window, close it,
	// optionally reopen one that stays open at the end. Every pattern has
	// a closed mid-timeline window, which is what the parity oracle's
	// while-open/cleared-after assertions need.
	type plan struct {
		tp      *TimelineProxy
		pattern []bool // steps after deploy: collides?
		funcs   []solc.Func
		vars    []solc.Var
	}
	plans := make([]*plan, cfg.Proxies)
	for i := range plans {
		g.unit = i
		kind := timelineKinds[i%len(timelineKinds)]
		pattern := []bool{true, false}
		if g.rng.Intn(100) < 35 {
			pattern = append(pattern, true) // window still open at the end
		}
		pl := &plan{pattern: pattern}
		pl.vars, pl.funcs = g.timelineProxySide()
		pl.tp = g.deployTimelineProxy(kind, pl.vars, pl.funcs)
		t.Proxies = append(t.Proxies, pl.tp)
		t.Events = append(t.Events, TimelineEvent{
			Block: pl.tp.Steps[0].Block, Proxy: pl.tp.Address,
			Logic: pl.tp.Steps[0].Logic, Deploy: true,
		})
		plans[i] = pl
		c.Chain.AdvanceBlocks(1)
	}
	// Interleave upgrades across proxies, one event per block: proxy A's
	// first upgrade, proxy B's first, ..., then the second round.
	for step := 0; ; step++ {
		any := false
		for i, pl := range plans {
			if step >= len(pl.pattern) {
				continue
			}
			any = true
			g.unit = i
			ev := g.upgradeTimelineProxy(pl.tp, pl.pattern[step], pl.funcs, pl.vars)
			t.Events = append(t.Events, ev)
			c.Chain.AdvanceBlocks(1)
		}
		if !any {
			break
		}
	}
	return t
}

// timelineProxySide builds the proxy-side storage and functions shared by
// every logic version: the Audius shape's owner address in slot 0 plus its
// accessor pair. Clean logics mirror the type sequence; colliding logics
// pack initializer bits into the same slot.
func (g *generator) timelineProxySide() ([]solc.Var, []solc.Func) {
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

// timelineLogic compiles one logic version. A colliding version re-creates
// the Audius layout clash (packed bools under the proxy's owner address)
// and sometimes shadows a proxy selector; a clean version mirrors the
// proxy's type sequence exactly so no boundary mismatch exists. Sources
// are always published — the scripted collision windows must be observable
// to the layout analysis.
func (g *generator) timelineLogic(collides bool, proxyFuncs []solc.Func, proxyVars []solc.Var) *Label {
	var vars []solc.Var
	var funcs []solc.Func
	if collides {
		inited := g.ident("lInitialized")
		initing := g.ident("lInitializing")
		vars = []solc.Var{
			{Name: inited, Type: solc.TypeBool},
			{Name: initing, Type: solc.TypeBool},
		}
		funcs = []solc.Func{
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
		if g.rng.Intn(100) < 50 {
			// Function collision too: same prototype as a proxy function.
			funcs = append(funcs, solc.Func{
				ABI:  proxyFuncs[0].ABI,
				Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(2)}},
			})
		}
	} else {
		for _, pv := range proxyVars {
			vars = append(vars, solc.Var{Name: g.ident("l"), Type: pv.Type})
		}
		funcs = append(funcs, solc.Func{
			ABI:  abi.Function{Name: g.ident("lGet")},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: vars[0].Name}},
		})
	}
	src := &solc.Contract{
		Name: g.ident("TLogic"), Vars: vars, Funcs: funcs,
		Fallback: solc.Fallback{Kind: solc.FallbackRevert},
	}
	return g.compileInstall(&Label{Shape: ShapeLogic, HasSource: true}, src)
}

// deployTimelineProxy installs the proxy (and its beacon for the beacon
// kind) delegating to a fresh clean logic, in the chain's current block.
func (g *generator) deployTimelineProxy(kind TimelineKind, vars []solc.Var, funcs []solc.Func) *TimelineProxy {
	logic := g.timelineLogic(false, funcs, vars)
	tp := &TimelineProxy{Kind: kind}

	switch kind {
	case TimelineBeacon:
		// The beacon holds the implementation in slot 0 behind an
		// implementation() getter; the proxy stores only the beacon
		// address, in the canonical EIP-1967 beacon slot.
		implVar := g.ident("bImpl")
		beaconSrc := &solc.Contract{
			Name: g.ident("Beacon"),
			Vars: []solc.Var{{Name: implVar, Type: solc.TypeAddress}},
			Funcs: []solc.Func{{
				ABI:  abi.Function{Name: "implementation"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: implVar}},
			}},
			Fallback: solc.Fallback{Kind: solc.FallbackRevert},
		}
		beacon := g.compileInstall(&Label{Shape: ShapeLogic, HasSource: true}, beaconSrc)
		src := &solc.Contract{
			Name: g.ident("BeaconProxy"), Vars: vars, Funcs: funcs,
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateBeacon, Slot: slotEIP1967Beacon},
		}
		// Detection sees the beacon proxy as a hard-coded forwarder: the
		// implementation address never appears in the proxy's own storage
		// reads, only the beacon address does.
		l := g.compileInstall(&Label{
			Shape: ShapeHardcodedForwarder, IsProxy: true, Detectable: true,
			HasDelegateCall: true, Logic: logic.Address, Standard: "Others",
			HasSource: true,
		}, src)
		g.corpus.Chain.SetStorageDirect(l.Address, slotEIP1967Beacon,
			etypes.HashFromWord(beacon.Address.Word()))
		g.corpus.Chain.SetStorageDirect(beacon.Address, etypes.Hash{},
			etypes.HashFromWord(logic.Address.Word()))
		tp.Address = l.Address
		tp.Beacon = beacon.Address
		tp.ImplSlot = slotEIP1967Beacon
		tp.WatchAddr = beacon.Address
		tp.WatchSlot = etypes.Hash{}
	default:
		var slot etypes.Hash
		var std string
		var shape Shape
		switch kind {
		case TimelineEIP1967:
			slot, std, shape = slotEIP1967, "EIP-1967", ShapeEIP1967Proxy
		case TimelineEIP1822:
			slot, std, shape = slotEIP1822, "EIP-1822", ShapeEIP1822Proxy
		default:
			slot = etypes.HashFromWord(u256.FromUint64(uint64(0x40 + g.rng.Intn(64))))
			std, shape = "Others", ShapeAdHocProxy
		}
		src := &solc.Contract{
			Name: g.ident("TProxy"), Vars: vars, Funcs: funcs,
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
		}
		l := g.compileInstall(&Label{
			Shape: shape, IsProxy: true, Detectable: true,
			HasDelegateCall: true, Logic: logic.Address,
			TargetStorage: true, ImplSlot: slot, Standard: std,
			HasSource: true,
		}, src)
		g.corpus.Chain.SetStorageDirect(l.Address, slot,
			etypes.HashFromWord(logic.Address.Word()))
		tp.Address = l.Address
		tp.ImplSlot = slot
		tp.WatchAddr = l.Address
		tp.WatchSlot = slot
	}
	tp.Steps = []TimelineStep{{
		Block: g.corpus.Chain.CurrentBlock(), Logic: logic.Address,
	}}
	return tp
}

// upgradeTimelineProxy installs a fresh logic version and rewrites the
// watched cell — the proxy's own slot for slot kinds, the beacon's storage
// for the beacon kind (the proxy's storage stays untouched).
func (g *generator) upgradeTimelineProxy(tp *TimelineProxy, collides bool, funcs []solc.Func, vars []solc.Var) TimelineEvent {
	logic := g.timelineLogic(collides, funcs, vars)
	g.corpus.Chain.SetStorageDirect(tp.WatchAddr, tp.WatchSlot,
		etypes.HashFromWord(logic.Address.Word()))
	blk := g.corpus.Chain.CurrentBlock()
	tp.Steps = append(tp.Steps, TimelineStep{Block: blk, Logic: logic.Address, Collides: collides})
	return TimelineEvent{
		Block: blk, Proxy: tp.Address, Logic: logic.Address, Collides: collides,
	}
}
