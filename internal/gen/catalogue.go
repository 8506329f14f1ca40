package gen

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/solc"
	"repro/internal/u256"
)

// The catalogue: fixed contracts modelled on the paper's landscape and its
// Table 2 corpus. The landscape mix (internal/dataset) deploys them; gen's
// own shapes are drawn at random instead.

// A Template is one catalogue contract, built once: its code, the source
// model it compiles from, and the ground truth every deployment of it
// shares. A deployment copies the label and fills in what varies per
// deployment: the address, the logic it points at, source availability.
type Template struct {
	Label
	// Published is the source a deployment with source publishes: the
	// model the code compiles from, or the declared model of hand-written
	// code.
	Published *solc.Contract
}

// compiled is the template of src, with the given ground truth.
func compiled(truth Label, src *solc.Contract) Template {
	truth.Source, truth.Code = src, solc.MustCompile(src)
	return Template{Label: truth, Published: src}
}

// slotProxy is the ground truth of a proxy that keeps its logic address in
// a storage slot.
func slotProxy(kind Shape, slot etypes.Hash, std string) Label {
	return Label{
		Kind: kind, IsProxy: true, Detectable: true, HasDelegateCall: true,
		TargetStorage: true, ImplSlot: slot, Standard: std,
	}
}

// selectors are the functions' selectors in ascending order, the form of
// Label.FuncCollisions.
func selectors(funcs ...solc.Func) [][4]byte {
	out := make([][4]byte, len(funcs))
	for i, f := range funcs {
		out[i] = f.ABI.Selector()
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// MinimalProxy is a raw EIP-1167 runtime over logic; a deployment with
// source publishes the equivalent hard-coded forwarder.
func MinimalProxy(logic etypes.Address) Template {
	return Template{
		Label: Label{
			Kind: ShapeMinimalProxy, IsProxy: true, Detectable: true,
			HasDelegateCall: true, Logic: logic, Standard: "EIP-1167",
			Code: disasm.MinimalProxyRuntime(logic),
		},
		Published: &solc.Contract{
			Name:     "MinimalProxy",
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateHardcoded, Target: logic},
		},
	}
}

// Plain is a non-proxy application contract with a few functions.
func Plain(n int) Template {
	return compiled(Label{Kind: ShapePlain}, &solc.Contract{
		Name: fmt.Sprintf("App%d", n),
		// A 4-byte protocol magic stored as a constant, not a selector.
		DecoyPush4: []([4]byte){{0xde, 0xc0, 0xde + byte(n%2), byte(n)}},
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "total", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: fmt.Sprintf("run%d", n)},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "total"}}},
			{ABI: abi.Function{Name: "owner"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
			{ABI: abi.Function{Name: "deposit", Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: "total", Arg: 0}}},
		},
	})
}

// Token is an ERC-20-shaped non-proxy.
func Token(n int) Template {
	return compiled(Label{Kind: ShapeToken}, &solc.Contract{
		Name: fmt.Sprintf("Token%d", n),
		// ERC-165/721 interface identifiers embedded as constants: 4-byte
		// data after PUSH4 opcodes that are NOT function selectors — the
		// false-positive bait for naive any-PUSH4 signature extraction.
		DecoyPush4: [][4]byte{{0x01, 0xff, 0xc9, 0xa7}, {0x80, 0xac, 0x58, 0xcd}},
		Vars: []solc.Var{
			{Name: "totalSupply", Type: solc.TypeUint256},
			{Name: "paused", Type: solc.TypeBool},
			{Name: "owner", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "totalSupply"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "totalSupply"}}},
			{ABI: abi.Function{Name: "transfer", Params: []string{"address", "uint256"}},
				Body: []solc.Stmt{solc.RequireVarZero{Var: "paused"}, solc.Stop{}}},
			{ABI: abi.Function{Name: "balanceOf", Params: []string{"address"}},
				Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(uint64(n))}}},
		},
	})
}

// CloneLogic is a logic contract for minimal-proxy clone families.
func CloneLogic(family string) Template {
	return compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: family + "Logic",
		Vars: []solc.Var{
			{Name: "count", Type: solc.TypeUint256},
			{Name: "creator", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "mint", Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: "count", Arg: 0}}},
			{ABI: abi.Function{Name: "count"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "count"}}},
			{ABI: abi.Function{Name: "creator"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "creator"}}},
		},
	})
}

// OwnableDelegateProxy reproduces the Wyvern OwnableDelegateProxy shape:
// the proxy and logic both expose proxyType(), implementation() and
// upgradeabilityOwner() (via inheritance in the original), so every
// deployed duplicate carries the same three function collisions — the
// source of 98.7% of the function collisions in Table 3.
func OwnableDelegateProxy() (proxy, logic Template) {
	shared := []solc.Func{
		{ABI: abi.Function{Name: "proxyType"},
			Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(2)}}},
		{ABI: abi.Function{Name: "implementation"},
			Body: []solc.Stmt{solc.ReturnSlotField{Slot: slotOne, Offset: 0, Size: 20}}},
		{ABI: abi.Function{Name: "upgradeabilityOwner"},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
	}
	truth := slotProxy(ShapeOwnableProxy, slotOne, "Others")
	truth.FuncCollisions = selectors(shared...)
	proxy = compiled(truth, &solc.Contract{
		Name: "OwnableDelegateProxy",
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "implementation_", Type: solc.TypeAddress},
		},
		Funcs:    shared,
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	})
	logicFuncs := append([]solc.Func{}, shared...)
	logicFuncs = append(logicFuncs,
		solc.Func{ABI: abi.Function{Name: "atomicMatch", Params: []string{"uint256"}},
			Body: []solc.Stmt{solc.Stop{}}},
	)
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "AuthenticatedProxyLogic",
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "implementation_", Type: solc.TypeAddress},
		},
		Funcs: logicFuncs,
	})
	return proxy, logic
}

// TransparentProxy is an upgradeable proxy with admin functions, the
// EIP-1967 transparent proxy (kind ShapeEIP1967Proxy) or the same code
// over the EIP-1822 slot (ShapeEIP1822Proxy). Both the implementation and
// the admin live in hash-derived slots, out of reach of any logic layout —
// exactly why the standards exist.
func TransparentProxy(kind Shape) Template {
	name, slot, std := "TransparentUpgradeableProxy", slotEIP1967, "EIP-1967"
	if kind == ShapeEIP1822Proxy {
		name, slot, std = "UUPSProxy", slotEIP1822, "EIP-1822"
	}
	return compiled(slotProxy(kind, slot, std), &solc.Contract{
		Name: name,
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "admin"},
				Body: []solc.Stmt{solc.ReturnSlotField{Slot: slotEIP1967Admin, Offset: 0, Size: 20}}},
			{ABI: abi.Function{Name: "upgradeTo", Params: []string{"address"}},
				Body: []solc.Stmt{
					solc.InlineAsm{Emit: requireCallerIsAt(slotEIP1967Admin)},
					solc.InlineAsm{Emit: func(p *asm.Program, _ func(string) string) {
						// implementation slot = arg 0
						p.PushUint(4).Op(evm.CALLDATALOAD).
							Push(slot.Word()).Op(evm.SSTORE)
					}},
				}},
		},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
}

// requireCallerIsAt emits require(caller == address(sload(slot))).
func requireCallerIsAt(slot etypes.Hash) func(p *asm.Program, fresh func(string) string) {
	return func(p *asm.Program, fresh func(string) string) {
		ok := fresh("auth")
		p.Push(slot.Word()).Op(evm.SLOAD).
			Push(u256.One().Shl(160).Sub(u256.One())).Op(evm.AND).
			Op(evm.CALLER).Op(evm.EQ).
			PushLabel(ok).Op(evm.JUMPI).
			PushUint(0).PushUint(0).Op(evm.REVERT).
			Label(ok)
	}
}

// UUPSLogic is a logic contract for EIP-1822/1967 style proxies.
func UUPSLogic(n int) Template {
	return compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: fmt.Sprintf("UUPSLogicV%d", n),
		Vars: []solc.Var{
			{Name: "value", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "value"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "value"}}},
			{ABI: abi.Function{Name: "setValue", Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: "value", Arg: 0}}},
			{ABI: abi.Function{Name: "version"},
				Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(uint64(n))}}},
		},
	})
}

// AdHocProxy stores its implementation at the n-th unstructured slot
// without following any EIP — the "Others" bucket of Table 4. The slot is
// not a known EIP slot, but far enough from the layout that careful logic
// contracts do not trample it.
func AdHocProxy(n int) Template {
	slot := etypes.HashFromWord(u256.FromUint64(0x40 + uint64(n)))
	return compiled(slotProxy(ShapeAdHocProxy, slot, "Others"), &solc.Contract{
		Name: fmt.Sprintf("CustomProxy%d", n),
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "proxyOwner"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
			{ABI: abi.Function{Name: "setLogic", Params: []string{"address"}},
				Body: []solc.Stmt{
					solc.RequireCallerIs{Var: "owner"},
					solc.InlineAsm{Emit: func(p *asm.Program, _ func(string) string) {
						p.PushUint(4).Op(evm.CALLDATALOAD).
							Push(slot.Word()).Op(evm.SSTORE)
					}},
				}},
		},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
}

// AdHocLogic matches AdHocProxy's declared layout (owner at slot 0), so
// the generic ad-hoc pairs are collision-free.
func AdHocLogic(n int) Template {
	return compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: fmt.Sprintf("CustomLogic%d", n),
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "value", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "value"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "value"}}},
			{ABI: abi.Function{Name: "store", Params: []string{"uint256"}},
				Body: []solc.Stmt{solc.AssignArg{Var: "value", Arg: 0}}},
			{ABI: abi.Function{Name: "owner"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}},
		},
	})
}

// HoneypotPair is the Listing 1 scam: the logic's lure function
// free_ether_withdrawal() shares selector 0xdf4a3106 with the proxy's
// impl_LUsXCWD2AKCc() — a genuine Keccak collision, not a same-name match —
// so callers chasing the lure execute the proxy's draining body instead.
func HoneypotPair() (proxy, logic Template) {
	usdt := etypes.MustAddress("0xdAC17F958D2ee523a2206206994597C13D831ec7")
	drain := solc.Func{ABI: abi.Function{Name: "impl_LUsXCWD2AKCc"},
		Body: []solc.Stmt{
			solc.DelegateCallSig{
				Target: usdt,
				Proto:  "transfer(address,uint256)",
				Args:   []u256.Int{u256.Zero(), u256.FromUint64(1000)},
			},
		}}
	truth := slotProxy(ShapeHoneypotProxy, slotOne, "Others")
	truth.FuncCollisions = selectors(drain)
	proxy = compiled(truth, &solc.Contract{
		Name: "HoneypotProxy",
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "logic", Type: solc.TypeAddress},
		},
		Funcs:    []solc.Func{drain},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	})
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "HoneypotLure",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "free_ether_withdrawal"},
				Body: []solc.Stmt{
					solc.SendToCaller{Amount: u256.FromUint64(10_000_000_000_000_000_000)}, // 10 ether
				}},
		},
	})
	return proxy, logic
}

// audiusProxy is the Audius proxy's source under the given name: the
// owner address at slot 0, the logic address at slot 1.
func audiusProxy(name string) *solc.Contract {
	return &solc.Contract{
		Name: name,
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
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	}
}

// audiusCollision is the ground truth of a proxy over the Audius layout
// clash: packed initializer flags under the proxy's owner address.
func audiusCollision() Label {
	l := slotProxy(ShapeAudiusProxy, slotOne, "Others")
	l.StorageCollision = true
	return l
}

// initFlags are the logic's packed initializer guard, both in slot 0.
var initFlags = []solc.Var{
	{Name: "initialized", Type: solc.TypeBool},
	{Name: "initializing", Type: solc.TypeBool},
}

// AudiusPair is the Listing 2 storage collision: the proxy's owner address
// at slot 0 collides with the logic's packed initializer guard bools, and
// the logic's inherited owner assignment tramples the guard.
func AudiusPair() (proxy, logic Template) {
	proxy = compiled(audiusCollision(), audiusProxy("AudiusAdminUpgradeabilityProxy"))
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "AudiusGovernanceLogic",
		Vars: initFlags,
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "initialize"},
				Body: []solc.Stmt{
					solc.RequireInitializable{Initialized: "initialized", Initializing: "initializing"},
					solc.AssignConst{Var: "initialized", Value: u256.One()},
					solc.AssignConst{Var: "initializing", Value: u256.Zero()},
					solc.AssignCallerToSlot{Slot: etypes.Hash{}, Offset: 0, Size: 20},
				}},
			{ABI: abi.Function{Name: "owner"},
				Body: []solc.Stmt{solc.ReturnSlotField{Slot: etypes.Hash{}, Offset: 0, Size: 20}}},
		},
	})
	return proxy, logic
}

// GuardedBenignPair has the same layout mismatch as the Audius pair but the
// trampling write sits behind an onlyOwner check, so it is not actually
// exploitable. Static slicing cannot see the auth dominance, making this
// the engines' characteristic false positive (Table 2).
func GuardedBenignPair() (proxy, logic Template) {
	proxy = compiled(audiusCollision(), audiusProxy("GuardedProxy"))
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "GuardedLogic",
		Vars: initFlags,
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "initialize"},
				Body: []solc.Stmt{
					// Auth first: only the already-set owner (proxy slot 0,
					// bytes 0..20) may run this, so an attacker cannot
					// trigger the trampling write.
					solc.InlineAsm{Emit: requireCallerIsAt(etypes.Hash{})},
					solc.RequireInitializable{Initialized: "initialized", Initializing: "initializing"},
					solc.AssignConst{Var: "initialized", Value: u256.One()},
					solc.AssignCallerToSlot{Slot: etypes.Hash{}, Offset: 0, Size: 20},
				}},
		},
	})
	return proxy, logic
}

// PaddingPair has identical field boundaries (full-width words) with
// different variable names: harmless, but name-comparing tools flag it —
// the USCHunt false positive of Table 2.
func PaddingPair(n int) (proxy, logic Template) {
	proxy = compiled(slotProxy(ShapeAdHocProxy, slotOne, "Others"), &solc.Contract{
		Name: fmt.Sprintf("PaddedProxy%d", n),
		Vars: []solc.Var{
			{Name: "__gap0", Type: solc.TypeUint256},
			{Name: "logic", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "gap"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "__gap0"}}},
		},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	})
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: fmt.Sprintf("PaddedLogic%d", n),
		Vars: []solc.Var{
			{Name: "counter", Type: solc.TypeUint256}, // same slot 0, same width
			{Name: "reserved", Type: solc.TypeAddress},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "bump"},
				Body: []solc.Stmt{solc.AssignConst{Var: "counter", Value: u256.FromUint64(uint64(n))}}},
			{ABI: abi.Function{Name: "counter"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "counter"}}},
		},
	})
	return proxy, logic
}

// ObfuscatedAudiusPair is the Audius collision with every colliding storage
// access going through a computed (non-constant) slot, defeating the
// slicing engines of both Proxion and CRUSH while remaining detectable by
// a purely declaration-level comparison — the engine false negatives of
// Table 2.
func ObfuscatedAudiusPair() (proxy, logic Template) {
	proxy = compiled(audiusCollision(), audiusProxy("ObfuscatedProxy"))
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "ObfuscatedLogic",
		Vars: initFlags,
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "initialize"},
				Body: []solc.Stmt{solc.InlineAsm{Emit: obfuscatedInitialize}}},
			{ABI: abi.Function{Name: "owner"},
				Body: []solc.Stmt{solc.InlineAsm{Emit: func(p *asm.Program, _ func(string) string) {
					pushComputedSlotZero(p)
					p.Op(evm.SLOAD).
						Push(u256.One().Shl(160).Sub(u256.One())).Op(evm.AND).
						PushUint(0).Op(evm.MSTORE).
						PushUint(32).PushUint(0).Op(evm.RETURN)
				}}}},
		},
	})
	return proxy, logic
}

// pushComputedSlotZero pushes slot 0 as a runtime sum, which symbolic
// constant-tracking cannot fold.
func pushComputedSlotZero(p *asm.Program) {
	p.Op(evm.CALLDATASIZE).Op(evm.CALLDATASIZE).Op(evm.SUB) // always 0, not a constant to the slicer
}

// obfuscatedInitialize reimplements the Audius initialize() with computed
// slots: require(initializing || !initialized); set guard; owner = caller.
func obfuscatedInitialize(p *asm.Program, fresh func(string) string) {
	ok := fresh("obf_ok")
	// initializing = byte 1 of slot 0.
	pushComputedSlotZero(p)
	p.Op(evm.SLOAD).PushUint(8).Op(evm.SHR).PushUint(0xff).Op(evm.AND)
	p.PushLabel(ok).Op(evm.JUMPI)
	// !initialized = byte 0 of slot 0 is zero.
	pushComputedSlotZero(p)
	p.Op(evm.SLOAD).PushUint(0xff).Op(evm.AND).Op(evm.ISZERO)
	p.PushLabel(ok).Op(evm.JUMPI)
	p.PushUint(0).PushUint(0).Op(evm.REVERT)
	p.Label(ok)
	// slot0 = (slot0 & ~0xffff) | 0x0001  (initialized=1, initializing=0)
	pushComputedSlotZero(p)
	p.Op(evm.SLOAD).
		Push(u256.FromUint64(0xffff).Not()).Op(evm.AND).
		PushUint(1).Op(evm.OR)
	pushComputedSlotZero(p)
	p.Op(evm.SSTORE)
	// slot0 = (slot0 & ~addrMask) | caller
	addrMask := u256.One().Shl(160).Sub(u256.One())
	pushComputedSlotZero(p)
	p.Op(evm.SLOAD).
		Push(addrMask.Not()).Op(evm.AND).
		Op(evm.CALLER).Op(evm.OR)
	pushComputedSlotZero(p)
	p.Op(evm.SSTORE).
		Op(evm.STOP)
}

// sharedOwner is the slot-0 owner and slot-1 logic layout the Table 2
// function pairs' proxies declare.
var sharedOwner = []solc.Var{
	{Name: "owner", Type: solc.TypeAddress},
	{Name: "logic", Type: solc.TypeAddress}, // slot 1, the fallback's source
}

// CleanPair has identical names and layouts on both sides.
func CleanPair(n int) (proxy, logic Template) {
	proxy = compiled(slotProxy(ShapeAdHocProxy, slotOne, "Others"), &solc.Contract{
		Name: fmt.Sprintf("CleanProxy%d", n), Vars: sharedOwner,
		Funcs: []solc.Func{{ABI: abi.Function{Name: "proxyOwner"},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}}},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	})
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: fmt.Sprintf("CleanLogic%d", n), Vars: sharedOwner,
		Funcs: []solc.Func{{ABI: abi.Function{Name: "owner"},
			Body: []solc.Stmt{solc.ReturnStorageVar{Var: "owner"}}}},
	})
	return proxy, logic
}

// sameNameFunc is the prototype the n-th same-name pair shares.
func sameNameFunc(n int) abi.Function { return abi.Function{Name: fmt.Sprintf("op%d", n%40)} }

// SameNamePair is a proxy/logic pair sharing one prototype.
func SameNamePair(n int) (proxy, logic Template) {
	shared := solc.Func{ABI: sameNameFunc(n),
		Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(uint64(n))}}}
	truth := slotProxy(ShapeAdHocProxy, slotOne, "Others")
	truth.FuncCollisions = selectors(shared)
	proxy = compiled(truth, &solc.Contract{
		Name:     fmt.Sprintf("FnProxy%d", n),
		Vars:     sharedOwner,
		Funcs:    []solc.Func{shared},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	})
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: fmt.Sprintf("FnLogic%d", n),
		Funcs: []solc.Func{
			{ABI: shared.ABI, Body: []solc.Stmt{solc.Stop{}}},
			{ABI: abi.Function{Name: fmt.Sprintf("extra%d", n)}, Body: []solc.Stmt{solc.Stop{}}},
		},
	})
	return proxy, logic
}

// NameOnlyPair shares a function name but not its parameter list, hence
// no selector: not a collision.
func NameOnlyPair() (proxy, logic Template) {
	proxy = compiled(slotProxy(ShapeAdHocProxy, slotOne, "Others"), &solc.Contract{
		Name: "FalseFnProxy",
		Vars: sharedOwner,
		Funcs: []solc.Func{{ABI: abi.Function{Name: "configure"},
			Body: []solc.Stmt{solc.Stop{}}}},
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	})
	logic = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "FalseFnLogic",
		Funcs: []solc.Func{{ABI: abi.Function{Name: "configure", Params: []string{"uint256"}},
			Body: []solc.Stmt{solc.Stop{}}}},
	})
	return proxy, logic
}

// LibraryUser delegatecalls the n-th math library, deployed at lib, with
// constructed call data. The library touches scratch storage with a layout
// unlike the caller's, so trace-driven tools that misread the delegatecall
// as a proxy relationship report a spurious storage collision.
func LibraryUser(n int, lib etypes.Address) Template {
	return compiled(Label{Kind: ShapeLibraryUser, HasDelegateCall: true, Logic: lib}, &solc.Contract{
		Name: fmt.Sprintf("LibraryUser%d", n),
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress}, // slot 0: address
			{Name: "result", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "result"},
				Body: []solc.Stmt{solc.ReturnStorageVar{Var: "result"}}},
			{ABI: abi.Function{Name: "ownerOf"},
				Body: []solc.Stmt{solc.RequireCallerIs{Var: "owner"}, solc.ReturnStorageVar{Var: "owner"}}},
		},
		// Library call in the fallback path: contains DELEGATECALL, but
		// forwards nothing.
		Fallback: solc.Fallback{Kind: solc.FallbackLibraryCall, Target: lib, Proto: "sqrt(uint256)"},
	})
}

// Library is the n-th math library LibraryUser calls.
func Library(n int) Template {
	return compiled(Label{Kind: ShapeLibrary}, &solc.Contract{
		Name: fmt.Sprintf("MathLib%d", n),
		Vars: []solc.Var{
			{Name: "scratchLo", Type: solc.TypeUint128}, // slot 0: two halves
			{Name: "scratchHi", Type: solc.TypeUint128},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "sqrt", Params: []string{"uint256"}},
				Body: []solc.Stmt{
					solc.AssignArg{Var: "scratchLo", Arg: 0},
					solc.ReturnStorageVar{Var: "scratchLo"},
				}},
		},
	})
}

// Diamond is an EIP-2535 multi-facet proxy with one facet; Proxion
// documents missing these (random call data cannot hit a registered facet
// selector), so its Detectable label is false.
func Diamond() (proxy, facet Template) {
	proxy = compiled(Label{Kind: ShapeDiamond, IsProxy: true, HasDelegateCall: true}, &solc.Contract{
		Name: "Diamond",
		Fallback: solc.Fallback{
			Kind: solc.FallbackDelegateDiamond,
			Slot: etypes.Keccak([]byte("diamond.standard.diamond.storage")),
		},
	})
	facet = compiled(Label{Kind: ShapeLogic}, &solc.Contract{
		Name: "DiamondLoupeFacet",
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "facets"},
				Body: []solc.Stmt{solc.ReturnConst{Value: u256.One()}}},
		},
	})
	return proxy, facet
}

// HostileProxy genuinely forwards call data via delegatecall in its
// fallback (ground truth: proxy, logic address in slot 1) but hits an
// INVALID opcode for call data that does not carry its magic tag — the
// emulation runtime errors behind Proxion's three function-collision false
// negatives in Table 2. The code is hand-assembled; the published source
// declares a dispatcher it does not have, with proxyType() and the declared
// functions (empty bodies), which collide with the logic's by construction.
func HostileProxy(declared ...abi.Function) Template {
	var p asm.Program
	// if calldataload(4) != MAGIC: INVALID
	p.PushUint(4).Op(evm.CALLDATALOAD).
		Push(u256.FromUint64(0xdeadbeef)).Op(evm.EQ).
		JumpI("fwd").
		Op(evm.INVALID).
		Label("fwd")
	// Forward the call data to the address in slot 1.
	p.Op(evm.CALLDATASIZE).PushUint(0).PushUint(0).Op(evm.CALLDATACOPY).
		PushUint(0).PushUint(0).
		Op(evm.CALLDATASIZE).PushUint(0).
		Push(slotOne.Word()).Op(evm.SLOAD).
		Op(evm.GAS).Op(evm.DELEGATECALL).
		Op(evm.POP).
		Op(evm.RETURNDATASIZE).PushUint(0).Op(evm.RETURN)
	funcs := []solc.Func{{ABI: abi.Function{Name: "proxyType"},
		Body: []solc.Stmt{solc.ReturnConst{Value: u256.FromUint64(2)}}}}
	var collide []solc.Func
	for _, f := range declared {
		collide = append(collide, solc.Func{ABI: f, Body: []solc.Stmt{solc.Stop{}}})
	}
	truth := slotProxy(ShapeHostileProxy, slotOne, "Others")
	truth.Detectable, truth.EmulationFails = false, true
	truth.FuncCollisions, truth.Code = selectors(collide...), p.MustAssemble()
	return Template{Label: truth, Published: &solc.Contract{
		Name: "TaggedForwarder",
		Vars: []solc.Var{
			{Name: "owner", Type: solc.TypeAddress},
			{Name: "logic", Type: solc.TypeAddress},
		},
		Funcs:    append(funcs, collide...),
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slotOne},
	}}
}

// Broken is undeployable-by-compiler junk that underflows the stack
// immediately — the ~1.2% emulation failures of Section 6.2.
func Broken(n int) Template {
	return Template{Label: Label{
		Kind: ShapeBroken, HasDelegateCall: true, EmulationFails: true,
		Code: []byte{byte(evm.ADD), byte(evm.DELEGATECALL), byte(n)},
	}}
}

// Destroyed self-destructs on any call, sweeping to the caller.
func Destroyed() Template {
	var p asm.Program
	p.Op(evm.CALLER).Op(evm.SELFDESTRUCT)
	return Template{Label: Label{Kind: ShapeDestroyed, Code: p.MustAssemble()}}
}
