package oracle

import (
	"fmt"

	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/static"
)

// CheckStaticParity is the static↔dynamic cross-check oracle: for every
// labeled contract it runs the emulation-free static analyzer over the
// installed bytecode and requires the summary to tell the same story as
// the generation-time ground truth — the story the dynamic emulation
// pipeline is separately held to. Each taxonomy shape has a precise
// static signature:
//
//   - minimal proxies and hard-coded forwarders: exactly one reachable
//     DELEGATECALL, hardcoded provenance, the labeled logic address,
//     forwarding the full call data;
//   - storage proxies (EIP-1967, EIP-1822, ad-hoc): every reachable
//     delegate loads the labeled implementation slot (slot-const
//     provenance) and forwards;
//   - diamonds: a keccak-derived facet lookup that still forwards — the
//     shape dynamic emulation cannot see (the paper's acknowledged
//     limitation), which is exactly why the static layer reports it;
//   - library callers: delegates exist but none forward the received
//     call data (constructed-argument calls are not proxies);
//   - dead delegates: the opcode is present but no DELEGATECALL is
//     reachable;
//   - dispatcher-only and plain logic: no delegates at all.
//
// For compiled contracts the recovered selector table must equal the
// source-level function list — the dispatcher pattern may not invent
// selectors (decoy constants) or lose any.
func CheckStaticParity(c *gen.Corpus) []Mismatch {
	var out []Mismatch
	for _, l := range c.Labels {
		out = append(out, checkStaticLabel(l)...)
	}
	return out
}

func checkStaticLabel(l *gen.Label) []Mismatch {
	var out []Mismatch
	bad := func(format string, args ...any) {
		out = append(out, Mismatch{Addr: l.Address, Layer: "static",
			Detail: fmt.Sprintf("%v: ", l.Shape) + fmt.Sprintf(format, args...)})
	}

	sum := static.Analyze(l.Code)
	if sum.CodeHash != etypes.Keccak(l.Code) {
		bad("summary code hash does not match the installed code")
	}
	if sum.Truncated {
		bad("analysis budget exhausted on generated code")
		return out
	}
	if sum.HasDelegateCall != l.HasDelegateCall {
		bad("HasDelegateCall=%v, label says %v", sum.HasDelegateCall, l.HasDelegateCall)
	}

	// forwarding collects the reachable delegates that forward the full
	// received call data — the static rendering of the paper's proxy
	// definition.
	var forwarding []static.DelegateCall
	for _, del := range sum.Delegates {
		if del.ForwardsCalldata {
			forwarding = append(forwarding, del)
		}
	}

	switch l.Shape {
	case gen.ShapeMinimalProxy, gen.ShapeHardcodedForwarder:
		if len(forwarding) != 1 {
			bad("%d forwarding delegates, want exactly 1", len(forwarding))
			break
		}
		del := forwarding[0]
		if del.Provenance != static.ProvHardcoded || del.Target != l.Logic {
			bad("delegate %s/%s, want hardcoded/%s", del.Provenance, del.Target.Hex(), l.Logic.Hex())
		}
		if del.TargetTainted {
			bad("hardcoded target reported tainted")
		}
	case gen.ShapeEIP1967Proxy, gen.ShapeEIP1822Proxy, gen.ShapeAdHocProxy:
		if len(forwarding) == 0 {
			bad("no forwarding delegate on a storage proxy")
			break
		}
		for _, del := range forwarding {
			if del.Provenance != static.ProvSlotConst || del.Slot != l.ImplSlot {
				bad("delegate %s/slot %x, want slot-const/%x", del.Provenance, del.Slot, l.ImplSlot)
			}
			if del.TargetTainted {
				bad("slot-loaded target reported tainted")
			}
		}
		if !sum.ReadsSlot(l.ImplSlot) {
			bad("implementation slot %x missing from SlotReads", l.ImplSlot)
		}
	case gen.ShapeDiamond:
		if len(forwarding) == 0 {
			bad("no forwarding delegate on a diamond")
			break
		}
		for _, del := range forwarding {
			if del.Provenance != static.ProvSlotKeccak {
				bad("facet delegate provenance %s, want slot-keccak", del.Provenance)
			}
		}
		if sum.KeccakReads == 0 {
			bad("no keccak-derived SLOAD on a facet router")
		}
	case gen.ShapeLibraryCaller:
		if len(sum.Delegates) == 0 {
			bad("library delegatecall not reachable")
		}
		if len(forwarding) != 0 {
			bad("constructed-call delegate reported as forwarding (%+v)", forwarding)
		}
	case gen.ShapeDeadDelegate:
		if len(sum.Delegates) != 0 {
			bad("unreachable DELEGATECALL reported reachable: %+v", sum.Delegates)
		}
	case gen.ShapeDispatcherOnly, gen.ShapeLogic:
		if len(sum.Delegates) != 0 {
			bad("negative shape has reachable delegates: %+v", sum.Delegates)
		}
	}

	// Selector-table parity for every compiled contract: the dispatcher
	// pattern must recover exactly the source-level function set — no
	// decoy constants, no lost functions.
	if l.Source != nil {
		if got, want := selectorKey(sum.Selectors), selectorKey(l.Source.Selectors()); got != want {
			bad("selector table [%s], source declares [%s]", got, want)
		}
	}
	return out
}
