package oracle

import (
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/evm/parity"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/u256"
)

// interpSender is the synthetic caller interpreter-parity probes run as,
// mirroring the detector's own probe sender.
var interpSender = etypes.MustAddress("0x00000000000000000000000000000000deca0de0")

// interpStepLimit matches the detector's emulation step budget, so parity
// covers exactly the executions the detector performs in production.
const interpStepLimit = 1 << 18

// CheckInterpParity executes every labeled contract under both the
// reference and the pre-decoded fast interpreter and diffs all
// observables (see evm/parity). Each contract runs twice: once with the
// detector's crafted unknown-selector probe — the exact call the
// emulation layer issues — and once with empty calldata, which takes the
// fallback path through dispatcher shapes. The probe run is repeated with
// a tracer that halts it where the detector's does (parity.CheckHalt).
// parity.Run snapshots and reverts around each execution, so the corpus
// chain is unchanged.
func CheckInterpParity(c *gen.Corpus) []Mismatch {
	var out []Mismatch
	for _, l := range c.Labels {
		probes := [][]byte{
			proxion.CraftCallData(l.Address, l.Code),
			nil,
		}
		for _, input := range probes {
			spec := parity.Spec{
				Caller:    interpSender,
				To:        l.Address,
				Input:     input,
				Gas:       5_000_000,
				Value:     u256.Zero(),
				Block:     evm.DefaultBlockContext(),
				Tx:        evm.TxContext{Origin: interpSender},
				StepLimit: interpStepLimit,
				Lenient:   true,
			}
			ms := parity.Check(c.Chain, spec)
			if len(input) > 0 {
				// The detector's tracer halts a proxy's probe at the first
				// nested frame; both loops must unwind from there alike.
				ms = append(ms, parity.CheckHalt(c.Chain, spec, 2)...)
			}
			for _, m := range ms {
				out = append(out, Mismatch{Addr: l.Address, Layer: "interp",
					Detail: l.Shape.String() + " input=" + inputKind(input) + ": " + m.String()})
			}
		}
	}
	return out
}

func inputKind(input []byte) string {
	if len(input) == 0 {
		return "empty"
	}
	return "probe"
}
