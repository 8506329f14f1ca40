package oracle

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/u256"
)

// haltSender is the synthetic caller the probes run as, mirroring the
// detector's own probe sender.
var haltSender = etypes.MustAddress("0x00000000000000000000000000000000deca0de0")

// frameRecorder is a tracer that records each frame entered and each exit,
// and, when haltAt is positive, halts the run at its haltAt-th frame.
type frameRecorder struct {
	haltAt int
	frames []string
	exits  []error
}

func (r *frameRecorder) CaptureStep(*evm.Frame, uint64, evm.Op) {}

func (r *frameRecorder) CaptureEnter(kind evm.CallKind, from, to etypes.Address, input []byte, value u256.Int) {
	r.frames = append(r.frames, fmt.Sprintf("%s %s->%s %x value=%s", kind, from, to, input, value.Hex()))
}

func (r *frameRecorder) CaptureExit(_ []byte, err error) { r.exits = append(r.exits, err) }

// Halt implements evm.Halter.
func (r *frameRecorder) Halt() bool { return r.haltAt > 0 && len(r.frames) >= r.haltAt }

// haltRun sends the detector's crafted probe to l on the shipped
// interpreter, halting at the haltAt-th frame when haltAt is positive. The
// chain is reverted afterwards.
func haltRun(c *gen.Corpus, l *gen.Label, haltAt int) (evm.CallResult, *frameRecorder) {
	snap := c.Chain.Snapshot()
	defer c.Chain.RevertToSnapshot(snap)
	rec := &frameRecorder{haltAt: haltAt}
	e := evm.New(c.Chain, evm.Config{
		Block:     evm.DefaultBlockContext(),
		Tx:        evm.TxContext{Origin: haltSender},
		Tracer:    rec,
		StepLimit: 1 << 18,
		Lenient:   true,
	})
	res := e.Call(haltSender, l.Address, proxion.CraftCallData(l.Address, l.Code), 5_000_000, u256.Zero())
	return res, rec
}

// TestInterpParityFixedSeeds holds the shipped interpreter's halted probe
// runs to its full runs on the pinned seeds. The detector stops each probe
// at its first nested frame (evm.Halter), so what it sees must be the
// beginning of the full run: the same first two frames, an exit for each,
// ErrHalted on both and as the result. A probe that enters one frame only
// must not notice the halt. The step-by-step diff of the shipped loop
// against the reference loop on the same seeds is internal/evm's test of
// the same name.
func TestInterpParityFixedSeeds(t *testing.T) {
	const k = 2
	for _, seed := range fixedSeeds {
		c := gen.Generate(gen.Config{Seed: seed})
		nested := 0
		for _, l := range c.Labels {
			full, fullRec := haltRun(c, l, 0)
			halted, rec := haltRun(c, l, k)
			where := fmt.Sprintf("seed %d, %s %s", seed, l.Address, l.Kind)
			if len(fullRec.frames) < k {
				if !bytes.Equal(full.Output, halted.Output) || full.Err != halted.Err ||
					full.GasLeft != halted.GasLeft || len(rec.frames) != len(fullRec.frames) {
					t.Errorf("%s: a run that enters no nested frame noticed the halt: full (%x, %v, %d gas), halted (%x, %v, %d gas)",
						where, full.Output, full.Err, full.GasLeft, halted.Output, halted.Err, halted.GasLeft)
				}
				continue
			}
			nested++
			if halted.Err != evm.ErrHalted {
				t.Errorf("%s: halted run ended with %v", where, halted.Err)
			}
			if len(rec.frames) != k || len(rec.exits) != k {
				t.Errorf("%s: halted at frame %d: %d entered, %d exited", where, k, len(rec.frames), len(rec.exits))
				continue
			}
			for i, f := range rec.frames {
				if f != fullRec.frames[i] {
					t.Errorf("%s: frame %d: full run %s, halted run %s", where, i, fullRec.frames[i], f)
				}
			}
			for i, err := range rec.exits {
				if err != evm.ErrHalted {
					t.Errorf("%s: exit %d of the halted run: %v", where, i, err)
				}
			}
		}
		if nested == 0 {
			t.Errorf("seed %d: no probe entered a nested frame", seed)
		}
	}
}
