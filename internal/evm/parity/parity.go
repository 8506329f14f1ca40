// Package parity is the lockstep differential harness between the two EVM
// interpreters: the retained byte-at-a-time reference loop and the
// pre-decoded fast path (internal/evm's InterpReference and InterpFast).
// It executes the same call against the same state under each interpreter
// and compares every observable — per-step structlog traces, the call
// tree, outputs, errors, remaining gas, and the exact sequence of state
// mutations. A third run holds the fast path without a tracer to the
// reference outcome. CheckHalt does the same for a run its tracer cuts
// short (evm.Halter). The oracle layer (gen/oracle.CheckInterpParity) and
// FuzzInterpParity / FuzzHaltParity drive this over the generator taxonomy
// and arbitrary bytecode respectively.
package parity

import (
	"fmt"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// Spec describes one call to execute under both interpreters.
type Spec struct {
	Caller etypes.Address
	To     etypes.Address
	Input  []byte
	Gas    uint64
	Value  u256.Int

	Block evm.BlockContext
	Tx    evm.TxContext
	// StepLimit caps each run (0 = 1<<16, small enough for sweeps).
	StepLimit uint64
	Lenient   bool
	// HaltAt, when positive, makes the tracer of a traced run halt it
	// (evm.Halter) at its HaltAt-th CaptureEnter, the outer call being the
	// first.
	HaltAt int
}

// Outcome is everything observable about one run.
type Outcome struct {
	Output  []byte
	Err     error
	GasLeft uint64
	Steps   []evm.StructLog  // populated on traced runs
	Calls   []evm.CallRecord // populated on traced runs
	Events  []string         // state mutations, in order
	// Exits counts the CaptureExit calls of a traced run; every frame in
	// Calls must have had one.
	Exits int
}

// Mismatch is one observable difference between two runs.
type Mismatch struct {
	Layer  string // which comparison caught it
	Where  string // "output", "gas", "step 42", "event 3", ...
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("[%s] %s: %s", m.Layer, m.Where, m.Detail)
}

const defaultStepLimit = 1 << 16

// Run executes spec once under the given interpreter mode, recording every
// state mutation. The state is snapshotted before and reverted after, so
// consecutive runs see identical starting conditions.
func Run(state evm.StateDB, spec Spec, mode evm.InterpMode, traced bool) Outcome {
	snap := state.Snapshot()
	defer state.RevertToSnapshot(snap)

	rec := &recState{inner: state}
	stepLimit := spec.StepLimit
	if stepLimit == 0 {
		stepLimit = defaultStepLimit
	}
	cfg := evm.Config{
		Block:     spec.Block,
		Tx:        spec.Tx,
		StepLimit: stepLimit,
		Lenient:   spec.Lenient,
		Interp:    mode,
	}
	var logger *exitCounter
	if traced {
		logger = &exitCounter{StructLogger: &evm.StructLogger{MaxEntries: int(stepLimit) + 64}}
		cfg.Tracer = logger // no Halter for the EVM to find
		if spec.HaltAt > 0 {
			cfg.Tracer = &haltingLogger{logger, spec.HaltAt}
		}
	}
	e := evm.New(rec, cfg)
	res := e.Call(spec.Caller, spec.To, spec.Input, spec.Gas, spec.Value)

	out := Outcome{
		Output:  res.Output,
		Err:     res.Err,
		GasLeft: res.GasLeft,
		Events:  rec.events,
	}
	if logger != nil {
		out.Steps = logger.Logs()
		out.Calls = logger.Calls()
		out.Exits = logger.exits
	}
	return out
}

// exitCounter is a StructLogger that counts the exits reported to it.
type exitCounter struct {
	*evm.StructLogger
	exits int
}

func (c *exitCounter) CaptureExit(output []byte, err error) {
	c.exits++
	c.StructLogger.CaptureExit(output, err)
}

// haltingLogger asks the EVM to stop at the haltAt-th CaptureEnter.
type haltingLogger struct {
	*exitCounter
	haltAt int
}

// Halt implements evm.Halter.
func (h *haltingLogger) Halt() bool { return len(h.Calls()) >= h.haltAt }

// Check runs spec under both interpreters and returns every divergence.
// Three runs: reference traced, fast traced (compared step-by-step against
// the reference trace), and fast untraced, compared on outcome and state
// mutations.
func Check(state evm.StateDB, spec Spec) []Mismatch {
	ref := Run(state, spec, evm.InterpReference, true)
	fast := Run(state, spec, evm.InterpFast, true)
	ms := DiffLockstep("fast-traced", ref, fast)

	untraced := Run(state, spec, evm.InterpFast, false)
	ms = append(ms, DiffOutcome("fast-untraced", ref, untraced)...)
	return ms
}

// CheckHalt runs spec under both interpreters with a tracer that halts the
// run at its k-th CaptureEnter (k >= 1) and returns every divergence: the
// two halted runs are held in lockstep like any traced pair, and each is
// held against the same interpreter's full run, of which it must be the
// beginning — the same steps up to the halt, the same first k frames, an
// exit for every frame entered, ErrHalted on the frame halted at and as the
// outer result. A run that enters fewer than k frames must not notice.
func CheckHalt(state evm.StateDB, spec Spec, k int) []Mismatch {
	spec.HaltAt = k
	ref := Run(state, spec, evm.InterpReference, true)
	fast := Run(state, spec, evm.InterpFast, true)
	ms := DiffLockstep("halt-fast-traced", ref, fast)

	spec.HaltAt = 0
	ms = append(ms, diffHalted("halt-reference", Run(state, spec, evm.InterpReference, true), ref, k)...)
	ms = append(ms, diffHalted("halt-fast", Run(state, spec, evm.InterpFast, true), fast, k)...)
	return ms
}

// diffHalted compares a run halted at its k-th frame with the full run.
func diffHalted(layer string, full, halted Outcome, k int) []Mismatch {
	if len(full.Calls) < k {
		return DiffLockstep(layer, full, halted)
	}
	var ms []Mismatch
	if halted.Err != evm.ErrHalted {
		ms = append(ms, Mismatch{layer, "error", fmt.Sprintf("halted run ended with %v", halted.Err)})
	}
	if len(halted.Calls) != k || halted.Exits != k {
		ms = append(ms, Mismatch{layer, "calls",
			fmt.Sprintf("halted at frame %d: %d entered, %d exited", k, len(halted.Calls), halted.Exits)})
		return ms
	}
	for i, c := range halted.Calls {
		want := full.Calls[i]
		want.Err = c.Err // the frames open at the halt end differently
		if !callEqual(want, c) {
			ms = append(ms, Mismatch{layer, fmt.Sprintf("call %d", i),
				fmt.Sprintf("full run %+v, halted run %+v", full.Calls[i], c)})
		}
	}
	if last := halted.Calls[k-1]; last.Err != evm.ErrHalted {
		ms = append(ms, Mismatch{layer, fmt.Sprintf("call %d", k-1),
			fmt.Sprintf("the frame halted at exited with %v", last.Err)})
	}
	if len(halted.Steps) > len(full.Steps) {
		ms = append(ms, Mismatch{layer, "steps",
			fmt.Sprintf("halted run executed %d, full run %d", len(halted.Steps), len(full.Steps))})
		return ms
	}
	for i, st := range halted.Steps {
		if !stepEqual(full.Steps[i], st) {
			ms = append(ms, Mismatch{layer, fmt.Sprintf("step %d", i),
				fmt.Sprintf("full run %v, halted run %v", full.Steps[i], st)})
			break
		}
	}
	return ms
}

// DiffOutcome compares the frame-external observables of two runs: output
// bytes, terminal error, remaining gas, and the state-mutation sequence.
func DiffOutcome(layer string, ref, got Outcome) []Mismatch {
	var ms []Mismatch
	if !bytesEqual(ref.Output, got.Output) {
		ms = append(ms, Mismatch{layer, "output",
			fmt.Sprintf("reference %x, got %x", ref.Output, got.Output)})
	}
	if !errEqual(ref.Err, got.Err) {
		ms = append(ms, Mismatch{layer, "error",
			fmt.Sprintf("reference %v, got %v", ref.Err, got.Err)})
	}
	if ref.GasLeft != got.GasLeft {
		ms = append(ms, Mismatch{layer, "gas",
			fmt.Sprintf("reference %d left, got %d", ref.GasLeft, got.GasLeft)})
	}
	ms = append(ms, diffEvents(layer, ref.Events, got.Events)...)
	return ms
}

// DiffLockstep compares two traced runs step by step on top of the
// outcome comparison: every structlog entry (pc, op, gas, depth, context,
// stack top) and every call-tree record must match exactly.
func DiffLockstep(layer string, ref, got Outcome) []Mismatch {
	ms := DiffOutcome(layer, ref, got)
	n := min(len(ref.Steps), len(got.Steps))
	for i := 0; i < n; i++ {
		if !stepEqual(ref.Steps[i], got.Steps[i]) {
			ms = append(ms, Mismatch{layer, fmt.Sprintf("step %d", i),
				fmt.Sprintf("reference %v, got %v", ref.Steps[i], got.Steps[i])})
			// One diverged step usually cascades; report the first only.
			break
		}
	}
	if len(ref.Steps) != len(got.Steps) {
		ms = append(ms, Mismatch{layer, "steps",
			fmt.Sprintf("reference executed %d, got %d", len(ref.Steps), len(got.Steps))})
	}
	if ref.Exits != got.Exits {
		ms = append(ms, Mismatch{layer, "exits",
			fmt.Sprintf("reference exited %d frames, got %d", ref.Exits, got.Exits)})
	}
	if len(ref.Calls) != len(got.Calls) {
		ms = append(ms, Mismatch{layer, "calls",
			fmt.Sprintf("reference made %d, got %d", len(ref.Calls), len(got.Calls))})
	} else {
		for i := range ref.Calls {
			if !callEqual(ref.Calls[i], got.Calls[i]) {
				ms = append(ms, Mismatch{layer, fmt.Sprintf("call %d", i),
					fmt.Sprintf("reference %+v, got %+v", ref.Calls[i], got.Calls[i])})
			}
		}
	}
	return ms
}

func diffEvents(layer string, ref, got []string) []Mismatch {
	var ms []Mismatch
	n := min(len(ref), len(got))
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			ms = append(ms, Mismatch{layer, fmt.Sprintf("event %d", i),
				fmt.Sprintf("reference %q, got %q", ref[i], got[i])})
			break
		}
	}
	if len(ref) != len(got) {
		ms = append(ms, Mismatch{layer, "events",
			fmt.Sprintf("reference recorded %d, got %d", len(ref), len(got))})
	}
	return ms
}

func stepEqual(a, b evm.StructLog) bool {
	if a.PC != b.PC || a.Op != b.Op || a.Gas != b.Gas ||
		a.Depth != b.Depth || a.Context != b.Context ||
		len(a.StackTop) != len(b.StackTop) {
		return false
	}
	for i := range a.StackTop {
		if !a.StackTop[i].Eq(b.StackTop[i]) {
			return false
		}
	}
	return true
}

func callEqual(a, b evm.CallRecord) bool {
	return a.Kind == b.Kind && a.From == b.From && a.To == b.To &&
		a.Depth == b.Depth && errEqual(a.Err, b.Err) &&
		bytesEqual(a.Input, b.Input)
}

// errEqual compares terminal errors. Both interpreters return the shared
// sentinel values, so identity plus message equality suffices.
func errEqual(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a.Error() == b.Error()
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
