package evm_test

import (
	"bytes"
	"fmt"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// The lockstep differential harness between the two interpreter loops: the
// shipped pre-decoded one (evm.New) and the byte-at-a-time reference loop
// kept in the package's tests (evm.NewReference). It executes the same call
// against the same state under each and compares every observable —
// per-step structlog traces, the call tree, outputs, errors, remaining gas,
// and the exact sequence of state mutations. A third run holds the fast
// loop without a tracer to the reference outcome. checkHaltParity does the
// same for a run its tracer cuts short (evm.Halter). The parity tests drive
// it over hand-written idioms, the generator taxonomy and arbitrary
// bytecode.

// paritySpec describes one call to execute under both interpreters.
type paritySpec struct {
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

// parityOutcome is everything observable about one run.
type parityOutcome struct {
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

// parityMismatch is one observable difference between two runs.
type parityMismatch struct {
	Layer  string // which comparison caught it
	Where  string // "output", "gas", "step 42", "event 3", ...
	Detail string
}

func (m parityMismatch) String() string {
	return fmt.Sprintf("[%s] %s: %s", m.Layer, m.Where, m.Detail)
}

// newEVM builds the EVM a run executes on: evm.New for the shipped loop,
// evm.NewReference for the reference loop.
type newEVM func(evm.StateDB, evm.Config) *evm.EVM

const parityStepLimit = 1 << 16

// parityRun executes spec once on the EVM newEVM builds, recording every
// state mutation. The state is snapshotted before and reverted after, so
// consecutive runs see identical starting conditions.
func parityRun(state evm.StateDB, spec paritySpec, build newEVM, traced bool) parityOutcome {
	snap := state.Snapshot()
	defer state.RevertToSnapshot(snap)

	rec := &recState{inner: state}
	stepLimit := spec.StepLimit
	if stepLimit == 0 {
		stepLimit = parityStepLimit
	}
	cfg := evm.Config{
		Block:     spec.Block,
		Tx:        spec.Tx,
		StepLimit: stepLimit,
		Lenient:   spec.Lenient,
	}
	var logger *exitCounter
	if traced {
		logger = &exitCounter{StructLogger: &evm.StructLogger{MaxEntries: int(stepLimit) + 64}}
		cfg.Tracer = logger // no Halter for the EVM to find
		if spec.HaltAt > 0 {
			cfg.Tracer = &haltingLogger{logger, spec.HaltAt}
		}
	}
	res := build(rec, cfg).Call(spec.Caller, spec.To, spec.Input, spec.Gas, spec.Value)

	out := parityOutcome{
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

// checkParity runs spec under both interpreters and returns every
// divergence. Three runs: reference traced, fast traced (compared step by
// step against the reference trace), and fast untraced, compared on outcome
// and state mutations.
func checkParity(state evm.StateDB, spec paritySpec) []parityMismatch {
	ref := parityRun(state, spec, evm.NewReference, true)
	fast := parityRun(state, spec, evm.New, true)
	ms := diffLockstep("fast-traced", ref, fast)

	untraced := parityRun(state, spec, evm.New, false)
	ms = append(ms, diffOutcome("fast-untraced", ref, untraced)...)
	return ms
}

// checkHaltParity runs spec under both interpreters with a tracer that
// halts the run at its k-th CaptureEnter (k >= 1) and returns every
// divergence: the two halted runs are held in lockstep like any traced
// pair, and each is held against the same interpreter's full run, of which
// it must be the beginning — the same steps up to the halt, the same first
// k frames, an exit for every frame entered, ErrHalted on the frame halted
// at and as the outer result. A run that enters fewer than k frames must
// not notice.
func checkHaltParity(state evm.StateDB, spec paritySpec, k int) []parityMismatch {
	spec.HaltAt = k
	ref := parityRun(state, spec, evm.NewReference, true)
	fast := parityRun(state, spec, evm.New, true)
	ms := diffLockstep("halt-fast-traced", ref, fast)

	spec.HaltAt = 0
	ms = append(ms, diffHalted("halt-reference", parityRun(state, spec, evm.NewReference, true), ref, k)...)
	ms = append(ms, diffHalted("halt-fast", parityRun(state, spec, evm.New, true), fast, k)...)
	return ms
}

// diffHalted compares a run halted at its k-th frame with the full run.
func diffHalted(layer string, full, halted parityOutcome, k int) []parityMismatch {
	if len(full.Calls) < k {
		return diffLockstep(layer, full, halted)
	}
	var ms []parityMismatch
	if halted.Err != evm.ErrHalted {
		ms = append(ms, parityMismatch{layer, "error", fmt.Sprintf("halted run ended with %v", halted.Err)})
	}
	if len(halted.Calls) != k || halted.Exits != k {
		ms = append(ms, parityMismatch{layer, "calls",
			fmt.Sprintf("halted at frame %d: %d entered, %d exited", k, len(halted.Calls), halted.Exits)})
		return ms
	}
	for i, c := range halted.Calls {
		want := full.Calls[i]
		want.Err = c.Err // the frames open at the halt end differently
		if !callEqual(want, c) {
			ms = append(ms, parityMismatch{layer, fmt.Sprintf("call %d", i),
				fmt.Sprintf("full run %+v, halted run %+v", full.Calls[i], c)})
		}
	}
	if last := halted.Calls[k-1]; last.Err != evm.ErrHalted {
		ms = append(ms, parityMismatch{layer, fmt.Sprintf("call %d", k-1),
			fmt.Sprintf("the frame halted at exited with %v", last.Err)})
	}
	if len(halted.Steps) > len(full.Steps) {
		ms = append(ms, parityMismatch{layer, "steps",
			fmt.Sprintf("halted run executed %d, full run %d", len(halted.Steps), len(full.Steps))})
		return ms
	}
	for i, st := range halted.Steps {
		if !stepEqual(full.Steps[i], st) {
			ms = append(ms, parityMismatch{layer, fmt.Sprintf("step %d", i),
				fmt.Sprintf("full run %v, halted run %v", full.Steps[i], st)})
			break
		}
	}
	return ms
}

// diffOutcome compares the frame-external observables of two runs: output
// bytes, terminal error, remaining gas, and the state-mutation sequence.
func diffOutcome(layer string, ref, got parityOutcome) []parityMismatch {
	var ms []parityMismatch
	if !bytes.Equal(ref.Output, got.Output) {
		ms = append(ms, parityMismatch{layer, "output",
			fmt.Sprintf("reference %x, got %x", ref.Output, got.Output)})
	}
	if !errEqual(ref.Err, got.Err) {
		ms = append(ms, parityMismatch{layer, "error",
			fmt.Sprintf("reference %v, got %v", ref.Err, got.Err)})
	}
	if ref.GasLeft != got.GasLeft {
		ms = append(ms, parityMismatch{layer, "gas",
			fmt.Sprintf("reference %d left, got %d", ref.GasLeft, got.GasLeft)})
	}
	ms = append(ms, diffEvents(layer, ref.Events, got.Events)...)
	return ms
}

// diffLockstep compares two traced runs step by step on top of the
// outcome comparison: every structlog entry (pc, op, gas, depth, context,
// stack top) and every call-tree record must match exactly.
func diffLockstep(layer string, ref, got parityOutcome) []parityMismatch {
	ms := diffOutcome(layer, ref, got)
	n := min(len(ref.Steps), len(got.Steps))
	for i := 0; i < n; i++ {
		if !stepEqual(ref.Steps[i], got.Steps[i]) {
			ms = append(ms, parityMismatch{layer, fmt.Sprintf("step %d", i),
				fmt.Sprintf("reference %v, got %v", ref.Steps[i], got.Steps[i])})
			// One diverged step usually cascades; report the first only.
			break
		}
	}
	if len(ref.Steps) != len(got.Steps) {
		ms = append(ms, parityMismatch{layer, "steps",
			fmt.Sprintf("reference executed %d, got %d", len(ref.Steps), len(got.Steps))})
	}
	if ref.Exits != got.Exits {
		ms = append(ms, parityMismatch{layer, "exits",
			fmt.Sprintf("reference exited %d frames, got %d", ref.Exits, got.Exits)})
	}
	if len(ref.Calls) != len(got.Calls) {
		ms = append(ms, parityMismatch{layer, "calls",
			fmt.Sprintf("reference made %d, got %d", len(ref.Calls), len(got.Calls))})
	} else {
		for i := range ref.Calls {
			if !callEqual(ref.Calls[i], got.Calls[i]) {
				ms = append(ms, parityMismatch{layer, fmt.Sprintf("call %d", i),
					fmt.Sprintf("reference %+v, got %+v", ref.Calls[i], got.Calls[i])})
			}
		}
	}
	return ms
}

func diffEvents(layer string, ref, got []string) []parityMismatch {
	var ms []parityMismatch
	n := min(len(ref), len(got))
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			ms = append(ms, parityMismatch{layer, fmt.Sprintf("event %d", i),
				fmt.Sprintf("reference %q, got %q", ref[i], got[i])})
			break
		}
	}
	if len(ref) != len(got) {
		ms = append(ms, parityMismatch{layer, "events",
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
		bytes.Equal(a.Input, b.Input)
}

// errEqual compares terminal errors. Both interpreters return the shared
// sentinel values, so identity plus message equality suffices.
func errEqual(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a.Error() == b.Error()
}

// recState wraps a StateDB and records every mutation as a formatted event
// string, in call order. Two interpreter runs over identical starting
// state must produce identical event sequences; comparing the rendered
// strings keeps the diff readable when they don't.
type recState struct {
	inner  evm.StateDB
	events []string
}

var _ evm.StateDB = (*recState)(nil)

func (r *recState) record(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *recState) Exists(addr etypes.Address) bool    { return r.inner.Exists(addr) }
func (r *recState) GetCode(addr etypes.Address) []byte { return r.inner.GetCode(addr) }
func (r *recState) GetCodeHash(addr etypes.Address) etypes.Hash {
	return r.inner.GetCodeHash(addr)
}
func (r *recState) GetBalance(addr etypes.Address) u256.Int { return r.inner.GetBalance(addr) }
func (r *recState) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	return r.inner.GetState(addr, key)
}
func (r *recState) GetNonce(addr etypes.Address) uint64 { return r.inner.GetNonce(addr) }

func (r *recState) Transfer(from, to etypes.Address, value u256.Int) {
	r.record("transfer %x->%x %s", from, to, value.Hex())
	r.inner.Transfer(from, to, value)
}

func (r *recState) SetState(addr etypes.Address, key, value etypes.Hash) {
	r.record("sstore %x %x=%x", addr, key, value)
	r.inner.SetState(addr, key, value)
}

func (r *recState) SetNonce(addr etypes.Address, nonce uint64) {
	r.record("setnonce %x %d", addr, nonce)
	r.inner.SetNonce(addr, nonce)
}

func (r *recState) CreateAccount(addr etypes.Address) {
	r.record("create %x", addr)
	r.inner.CreateAccount(addr)
}

func (r *recState) SetCode(addr etypes.Address, code []byte) {
	r.record("setcode %x len=%d", addr, len(code))
	r.inner.SetCode(addr, code)
}

func (r *recState) SelfDestruct(addr, beneficiary etypes.Address) {
	r.record("selfdestruct %x->%x", addr, beneficiary)
	r.inner.SelfDestruct(addr, beneficiary)
}

func (r *recState) AddLog(addr etypes.Address, topics []etypes.Hash, data []byte) {
	r.record("log %x topics=%d data=%x", addr, len(topics), data)
	r.inner.AddLog(addr, topics, data)
}

func (r *recState) Snapshot() int {
	r.record("snapshot")
	return r.inner.Snapshot()
}

func (r *recState) RevertToSnapshot(rev int) {
	r.record("revert")
	r.inner.RevertToSnapshot(rev)
}
