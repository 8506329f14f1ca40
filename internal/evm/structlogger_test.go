package evm

import (
	"fmt"
	"strings"

	"repro/internal/etypes"
	"repro/internal/u256"
)

// StructLog is one executed instruction's snapshot, in the style of geth's
// struct logger: enough to reconstruct what a contract did step by step.
type StructLog struct {
	PC    uint64
	Op    Op
	Gas   uint64
	Depth int
	// StackTop holds up to the four topmost stack words (top first).
	StackTop []u256.Int
	// Context is the storage/self address of the executing frame.
	Context etypes.Address
}

// String formats the entry like "0007 DELEGATECALL gas=4996 depth=2 [0x5a, 0x...]".
func (l StructLog) String() string {
	parts := make([]string, len(l.StackTop))
	for i, w := range l.StackTop {
		parts[i] = w.Hex()
	}
	return fmt.Sprintf("%04X %-14s gas=%-8d depth=%d [%s]",
		l.PC, l.Op, l.Gas, l.Depth, strings.Join(parts, ", "))
}

// StructLogger records every executed instruction plus the call tree: the
// per-step trace the parity harness holds the two interpreter loops to.
type StructLogger struct {
	// MaxEntries bounds memory use; zero means 100k entries.
	MaxEntries int

	logs  []StructLog
	calls []CallRecord
	depth int
}

// CallRecord is one frame-creating event in the call tree.
type CallRecord struct {
	Kind  CallKind
	From  etypes.Address
	To    etypes.Address
	Input []byte
	Depth int
	// Err is the frame's terminal error (nil on success); filled at exit.
	Err error
}

var _ Tracer = (*StructLogger)(nil)

// CaptureStep implements Tracer.
func (sl *StructLogger) CaptureStep(f *Frame, pc uint64, op Op) {
	limit := sl.MaxEntries
	if limit == 0 {
		limit = 100_000
	}
	if len(sl.logs) >= limit {
		return
	}
	top := make([]u256.Int, 0, 4)
	for i := 0; i < 4 && i < f.Stack().Len(); i++ {
		top = append(top, f.Stack().Peek(i))
	}
	sl.logs = append(sl.logs, StructLog{
		PC:       pc,
		Op:       op,
		Gas:      f.Gas(),
		Depth:    sl.depth,
		StackTop: top,
		Context:  f.Address(),
	})
}

// CaptureEnter implements Tracer.
func (sl *StructLogger) CaptureEnter(kind CallKind, from, to etypes.Address, input []byte, _ u256.Int) {
	sl.depth++
	in := make([]byte, len(input))
	copy(in, input)
	sl.calls = append(sl.calls, CallRecord{
		Kind: kind, From: from, To: to, Input: in, Depth: sl.depth,
	})
}

// CaptureExit implements Tracer.
func (sl *StructLogger) CaptureExit(_ []byte, err error) {
	// Attach the error to the most recent unclosed call at this depth.
	for i := len(sl.calls) - 1; i >= 0; i-- {
		if sl.calls[i].Depth == sl.depth {
			if sl.calls[i].Err == nil {
				sl.calls[i].Err = err
			}
			break
		}
	}
	sl.depth--
}

// Logs returns the recorded per-instruction entries.
func (sl *StructLogger) Logs() []StructLog { return sl.logs }

// Calls returns the recorded call tree in entry order.
func (sl *StructLogger) Calls() []CallRecord { return sl.calls }

// Format renders the whole trace as text.
func (sl *StructLogger) Format() string {
	var b strings.Builder
	for _, l := range sl.logs {
		b.WriteString(strings.Repeat("  ", l.Depth-1))
		b.WriteString(l.String())
		b.WriteByte('\n')
	}
	return b.String()
}
