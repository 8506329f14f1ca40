package proxion

import (
	"sync"

	"repro/internal/etypes"
)

// AddressSource is the streaming input of an analysis run: the engine's
// workers pull one address at a time, so a run can analyze a corpus that
// is generated, paged in, or tailed from a node without ever existing as
// a slice in memory. Next is never called concurrently, and never again
// once it has returned ok=false; successive calls may come from different
// goroutines, ordered by a lock, so an implementation needs no
// synchronisation of its own for state only Next touches. It may block
// (that is the upstream half of the engine's backpressure), and it may
// make address k+1 wait for the emission of item k: the engine never asks
// for an address while holding one it has not started on.
type AddressSource interface {
	// Next returns the next address and true, or ok=false at end of stream.
	Next() (addr etypes.Address, ok bool)
}

// SourceFunc adapts a function to an AddressSource.
type SourceFunc func() (etypes.Address, bool)

// Next implements AddressSource.
func (f SourceFunc) Next() (etypes.Address, bool) { return f() }

// SliceSource streams a materialized address slice — the compatibility
// path that keeps AnalyzeAll working over Chain.Contracts().
func SliceSource(addrs []etypes.Address) AddressSource {
	i := 0
	return SourceFunc(func() (etypes.Address, bool) {
		if i >= len(addrs) {
			return etypes.Address{}, false
		}
		a := addrs[i]
		i++
		return a, true
	})
}

// Item is one contract's finalized analysis: the detection report plus
// the collision analysis of a proxy's current pair. Index is the contract's
// position in the source stream — items arrive at a ReportSink strictly in
// index order; a single AnalyzeAddress call leaves it 0.
type Item struct {
	Index  int
	Report Report
	Pair   *PairAnalysis
}

// ReportSink receives finalized items. Emit is called serially, in source
// order, from the engine's worker goroutines — implementations need no
// locking of their own but must not block for long: a slow sink stalls
// the bounded window and, through it, the whole run (that is the
// downstream half of backpressure).
type ReportSink interface {
	Emit(it Item)
}

// SinkFunc adapts a function to a ReportSink.
type SinkFunc func(Item)

// Emit implements ReportSink.
func (f SinkFunc) Emit(it Item) { f(it) }

// CollectSink accumulates every item into a *Result — the compatibility
// sink behind the slice-returning entry points and tests. Its memory is
// O(corpus), which is exactly what streaming callers avoid by bringing
// their own sink.
type CollectSink struct {
	res Result
}

// NewCollectSink returns an empty collector.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Emit implements ReportSink.
func (c *CollectSink) Emit(it Item) {
	c.res.Reports = append(c.res.Reports, it.Report)
	if it.Pair != nil {
		c.res.Pairs = append(c.res.Pairs, *it.Pair)
	}
}

// Result returns the accumulated result. Call after the run has finished.
func (c *CollectSink) Result() *Result { return &c.res }

// streamTracker is the bounded window between the source and the sink:
// workers pull addresses through it, finish them in any order, and it
// emits them in source order. It enforces the run's memory bound end to end:
//
//   - a worker takes one window slot before it pulls an address (blocking
//     when the window is full — backpressure against the source), and
//   - a slot is released only when its item has been emitted, so
//     in-flight + completed-but-unemitted items never exceed the window.
//
// Peak memory of a streaming run is therefore a function of the window
// size — never of corpus length. The semaphore is the bound and the ring
// behind it is the whole window from the start: whoever wants one address
// analyzed calls AnalyzeAddress and has no window to pay for.
type streamTracker struct {
	sink ReportSink

	// sem holds one token per window slot.
	sem chan struct{}

	// turn serialises the pulls from src (the AddressSource contract). It
	// is held across src.Next, which may block: nothing else takes it, and
	// a worker waiting for it holds a window token but no contract.
	turn sync.Mutex
	src  AddressSource
	done bool // src has reported end of stream; under turn

	mu       sync.Mutex
	slots    []trackSlot // ring buffer, indexed by item index % len; cap(sem) long
	base     int         // lowest index not yet emitted
	next     int         // next index to assign (under turn and mu)
	emitting bool        // a goroutine is currently draining ready slots
}

// trackSlot is one in-flight contract: empty until its worker delivers the
// finished item.
type trackSlot struct {
	it    Item
	ready bool
}

func newStreamTracker(window int, src AddressSource, sink ReportSink) *streamTracker {
	return &streamTracker{
		src:   src,
		sink:  sink,
		sem:   make(chan struct{}, window),
		slots: make([]trackSlot, window),
	}
}

// pull blocks until a window slot is free, then takes the source's turn
// for ONE address and assigns it the next item index. One, never a batch:
// a source may withhold address k+1 until item k has been emitted (a query
// service's closed-loop client), so a worker that kept pulling with k in
// hand could wait forever. The window token is taken before the turn, and
// handed back if the source is exhausted, so the turn is never held while
// waiting for the sink; indices are assigned under the turn, so index
// order is the order of the Next calls.
func (t *streamTracker) pull() (idx int, addr etypes.Address, ok bool) {
	t.sem <- struct{}{}
	t.turn.Lock()
	if !t.done {
		addr, ok = t.src.Next()
		t.done = !ok
	}
	if ok {
		t.mu.Lock()
		idx = t.next
		t.next++
		t.mu.Unlock()
	}
	t.turn.Unlock()
	if !ok {
		<-t.sem
	}
	return idx, addr, ok
}

// slot returns the ring slot for idx. Callers hold t.mu.
func (t *streamTracker) slot(idx int) *trackSlot {
	return &t.slots[idx%len(t.slots)]
}

// deliver lands the finished item in the slot its Index names.
func (t *streamTracker) deliver(it Item) {
	t.mu.Lock()
	*t.slot(it.Index) = trackSlot{it: it, ready: true}
	t.drainLocked()
}

// drainLocked emits every contiguous completed slot starting at base, in
// order, releasing window tokens as it goes. Called with t.mu held;
// releases and reacquires it around sink calls so workers delivering
// other items are not serialized behind the sink. The emitting flag keeps
// emission single-threaded (and therefore ordered) without a dedicated
// emitter goroutine.
func (t *streamTracker) drainLocked() {
	if t.emitting {
		t.mu.Unlock()
		return
	}
	t.emitting = true
	for {
		s := t.slot(t.base)
		if !s.ready {
			break
		}
		it := s.it
		*s = trackSlot{} // reset for reuse before the slot index recycles
		t.base++
		t.mu.Unlock()

		t.sink.Emit(it)
		<-t.sem // release the window slot only after emission

		t.mu.Lock()
	}
	t.emitting = false
	t.mu.Unlock()
}
