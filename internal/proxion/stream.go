package proxion

import (
	"sync"
	"sync/atomic"

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
//   - a worker pulls an address only while fewer than window items are
//     pulled but not yet emitted (next − base < window, waiting for room
//     otherwise — backpressure against the source), and
//   - base passes an item only once it has been emitted, so in-flight +
//     completed-but-unemitted items never exceed the window.
//
// Peak memory of a streaming run is therefore a function of the window
// size — never of corpus length. The ring is the whole window from the
// start: whoever wants one address analyzed calls AnalyzeAddress and has no
// window to pay for. No lock is shared between delivery and emission: a
// worker lands its item in its own slot and raises the slot's ready flag,
// and whichever worker wins the emitting flag drains the ready head.
type streamTracker struct {
	sink   ReportSink
	window int64

	// turn serialises the pulls from src (the AddressSource contract). It
	// is held across src.Next, which may block, and across the wait for
	// room in a full window: neither needs the turn to end, since emission
	// never takes it and a worker waiting for it holds no contract.
	turn sync.Mutex
	src  AddressSource
	done bool  // src has reported end of stream; under turn
	next int64 // next index to assign; under turn

	base     atomic.Int64 // lowest index not yet emitted; advanced by the emitter
	emitting atomic.Bool  // a goroutine is draining ready slots
	// waiting is set by a puller that found the window full; the emitter
	// that next advances base clears it and sends on room (1-buffered).
	waiting atomic.Bool
	room    chan struct{}

	slots []trackSlot // ring buffer, indexed by item index % len; window long
}

// trackSlot is one in-flight contract: empty until its worker delivers the
// finished item and raises ready.
type trackSlot struct {
	it    Item
	ready atomic.Bool
}

func newStreamTracker(window int, src AddressSource, sink ReportSink) *streamTracker {
	return &streamTracker{
		src:    src,
		sink:   sink,
		window: int64(window),
		room:   make(chan struct{}, 1),
		slots:  make([]trackSlot, window),
	}
}

// pull takes the source's turn for ONE address, waits under it until the
// window has room, and assigns the address the next item index. One, never
// a batch: a source may withhold address k+1 until item k has been emitted
// (a query service's closed-loop client), so a worker that kept pulling
// with k in hand could wait forever. Room is checked before Next, so the
// source is never asked for an address there is no slot for; indices are
// assigned under the turn, so index order is the order of the Next calls.
func (t *streamTracker) pull() (idx int, addr etypes.Address, ok bool) {
	t.turn.Lock()
	for !t.done && !t.hasRoom() {
		// Announce the wait, then look again: an emitter that advanced base
		// before it could see the announcement is seen here instead.
		t.waiting.Store(true)
		if t.hasRoom() {
			break
		}
		<-t.room
	}
	if !t.done {
		addr, ok = t.src.Next()
		t.done = !ok
	}
	if ok {
		idx = int(t.next)
		t.next++
	}
	t.turn.Unlock()
	return idx, addr, ok
}

// hasRoom reports whether another item fits in the window. Under turn.
func (t *streamTracker) hasRoom() bool {
	return t.next-t.base.Load() < t.window
}

// slot returns the ring slot for idx.
func (t *streamTracker) slot(idx int64) *trackSlot {
	return &t.slots[idx%int64(len(t.slots))]
}

// deliver lands the finished item in the slot its Index names and drains
// the window if no other goroutine is draining it.
func (t *streamTracker) deliver(it Item) {
	s := t.slot(int64(it.Index))
	s.it = it
	s.ready.Store(true)
	t.drain()
}

// drain emits every contiguous ready slot starting at base, in order. The
// emitting flag keeps emission single-threaded (and therefore ordered)
// without a dedicated emitter goroutine; a delivery that loses the flag
// leaves its item to the holder, which looks at the head once more after
// letting the flag go, so no item is left ready behind a finished drain.
// A slot is emptied before base passes it: its index's successor one window
// later cannot be pulled until then.
func (t *streamTracker) drain() {
	for t.emitting.CompareAndSwap(false, true) {
		base := t.base.Load()
		for s := t.slot(base); s.ready.Load(); s = t.slot(base) {
			it := s.it
			s.it = Item{}
			s.ready.Store(false)

			t.sink.Emit(it)
			base++
			t.base.Store(base) // the slot is free only after emission
			if t.waiting.Load() && t.waiting.CompareAndSwap(true, false) {
				select {
				case t.room <- struct{}{}:
				default: // a wake-up is already pending
				}
			}
		}
		t.emitting.Store(false)
		if !t.slot(base).ready.Load() {
			return
		}
	}
}
