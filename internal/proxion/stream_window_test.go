package proxion

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/etypes"
)

// windowRun drives a streamTracker the way AnalyzeStream does: workers
// goroutines pull an index, hold it for delays[idx % len] yields (no yield
// when delays is empty), and deliver it, until n addresses have been
// streamed. The sink yields on every item. A closed-loop source hands out
// address k+1 only once item k has been emitted. It returns the first
// broken property: a Next with more than window items pulled but not
// emitted, a Next after the end or concurrent with another, an item
// emitted out of order, with another's report or not at all — or a hang.
func windowRun(workers, window, n int, delays []byte, closedLoop bool) error {
	var (
		fail             atomic.Pointer[error]
		pulled, emitted  atomic.Int64
		inNext, finished atomic.Bool
	)
	failf := func(format string, args ...any) {
		err := fmt.Errorf(format, args...)
		fail.CompareAndSwap(nil, &err)
	}
	credit := make(chan struct{}, 1)
	credit <- struct{}{}
	src := SourceFunc(func() (etypes.Address, bool) {
		if !inNext.CompareAndSwap(false, true) {
			failf("Next called concurrently")
		}
		defer inNext.Store(false)
		if finished.Load() {
			failf("Next called after the end of the stream")
		}
		if closedLoop {
			<-credit
		}
		p := int(pulled.Load())
		if p == n {
			finished.Store(true)
			return etypes.Address{}, false
		}
		if held := int64(p+1) - emitted.Load(); held > int64(window) {
			failf("Next for item %d with %d items pulled and not emitted, window %d", p, held, window)
		}
		pulled.Store(int64(p + 1))
		return addrOf(p), true
	})
	sink := SinkFunc(func(it Item) {
		e := int(emitted.Load())
		if it.Index != e || it.Report.Address != addrOf(e) {
			failf("emission %d carried item %d (%x)", e, it.Index, it.Report.Address)
		}
		runtime.Gosched()
		emitted.Store(int64(e + 1))
		if closedLoop {
			credit <- struct{}{}
		}
	})

	tr := newStreamTracker(window, src, sink)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx, addr, ok := tr.pull(); ok; idx, addr, ok = tr.pull() {
				if len(delays) > 0 {
					for range int(delays[idx%len(delays)] % 8) {
						runtime.Gosched()
					}
				}
				tr.deliver(Item{Index: idx, Report: Report{Address: addr}})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("workers %d window %d closed-loop %v: stream hung with %d pulled, %d emitted",
			workers, window, closedLoop, pulled.Load(), emitted.Load())
	}
	if err := fail.Load(); err != nil {
		return fmt.Errorf("workers %d window %d closed-loop %v: %w", workers, window, closedLoop, *err)
	}
	if e := emitted.Load(); e != int64(n) {
		return fmt.Errorf("workers %d window %d closed-loop %v: %d of %d items emitted", workers, window, closedLoop, e, n)
	}
	if held := tr.next - tr.base.Load(); held != 0 {
		return fmt.Errorf("workers %d window %d closed-loop %v: %d window slots held after the stream drained",
			workers, window, closedLoop, held)
	}
	return nil
}

// TestStreamWindowBoundWhenFull runs eight workers through windows of one
// to three slots, so pullers wait for room on nearly every turn, behind a
// free source and a closed-loop one: the window bound holds at every Next,
// and every item is emitted once, in order, with its own report.
func TestStreamWindowBoundWhenFull(t *testing.T) {
	delays := []byte{0, 3, 1, 7, 0, 0, 5, 2}
	for _, window := range []int{1, 2, 3} {
		for _, closedLoop := range []bool{false, true} {
			if err := windowRun(8, window, 300, delays, closedLoop); err != nil {
				t.Error(err)
			}
		}
	}
}

// FuzzStreamWindow holds the same properties over fuzz-chosen worker
// counts and windows (1–8 each), per-item delays and sources.
func FuzzStreamWindow(f *testing.F) {
	f.Add(uint8(8), uint8(1), []byte{0, 3, 1, 7}, false)
	f.Add(uint8(8), uint8(1), []byte{5}, true)
	f.Add(uint8(3), uint8(2), []byte{}, false)
	f.Add(uint8(4), uint8(3), []byte{1, 0, 0, 6, 2}, true)
	f.Add(uint8(1), uint8(8), []byte{2, 0}, false)
	f.Fuzz(func(t *testing.T, workers, window uint8, delays []byte, closedLoop bool) {
		// 1–8 map to themselves, 0 to 8.
		if err := windowRun(int(workers-1)%8+1, int(window-1)%8+1, 64, delays, closedLoop); err != nil {
			t.Fatal(err)
		}
	})
}
