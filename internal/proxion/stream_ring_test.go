package proxion

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/etypes"
)

// TestStreamTrackerOutOfOrderDelivery streams 3×window items through a
// tracker, so that every ring slot is reused, completing them out of order
// from two goroutines with the window as full as the puller can make it.
// Emission must stay in index order, each item with its own report, nothing
// lost, and no window slot still held.
func TestStreamTrackerOutOfOrderDelivery(t *testing.T) {
	const window = 256
	var emitted []int
	endless := SourceFunc(func() (etypes.Address, bool) { return etypes.Address{}, true })
	tr := newStreamTracker(window, endless, SinkFunc(func(it Item) {
		if it.Report.Address != addrOf(it.Index) {
			t.Errorf("item %d emitted with another item's report", it.Index)
		}
		emitted = append(emitted, it.Index)
	}))

	// The puller runs ahead as far as the window lets it. One completer takes
	// what it fed in batches (whole batches, so the item the window waits on
	// is never parked while the puller is blocked), shuffles each and lands
	// it from two goroutines at once.
	fed := make(chan int, window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		var batch []int
		flush := func() {
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			var landing sync.WaitGroup
			for _, half := range [][]int{batch[:len(batch)/2], batch[len(batch)/2:]} {
				landing.Add(1)
				go func(half []int) {
					defer landing.Done()
					for _, idx := range half {
						tr.deliver(Item{Index: idx, Report: Report{Address: addrOf(idx)}})
					}
				}(half)
			}
			landing.Wait()
			batch = batch[:0]
		}
		for idx := range fed {
			if batch = append(batch, idx); len(batch) == window/2 {
				flush()
			}
		}
		flush()
	}()
	for i := 0; i < 3*window; i++ {
		idx, _, _ := tr.pull()
		fed <- idx
	}
	close(fed)
	wg.Wait()

	if len(emitted) != 3*window {
		t.Fatalf("%d of %d items emitted", len(emitted), 3*window)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emission %d carried item %d", i, idx)
		}
	}
	if held := tr.next - tr.base.Load(); held != 0 {
		t.Fatalf("%d window slots still held after the stream drained", held)
	}
}

func addrOf(idx int) etypes.Address {
	return etypes.Address{0xab, byte(idx >> 8), byte(idx)}
}
