package proxion

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/etypes"
)

// TestStreamTrackerRingGrowsOnDemand streams 3×window items through a
// tracker whose ring starts at minRing, completing them out of order from
// two goroutines. Emission must stay in index order with nothing lost
// across the re-seating, the ring must become the window and no larger
// (whatever the scheduler made of the run), and a stream that keeps few
// items in flight must leave it at its minimum.
func TestStreamTrackerRingGrowsOnDemand(t *testing.T) {
	const window = 256
	var emitted []int
	maxRing := 0
	endless := SourceFunc(func() (etypes.Address, bool) { return etypes.Address{}, true })
	tr := newStreamTracker(window, endless, SinkFunc(func(it Item) {
		if it.Report.Address != addrOf(it.Index) {
			t.Errorf("item %d emitted with another item's report", it.Index)
		}
		emitted = append(emitted, it.Index)
	}), nil)
	if len(tr.slots) != minRing {
		t.Fatalf("ring starts at %d slots, want %d", len(tr.slots), minRing)
	}

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
						tr.deliverReport(idx, Report{Address: addrOf(idx)}, 1)
						tr.deliverPair(idx, &PairAnalysis{}, nil)
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
		tr.mu.Lock()
		if len(tr.slots) > maxRing {
			maxRing = len(tr.slots)
		}
		tr.mu.Unlock()
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
	if maxRing != window {
		t.Fatalf("ring ended at %d slots with %d items in flight, want the %d-item window", maxRing, window/2, window)
	}
	if len(tr.sem) != 0 {
		t.Fatalf("%d window tokens still held after the stream drained", len(tr.sem))
	}

	// One item at a time: the window is never approached, the ring stays put.
	one := newStreamTracker(4096, endless, SinkFunc(func(Item) {}), nil)
	for i := 0; i < 100; i++ {
		idx, _, _ := one.pull()
		one.deliverReport(idx, Report{}, 0)
	}
	if len(one.slots) != minRing {
		t.Fatalf("sequential stream grew the ring to %d slots", len(one.slots))
	}
}

func addrOf(idx int) etypes.Address {
	return etypes.Address{0xab, byte(idx >> 8), byte(idx)}
}
