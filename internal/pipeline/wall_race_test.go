package pipeline

import (
	"sync"
	"testing"
	"time"
)

// TestWallConcurrentWithWait drives a run to completion while other
// goroutines poll Wall() the whole time — the live-progress-reporting
// shape. Run under -race this fails if Wait's freeze of the wall clock
// races the readers.
func TestWallConcurrentWithWait(t *testing.T) {
	e := New()
	st := e.NewStage("work", 4)
	for w := 0; w < 4; w++ {
		e.Go(func() {
			for i := 0; i < 50; i++ {
				time.Sleep(50 * time.Microsecond)
				st.Add(1, 50*time.Microsecond)
			}
		})
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last time.Duration
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := e.Wall()
				if w < last {
					// The live clock is monotone and the frozen value can
					// only be >= any live reading taken before Wait.
					t.Errorf("Wall went backwards: %v after %v", w, last)
					return
				}
				last = w
			}
		}()
	}

	e.Wait()
	frozen := e.Wall()
	close(stop)
	readers.Wait()

	if frozen <= 0 {
		t.Fatalf("frozen wall = %v, want > 0", frozen)
	}
	time.Sleep(2 * time.Millisecond)
	if again := e.Wall(); again != frozen {
		t.Fatalf("wall not frozen after Wait: %v then %v", frozen, again)
	}
}
