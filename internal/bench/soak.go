package bench

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/proxion"
)

// SoakOptions configures one streaming soak run: the generator streams a
// landscape of Contracts contracts into the analysis engine while retiring
// consumed contracts behind the analysis window, so the whole run — source,
// chain, engine, aggregation — holds a working set that is a function of
// the window sizes, never of Contracts.
type SoakOptions struct {
	// Contracts is the corpus size. Default 1_000_000.
	Contracts int
	// Seed drives generation; the deterministic counters in the result are
	// a pure function of (code, Seed, Contracts).
	Seed int64
	// Window is the engine's in-flight window (AnalyzeOptions.Window);
	// 0 keeps the engine default.
	Window int
	// CacheCapacity bounds the verdict cache (AnalyzeOptions.CacheCapacity);
	// 0 keeps the cache unbounded.
	CacheCapacity int
	// RetireWindow is the generator's retirement lag in labels. It must be
	// at least the engine window or retirement could drop a contract that
	// is still being analyzed; 0 derives 2× the engine window.
	RetireWindow int
	// Progress, when non-nil, receives a line every ProgressEvery contracts.
	Progress      io.Writer
	ProgressEvery int
}

// RunSoak executes one bounded-memory streaming landscape analysis and
// returns its report, CreatedAt left for the caller to stamp. A soak is a
// single long run instrumented in flight: a log-bucketed histogram of
// per-contract latency (source hand-off to ordered sink emission) and a
// background sampler tracking peak heap occupancy, with the kernel's
// process high-water mark (VmHWM) read at the end. The returned Counters
// carry only the scheduling-independent subset of the pipeline snapshot, so
// two soaks of the same (seed, scale) agree on them exactly even though
// cache hits and upgrade-relative timings vary with thread interleaving.
func RunSoak(opts SoakOptions) (*SoakReport, error) {
	if opts.Contracts <= 0 {
		opts.Contracts = 1_000_000
	}
	engineWindow := opts.Window
	if engineWindow <= 0 {
		engineWindow = proxion.DefaultWindow(0)
	}
	retire := opts.RetireWindow
	if retire <= 0 {
		retire = 2 * engineWindow
	}
	if retire < engineWindow {
		return nil, fmt.Errorf("bench: soak retire window %d < engine window %d would retire in-flight contracts", retire, engineWindow)
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = 100_000
	}

	s := dataset.GenerateStream(dataset.StreamConfig{
		Config: dataset.Config{Seed: opts.Seed, Contracts: opts.Contracts},
		Window: retire,
		Retire: true,
	})
	defer s.Close()
	det := proxion.NewDetector(s.Chain)
	sb := proxion.NewSummaryBuilder()

	heap := newHeapSampler(50 * time.Millisecond)
	defer heap.stop()

	var (
		mu        sync.Mutex
		started   = make(map[int]int64) // item index -> feed time (ns); bounded by the in-flight window
		hist      latHist
		completed int
		fed       int
	)
	src := proxion.SourceFunc(func() (etypes.Address, bool) {
		l, ok := <-s.C
		if !ok {
			return etypes.Address{}, false
		}
		mu.Lock()
		started[fed] = time.Now().UnixNano()
		fed++
		mu.Unlock()
		return l.Address, true
	})
	sink := proxion.SinkFunc(func(it proxion.Item) {
		now := time.Now().UnixNano()
		mu.Lock()
		if t0, ok := started[it.Index]; ok {
			hist.record(now - t0)
			delete(started, it.Index)
		}
		completed++
		n := completed
		mu.Unlock()
		sb.Emit(it)
		s.Advance(n)
		if opts.Progress != nil && n%every == 0 {
			fmt.Fprintf(opts.Progress, "  soak: %d/%d contracts, peak heap %s\n",
				n, opts.Contracts, fmtBytes(heap.peak()))
		}
	})

	t0 := time.Now()
	snap := det.AnalyzeStream(src, s.Registry, sink, proxion.AnalyzeOptions{
		Window:        engineWindow,
		CacheCapacity: opts.CacheCapacity,
	})
	wall := time.Since(t0)
	heap.stop()

	// The generator labels support contracts (shared logics, libraries) on
	// top of the configured population, so the analyzed count is compared
	// against what the source actually handed over, not opts.Contracts.
	mu.Lock()
	totalFed := fed
	mu.Unlock()
	if snap.Contracts != int64(totalFed) {
		return nil, fmt.Errorf("bench: soak analyzed %d contracts, source fed %d", snap.Contracts, totalFed)
	}

	all := snap.Counters()
	counters := map[string]int64{
		"contracts":        all["contracts"],
		"no_code":          all["no_code"],
		"filter_rejected":  all["filter_rejected"],
		"proxies_detected": all["proxies_detected"],
		"pairs_analyzed":   all["pairs_analyzed"],
		"retired":          int64(s.Retired()),
	}
	sum := sb.Summary(nil)
	counters["proxies_summarized"] = int64(sum.Proxies)

	return &SoakReport{
		SchemaVersion:  SchemaVersion,
		Seed:           opts.Seed,
		Host:           hostInfo(),
		Scale:          opts.Contracts,
		WallNs:         wall.Nanoseconds(),
		OpsPerSec:      float64(totalFed) / wall.Seconds(),
		ItemP50NsPerOp: hist.percentile(0.50),
		ItemP99NsPerOp: hist.percentile(0.99),
		PeakHeapBytes:  heap.peak(),
		PeakRSSBytes:   readPeakRSS(),
		Counters:       counters,
	}, nil
}

// latHist is a log2-bucketed latency histogram: bucket i holds samples
// whose nanosecond value has bit length i. Fixed size, lock-free to read
// after the run; the recorder is called under the soak's mutex.
type latHist struct {
	buckets [64]int64
	total   int64
}

func (h *latHist) record(ns int64) {
	if ns < 1 {
		ns = 1
	}
	h.buckets[bits.Len64(uint64(ns))-1]++
	h.total++
}

// percentile returns the geometric midpoint of the bucket holding the
// q-quantile sample — within ~±25% of the true value, which is the
// resolution trade the fixed 64-counter footprint buys.
func (h *latHist) percentile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			lo := math.Exp2(float64(i)) // smallest value with this bit length
			return lo * math.Sqrt2      // geometric midpoint of [2^i, 2^(i+1))
		}
	}
	return 0
}

// heapSampler polls runtime.MemStats.HeapInuse on a ticker and keeps the
// maximum. ReadMemStats is a brief stop-the-world, so the interval stays
// coarse; the final stop() takes one last sample so short runs are never
// reported as zero.
type heapSampler struct {
	max  atomic.Int64
	done chan struct{}
	once sync.Once
}

func newHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.sample()
			case <-h.done:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	for {
		cur := h.max.Load()
		if int64(m.HeapInuse) <= cur || h.max.CompareAndSwap(cur, int64(m.HeapInuse)) {
			return
		}
	}
}

func (h *heapSampler) stop() {
	h.once.Do(func() {
		close(h.done)
		h.sample()
	})
}

func (h *heapSampler) peak() int64 { return h.max.Load() }

// readPeakRSS returns the process's resident-set high-water mark from
// /proc/self/status (VmHWM), or 0 where /proc is unavailable (non-Linux).
// Note it is process-lifetime, not per-run: anything the process did
// before the soak is included.
func readPeakRSS() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// fmtBytes renders a byte count for progress lines.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
