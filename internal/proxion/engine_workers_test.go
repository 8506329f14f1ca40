package proxion_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
)

// engineMatrix is the worker × window grid the scheduling-dependent tests
// run over: serial, as many workers as window slots, more workers than
// slots, and the defaults (0).
var engineMatrix = struct{ workers, windows []int }{
	workers: []int{1, 2, 8},
	windows: []int{1, 4, 0},
}

// streamWithin runs one AnalyzeStream on its own goroutine and fails the
// test if it has not returned within the limit: the engine's failure mode
// under a wrong pull or window discipline is a hang, which neither the race
// detector nor an assertion after the call can report.
func streamWithin(t *testing.T, limit time.Duration, name string, run func() *pipeline.Snapshot) *pipeline.Snapshot {
	t.Helper()
	done := make(chan *pipeline.Snapshot, 1)
	go func() { done <- run() }()
	select {
	case snap := <-done:
		return snap
	case <-time.After(limit):
		t.Fatalf("%s: AnalyzeStream still running after %v", name, limit)
		return nil
	}
}

// TestAnalyzeStreamClosedLoopSource drives the engine the way a request
// channel with a closed-loop client behind it does (proxiond's shards, when
// it had them): the source hands out address k+1 only after item k has
// reached the sink. An engine that asks the source for a second address
// while it still holds the first — a chunked pull, a prefetching feeder —
// waits for an emission that cannot happen; one address per turn completes.
func TestAnalyzeStreamClosedLoopSource(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 23, Contracts: 150})
	addrs := pop.Chain.Contracts()
	want := proxion.NewDetector(pop.Chain).AnalyzeAll(pop.Registry)
	want.Stats = nil

	for _, workers := range engineMatrix.workers {
		for _, window := range engineMatrix.windows {
			name := fmt.Sprintf("workers=%d window=%d", workers, window)
			// One credit: the reply the client is waiting for.
			credit := make(chan struct{}, 1)
			credit <- struct{}{}
			i := 0
			src := proxion.SourceFunc(func() (etypes.Address, bool) {
				<-credit
				if i >= len(addrs) {
					return etypes.Address{}, false
				}
				i++
				return addrs[i-1], true
			})
			collect := proxion.NewCollectSink()
			sink := proxion.SinkFunc(func(it proxion.Item) {
				collect.Emit(it)
				credit <- struct{}{}
			})
			streamWithin(t, 60*time.Second, name, func() *pipeline.Snapshot {
				return proxion.NewDetector(pop.Chain).AnalyzeStream(src, pop.Registry, sink,
					proxion.AnalyzeOptions{Workers: workers, Window: window})
			})
			if !reflect.DeepEqual(collect.Result(), want) {
				t.Fatalf("%s: closed-loop stream diverges from AnalyzeAll", name)
			}
		}
	}
}

// TestAnalyzeStreamUnsynchronisedSourceAndSink streams through closures
// that share plain variables with no locking of their own — the shape of
// bench/e2e's scan loop: the source stamps a slot the sink later reads, and
// both count in bare ints. The AddressSource and ReportSink contracts
// (never concurrent; an item's emission ordered after its pull) are what
// make that legal; run under -race this fails if the engine breaks either.
func TestAnalyzeStreamUnsynchronisedSourceAndSink(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 31, Contracts: 400})
	addrs := pop.Chain.Contracts()
	for _, workers := range engineMatrix.workers {
		handed := make([]int64, len(addrs))
		next, emitted, unstamped := 0, 0, 0
		t0 := time.Now()
		src := proxion.SourceFunc(func() (etypes.Address, bool) {
			if next >= len(addrs) {
				return etypes.Address{}, false
			}
			handed[next] = int64(time.Since(t0)) + 1
			next++
			return addrs[next-1], true
		})
		sink := proxion.SinkFunc(func(it proxion.Item) {
			if it.Index != emitted || it.Report.Address != addrs[it.Index] {
				t.Errorf("workers %d: emission %d carries item %d (%s)", workers, emitted, it.Index, it.Report.Address)
			}
			if handed[it.Index] == 0 {
				unstamped++
			}
			emitted++
		})
		proxion.NewDetector(pop.Chain).AnalyzeStream(src, pop.Registry, sink,
			proxion.AnalyzeOptions{Workers: workers})
		if emitted != len(addrs) || unstamped != 0 {
			t.Fatalf("workers %d: %d of %d emitted, %d before their pull was visible", workers, emitted, len(addrs), unstamped)
		}
	}
}

// TestAnalyzeStreamCancelMidStream ends the source early, while contracts
// are in flight on every worker: everything pulled is emitted, in order,
// nothing after it, and the counters describe the truncated stream.
func TestAnalyzeStreamCancelMidStream(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 37, Contracts: 300})
	addrs := pop.Chain.Contracts()
	const cancelAfter = 117
	for _, workers := range engineMatrix.workers {
		stop := make(chan struct{})
		pulled := 0
		src := proxion.SourceFunc(func() (etypes.Address, bool) {
			select {
			case <-stop:
				return etypes.Address{}, false
			default:
			}
			pulled++
			return addrs[pulled-1], true
		})
		emitted := 0
		sink := proxion.SinkFunc(func(it proxion.Item) {
			if it.Index != emitted {
				t.Errorf("workers %d: emission %d carries item %d", workers, emitted, it.Index)
			}
			emitted++
			if emitted == cancelAfter {
				close(stop)
			}
		})
		snap := streamWithin(t, 60*time.Second, fmt.Sprintf("workers=%d", workers), func() *pipeline.Snapshot {
			return proxion.NewDetector(pop.Chain).AnalyzeStream(src, pop.Registry, sink,
				proxion.AnalyzeOptions{Workers: workers, Window: 16})
		})
		if pulled < cancelAfter || pulled >= len(addrs) {
			t.Fatalf("workers %d: source pulled %d times, want a mid-stream stop past %d", workers, pulled, cancelAfter)
		}
		if emitted != pulled || snap.Contracts != int64(pulled) {
			t.Fatalf("workers %d: pulled %d, emitted %d, counted %d: work lost or invented on cancel",
				workers, pulled, emitted, snap.Contracts)
		}
		if got := snap.Stages[0].Processed; got != int64(pulled) {
			t.Errorf("workers %d: filter stage processed %d of %d pulled", workers, got, pulled)
		}
	}
}

// failingReader is a node whose reads fail terminally for chosen
// (operation, account) pairs, the way the resilient client reports an
// exhausted retry budget — from the first such read, or after a number of
// them succeeded.
type failingReader struct {
	*chain.Chain
	failAfter map[failedRead]int // present: reads beyond this many fail

	mu    sync.Mutex
	reads map[failedRead]int
}

type failedRead struct {
	op   string
	addr etypes.Address
}

func (f *failingReader) check(op string, addr etypes.Address) {
	key := failedRead{op, addr}
	f.mu.Lock()
	if f.reads == nil {
		f.reads = make(map[failedRead]int)
	}
	f.reads[key]++
	n := f.reads[key]
	f.mu.Unlock()
	if allowed, ok := f.failAfter[key]; ok && n > allowed {
		panic(&chain.ReadError{Op: op, Addr: addr, Attempts: 3, Err: errors.New("node down")})
	}
}

func (f *failingReader) Code(a etypes.Address) []byte {
	f.check("code", a)
	return f.Chain.Code(a)
}

func (f *failingReader) GetState(a etypes.Address, k etypes.Hash) etypes.Hash {
	f.check("state", a)
	return f.Chain.GetState(a, k)
}

func (f *failingReader) GetStorageAt(a etypes.Address, s etypes.Hash, b uint64) etypes.Hash {
	f.check("storage-at", a)
	return f.Chain.GetStorageAt(a, s, b)
}

// TestAnalyzeStreamReadFailureInEachStage lets a terminal read failure hit
// one contract in each analysis step — filter, probe, pair — and requires
// the stream to degrade exactly those contracts to Unresolved, in place,
// with the healthy contracts behind them intact and the per-stage counts
// adding up. A third contract's archive reads fail too, which no step makes:
// it must come out whole. The proxies are streamed without their logic
// contracts, and the fourth one's logic code becomes unreadable once its
// probe — whose emulation executes that code — has read it, so that failure
// is seen by the pair step only.
func TestAnalyzeStreamReadFailureInEachStage(t *testing.T) {
	c := chain.New()
	logicCode := solc.MustCompile(simpleLogic())
	var proxies, logics []etypes.Address
	for i := 0; i < 5; i++ {
		// Distinct slots make distinct bytecodes: no contract's verdict is
		// served from another's cache entry.
		slot := etypes.HashFromWord(u256.FromUint64(uint64(40 + i)))
		logic := etypes.MustAddress(fmt.Sprintf("0x00000000000000000000000000000000000c00%02x", i))
		proxy := etypes.MustAddress(fmt.Sprintf("0x00000000000000000000000000000000000d00%02x", i))
		c.InstallContract(logic, logicCode)
		c.InstallContract(proxy, solc.MustCompile(&solc.Contract{
			Name:     "Proxy",
			Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
		}))
		c.SetStorageDirect(proxy, slot, etypes.HashFromWord(logic.Word()))
		proxies, logics = append(proxies, proxy), append(logics, logic)
	}
	c.AdvanceBlocks(5)
	counting := &failingReader{Chain: c}
	proxion.NewDetector(counting).Check(proxies[3])
	failAfter := map[failedRead]int{
		{"code", proxies[0]}:       0,                                             // filter
		{"state", proxies[1]}:      0,                                             // probe: the emulation reads the implementation slot
		{"storage-at", proxies[2]}: 0,                                             // no step: Algorithm 1's archive reads
		{"code", logics[3]}:        counting.reads[failedRead{"code", logics[3]}], // pair
	}

	wantUnresolved := []bool{true, true, false, true, false}
	var wantCounters map[string]int64
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		var items []proxion.Item
		rd := &failingReader{Chain: c, failAfter: failAfter}
		snap := proxion.NewDetector(rd).AnalyzeStream(
			proxion.SliceSource(proxies), nil,
			proxion.SinkFunc(func(it proxion.Item) { items = append(items, it) }),
			proxion.AnalyzeOptions{Workers: workers, Window: 4})
		if len(items) != len(proxies) {
			t.Fatalf("%s: %d of %d items emitted", name, len(items), len(proxies))
		}
		for i, it := range items {
			if it.Index != i || it.Report.Address != proxies[i] {
				t.Fatalf("%s: position %d holds item %d (%s)", name, i, it.Index, it.Report.Address)
			}
			if it.Report.Unresolved != wantUnresolved[i] {
				t.Errorf("%s: item %d unresolved = %v, want %v (%s)", name, i, it.Report.Unresolved, wantUnresolved[i], it.Report.Reason)
			}
		}
		for _, i := range []int{2, 4} {
			if it := items[i]; !it.Report.IsProxy || it.Report.Logic != logics[i] || it.Pair == nil {
				t.Errorf("%s: healthy proxy %d came out damaged: %+v", name, i, it)
			}
		}

		k := snap.Counters()
		pairFailures := int64(1)
		for key, want := range map[string]int64{
			"contracts":                       5,
			"stage_disasm-filter_processed":   5,
			"stage_emulation-probe_processed": 4, // contracts − no_code − filter_rejected − unresolved at the filter
			"stage_classification_processed":  4,
			"stage_pair-analysis_processed":   k["pairs_analyzed"] + pairFailures,
			"pairs_analyzed":                  2,
			"proxies_detected":                3,
		} {
			if k[key] != want {
				t.Errorf("%s: %s = %d, want %d", name, key, k[key], want)
			}
		}
		var unresolved int64
		for _, u := range wantUnresolved {
			if u {
				unresolved++
			}
		}
		if k["unresolved"] != unresolved {
			t.Errorf("%s: unresolved = %d, want %d", name, k["unresolved"], unresolved)
		}
		if wantCounters == nil {
			wantCounters = k
		} else if !reflect.DeepEqual(k, wantCounters) {
			t.Errorf("%s: counters differ from the 1-worker run:\n got %v\nwant %v", name, k, wantCounters)
		}
	}
}

// TestAnalyzeStreamStageArithmetic pins what the per-stage counts mean now
// that no queue separates the stages: every contract passes the filter,
// what the filter lets through is probed and classified, every proxy with a
// logic address is pair-analyzed — and none of it depends on how many
// workers shared the stream. It also pins the run's timing fields and row
// layout: the wall clock is positive, no longer than the call, and frozen
// once the call returns; the rows come in execution order; an empty stream
// gives zero, finite rates.
func TestAnalyzeStreamStageArithmetic(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 41, Contracts: 600})
	rowNames := func(snap *pipeline.Snapshot) []string {
		var names []string
		for _, st := range snap.Stages {
			names = append(names, st.Name)
		}
		return names
	}
	var want map[string]int64
	for _, workers := range []int{1, 8} {
		t0 := time.Now()
		res := proxion.NewDetector(pop.Chain).AnalyzeAllWithOptions(pop.Registry,
			proxion.AnalyzeOptions{Workers: workers})
		callMS := float64(time.Since(t0).Microseconds()) / 1000
		wallMS := res.Stats.WallMS
		if wallMS <= 0 || wallMS > callMS || res.Stats.ContractsPerSec <= 0 {
			t.Errorf("workers %d: wall %v ms (call took %v ms), %v contracts/s", workers, wallMS, callMS, res.Stats.ContractsPerSec)
		}
		time.Sleep(2 * time.Millisecond)
		if res.Stats.WallMS != wallMS {
			t.Errorf("workers %d: wall moved after the call returned: %v then %v ms", workers, wallMS, res.Stats.WallMS)
		}
		if got, want := rowNames(res.Stats), []string{"disasm-filter", "emulation-probe", "classification", "pair-analysis"}; !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: stage rows %v, want %v", workers, got, want)
		}
		k := res.Stats.Counters()
		probed := k["contracts"] - k["no_code"] - k["filter_rejected"]
		for key, v := range map[string]int64{
			"stage_disasm-filter_processed":   k["contracts"],
			"stage_emulation-probe_processed": probed,
			"stage_classification_processed":  probed,
			"stage_pair-analysis_processed":   k["pairs_analyzed"],
		} {
			if k[key] != v {
				t.Errorf("workers %d: %s = %d, want %d", workers, key, k[key], v)
			}
		}
		if k["contracts"] != int64(len(res.Reports)) || k["pairs_analyzed"] != int64(len(res.Pairs)) || probed == 0 || len(res.Pairs) == 0 {
			t.Errorf("workers %d: counters %v disagree with %d reports / %d pairs", workers, k, len(res.Reports), len(res.Pairs))
		}
		for _, st := range res.Stats.Stages {
			if st.Workers != workers {
				t.Errorf("workers %d: stage %s reports %d workers", workers, st.Name, st.Workers)
			}
		}
		if want == nil {
			want = k
		} else if !reflect.DeepEqual(k, want) {
			t.Errorf("counters at %d workers differ from 1 worker:\n got %v\nwant %v", workers, k, want)
		}
	}

	empty := proxion.NewDetector(pop.Chain).AnalyzeStream(proxion.SliceSource(nil), pop.Registry,
		proxion.SinkFunc(func(proxion.Item) {}), proxion.AnalyzeOptions{Workers: 3})
	for name, v := range map[string]float64{
		"contracts_per_sec": empty.ContractsPerSec,
		"cache_hit_rate":    empty.CacheHitRate,
	} {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("empty stream: %s = %v, want 0", name, v)
		}
	}
	for _, st := range empty.Stages {
		if st.Processed != 0 || st.Workers != 3 {
			t.Errorf("empty stream: stage %s processed %d at %d workers", st.Name, st.Processed, st.Workers)
		}
	}
	if len(empty.Stages) != 4 {
		t.Errorf("empty stream: %d stage rows, want 4", len(empty.Stages))
	}
}

// TestAnalyzeStreamLeavesNoGoroutines: AnalyzeStream waits for every
// goroutine it started, so once it has returned — from a full stream, an
// empty one, or one cut short — the process is back to the goroutines it
// had.
func TestAnalyzeStreamLeavesNoGoroutines(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 43, Contracts: 200})
	addrs := pop.Chain.Contracts()
	before := runtime.NumGoroutine()
	for _, n := range []int{len(addrs), 0, 50} {
		proxion.NewDetector(pop.Chain).AnalyzeStream(proxion.SliceSource(addrs[:n]), pop.Registry,
			proxion.SinkFunc(func(proxion.Item) {}),
			proxion.AnalyzeOptions{Workers: 8, Window: 4})
	}
	// A worker's last instructions after it reports done may still be on a
	// processor; yield until they are not, bounded.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before three streams, %d after", before, after)
	}
}
