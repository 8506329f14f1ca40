package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/keccak"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/static"
	"repro/internal/store"
	"repro/internal/u256"
)

// layerMetrics holds one traced run's per-layer numbers by metric name.
// A layer the workload never enters stays absent and is printed as 0.
type layerMetrics map[string]float64

// timedSpans are the span names whose mean self time per call becomes the
// metric <name>_ns.
var timedSpans = []string{
	"chain.code", "disasm.filter", "static.fingerprint", "static.analyze",
	"evm.call", "proxion.check_cold",
	"pair.analyze", "pair.selectors", "pair.slicing", "pair.verify",
	"store.put", "store.put_skipped", "store.get",
	"serve.lookup_hit", "serve.http_hit", "serve.lookup_warm_miss",
	"watch.poll_idle", "watch.poll_deploy", "watch.poll_upgrade",
}

// addSpans derives the time metrics from the recorded spans.
func (m layerMetrics) addSpans(tr *tracer) {
	by := tr.byName()
	for _, name := range timedSpans {
		m[name+"_ns"] = by[name].perCall()
	}
	m["store.open_ms"] = by["store.open"].perCall() / 1e6
	m["pair.verify_share"] = ratio(float64(by["pair.verify"].selfNS), float64(by["pair.analyze"].selfNS))
	if hit := m["serve.http_hit_ns"]; hit > 0 {
		m["serve.http_overhead_ns"] = hit - m["serve.lookup_hit_ns"]
	}
}

// keccakReference hashes a seed-filled 4 KiB buffer and returns ns per KiB:
// a number that moves with the host, never with the program's design.
func keccakReference(seed int64) float64 {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(int64(i) * (seed + 1))
	}
	const rounds = 2000
	var sink byte
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		sum := keccak.Sum256(buf)
		sink ^= sum[0]
	}
	el := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(el.Nanoseconds()) / (rounds * 4)
}

// walkCap bounds the contracts the layer walk visits; larger corpora are
// sampled at a fixed stride so the walk stays a few seconds.
const walkCap = 5000

// probeCaller is the synthetic sender of the raw EVM calls.
var probeCaller = etypes.MustAddress("0x00000000000000000000000000000000be9c4e2e")

// layerWalk times every public per-contract layer in isolation, layer by
// layer over the same sample of the corpus: code fetch, DELEGATECALL
// filter, fingerprint, static summary, a raw EVM call, the detector's cold
// check, and pair analysis whole and in its three parts. Counts of heap
// objects are taken around each layer's loop, never around single calls,
// so reading them does not disturb the timings. It returns the contracts
// visited and how many the filter or the cold check answered against
// their label.
func layerWalk(tr *tracer, m layerMetrics, c *corpus) (visited, wrong int) {
	root := tr.begin(0, -1, "walk.layers")
	defer tr.end(root)

	stride := (len(c.addrs) + walkCap - 1) / walkCap
	var sample []int
	for i := 0; i < len(c.addrs); i += stride {
		sample = append(sample, i)
	}
	// layer runs f over the given operations inside one parent span and
	// returns the heap objects the loop allocated per call.
	layer := func(name string, ops []int, f func(parent, op int)) float64 {
		id := tr.begin(root, -1, "loop."+name)
		before := mallocs()
		for _, op := range ops {
			f(id, op)
		}
		allocs := mallocs() - before
		tr.end(id)
		return ratio(float64(allocs), float64(len(ops)))
	}

	codes := make([][]byte, len(c.addrs))
	layer("chain.code", sample, func(parent, op int) {
		s := tr.begin(parent, op, "chain.code")
		codes[op] = c.chain.Code(c.addrs[op])
		_ = c.chain.CodeHash(c.addrs[op])
		tr.end(s)
	})

	var passing []int
	layer("disasm.filter", sample, func(parent, op int) {
		s := tr.begin(parent, op, "disasm.filter")
		has := disasm.ContainsOp(codes[op], evm.DELEGATECALL)
		tr.end(s)
		if has {
			passing = append(passing, op)
		} else if c.want[op].isProxy {
			wrong++
		}
	})
	m["disasm.filter_reject_share"] = ratio(float64(len(sample)-len(passing)), float64(len(sample)))

	layer("static.fingerprint", passing, func(parent, op int) {
		s := tr.begin(parent, op, "static.fingerprint")
		_ = static.Fingerprint(codes[op])
		tr.end(s)
	})
	m["static.analyze_allocs"] = layer("static.analyze", passing, func(parent, op int) {
		s := tr.begin(parent, op, "static.analyze")
		_ = static.Analyze(codes[op])
		tr.end(s)
	})

	// The probe the detector sends, without its tracer and bookkeeping.
	// Calls run against the chain itself, so each is rolled back.
	probes := make([][]byte, len(c.addrs))
	for _, op := range passing {
		probes[op] = proxion.CraftCallData(c.addrs[op], codes[op])
	}
	evm.ResetDecodeCache()
	m["evm.call_allocs"] = layer("evm.call", passing, func(parent, op int) {
		snap := c.chain.Snapshot()
		e := evm.New(c.chain, evm.Config{
			Block: evm.DefaultBlockContext(), Tx: evm.TxContext{Origin: probeCaller},
			Lenient: true, StepLimit: 1 << 18,
		})
		s := tr.begin(parent, op, "evm.call")
		_ = e.Call(probeCaller, c.addrs[op], probes[op], 5_000_000, u256.Zero())
		tr.end(s)
		c.chain.RevertToSnapshot(snap)
	})
	_, misses, _ := evm.DecodeCacheStats()
	m["evm.decode_misses"] = float64(misses)

	// Detector.Check consults no verdict cache: every call is the cold path.
	evm.ResetDecodeCache()
	det := proxion.NewDetector(c.chain)
	type pair struct {
		op    int
		logic etypes.Address
	}
	var pairs []pair
	m["proxion.check_cold_allocs"] = layer("proxion.check_cold", passing, func(parent, op int) {
		s := tr.begin(parent, op, "proxion.check_cold")
		rep := det.Check(c.addrs[op])
		tr.end(s)
		if !c.want[op].matchesReport(c.addrs[op], rep) {
			wrong++
		}
		if rep.IsProxy && !rep.Logic.IsZero() {
			pairs = append(pairs, pair{op, rep.Logic})
		}
	})

	// Pair analysis memoises per detector, so each call gets its own.
	pairOps := make([]int, len(pairs))
	fresh := make([]*proxion.Detector, len(pairs))
	for i := range pairs {
		pairOps[i] = i
		fresh[i] = proxion.NewDetector(c.chain)
	}
	evm.ResetDecodeCache()
	m["pair.analyze_allocs"] = layer("pair.analyze", pairOps, func(parent, i int) {
		p := pairs[i]
		s := tr.begin(parent, p.op, "pair.analyze")
		_ = fresh[i].AnalyzePair(c.addrs[p.op], p.logic, c.sources)
		tr.end(s)
	})
	evm.ResetDecodeCache()
	layer("pair.parts", pairOps, func(parent, i int) {
		p := pairs[i]
		proxyCode, logicCode := codes[p.op], c.chain.Code(p.logic)
		s := tr.begin(parent, p.op, "pair.selectors")
		_ = proxion.FunctionCollisionsBytecode(proxyCode, logicCode)
		tr.end(s)
		s = tr.begin(parent, p.op, "pair.slicing")
		cols := proxion.StorageCollisions(
			proxion.ExtractStorageAccesses(proxyCode), proxion.ExtractStorageAccesses(logicCode))
		tr.end(s)
		if len(cols) == 0 {
			return
		}
		d := proxion.NewDetector(c.chain)
		s = tr.begin(parent, p.op, "pair.verify")
		_ = d.VerifyStorageExploit(c.addrs[p.op], p.logic, cols)
		tr.end(s)
	})
	return len(sample), wrong
}

// addCacheCounters records which cache tier answered, from the pipeline's
// own counters.
func addCacheCounters(m layerMetrics, k map[string]int64) {
	hits, emu := float64(k["cache_hits"]), float64(k["emulations"])
	m["cache.emulations"] = emu
	m["cache.exact_hits"] = hits - float64(k["structural_hits"])
	m["cache.structural_hits"] = float64(k["structural_hits"])
	m["cache.static_summaries"] = float64(k["static_summaries"])
	m["cache.structural_rejects"] = float64(k["structural_rejects"])
	m["cache.hit_ratio"] = ratio(hits, hits+emu)
	m["static.promotions_per_summary"] = ratio(float64(k["structural_hits"]), float64(k["static_summaries"]))
}

// stream runs one AnalyzeStream over addrs with a discarding sink and
// returns the snapshot and the wall time.
func stream(det *proxion.Detector, c *corpus, addrs []etypes.Address) (*pipeline.Snapshot, time.Duration) {
	t0 := time.Now()
	snap := det.AnalyzeStream(proxion.SliceSource(addrs), c.sources,
		proxion.SinkFunc(func(proxion.Item) {}), proxion.AnalyzeOptions{})
	return snap, time.Since(t0)
}

// streamPasses measures the streaming engine as a whole over the full
// corpus: a cold pass and a second, all-hits pass over the same detector;
// the per-stage busy time of the cold pass; a pass over only the contracts
// the filter rejects, which is the engine's own plumbing; and throughput on
// two processors against one.
func streamPasses(tr *tracer, m layerMetrics, c *corpus) {
	root := tr.begin(0, -1, "walk.stream")
	defer tr.end(root)
	n := float64(len(c.addrs))

	evm.ResetDecodeCache()
	det := proxion.NewDetector(c.chain)
	s := tr.begin(root, -1, "cache.cold_pass")
	cold, coldWall := stream(det, c, c.addrs)
	tr.end(s)
	before := mallocs()
	s = tr.begin(root, -1, "cache.warm_pass")
	_, warmWall := stream(det, c, c.addrs)
	tr.end(s)
	warmAllocs := mallocs() - before
	m["cache.cold_pass_ns_per_contract"] = float64(coldWall.Nanoseconds()) / n
	m["cache.warm_pass_ns_per_contract"] = float64(warmWall.Nanoseconds()) / n
	m["cache.warm_pass_allocs_per_contract"] = float64(warmAllocs) / n
	addCacheCounters(m, cold.Counters())
	for _, st := range cold.Stages {
		m["pipeline.stage."+st.Name+".busy_ns_per_item"] = ratio(st.BusyMS*1e6, float64(st.Processed))
	}

	var rejected []etypes.Address
	for _, a := range c.addrs {
		if !disasm.ContainsOp(c.chain.Code(a), evm.DELEGATECALL) {
			rejected = append(rejected, a)
		}
	}
	if len(rejected) > 0 {
		det = proxion.NewDetector(c.chain)
		before = mallocs()
		s = tr.begin(root, -1, "pipeline.passthrough")
		_, wall := stream(det, c, rejected)
		tr.end(s)
		m["pipeline.passthrough_allocs_per_contract"] = float64(mallocs()-before) / float64(len(rejected))
		m["pipeline.passthrough_ns_per_contract"] = float64(wall.Nanoseconds()) / float64(len(rejected))
	}

	// Scaling: the same cold pass on two processors and on one, three
	// alternating rounds, median against median.
	var two, one []float64
	for round := 0; round < 3; round++ {
		for _, procs := range []int{e2eProcs, traceProcs} {
			prev := runtime.GOMAXPROCS(procs)
			evm.ResetDecodeCache()
			_, wall := stream(proxion.NewDetector(c.chain), c, c.addrs)
			runtime.GOMAXPROCS(prev)
			if procs == e2eProcs {
				two = append(two, n/wall.Seconds())
			} else {
				one = append(one, n/wall.Seconds())
			}
		}
	}
	m["pipeline.speedup_2p"] = ratio(median(two), median(one))
}

// storeProbes times the verdict store on the entries a populated store
// holds: first-time puts (append + fsync), byte-identical re-puts, gets,
// and a reopen that replays the log.
func storeProbes(tr *tracer, m layerMetrics, populated, outDir string) error {
	root := tr.begin(0, -1, "walk.store")
	defer tr.end(root)

	src, err := store.Open(populated, store.Options{})
	if err != nil {
		return err
	}
	entries, err := src.Entries()
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for _, name := range []string{"store.put", "store.put_skipped"} {
		for i, e := range entries {
			s := tr.begin(root, i, name)
			err := st.Put(e)
			tr.end(s)
			if err != nil {
				st.Close()
				return err
			}
		}
	}
	for i, e := range entries {
		s := tr.begin(root, i, "store.get")
		_, ok, err := st.Get(e.CodeHash)
		tr.end(s)
		if err != nil || !ok {
			st.Close()
			return fmt.Errorf("store: entry %d not readable back (found=%v, err=%v)", i, ok, err)
		}
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		return err
	}
	m["store.appended"] = float64(stats.Appended)
	m["store.bytes_per_entry"] = ratio(float64(stats.Bytes), float64(stats.Entries))

	s := tr.begin(root, -1, "store.open")
	st, err = store.Open(dir, store.Options{})
	tr.end(s)
	if err != nil {
		return err
	}
	return st.Close()
}
