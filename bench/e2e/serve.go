package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evm"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	// shards is the service's pipeline count, one per processor.
	shards = 2
	// resultLRU is serve.Config's default result-cache size; serve-hot's
	// address population is sized above it so the uniform tail misses it.
	resultLRU = 4096
	// hotRequests is the length of one serve-hot repetition.
	hotRequests = 25000
	// hotShare of requests go to the hottest sixteenth of the addresses.
	hotShare = 0.8
)

// service is one running server behind an in-process HTTP listener.
type service struct {
	srv *serve.Server
	ts  *httptest.Server
}

// openService starts a server on storeDir. Its store skips the per-append
// fsync: with it, two thirds of serve-cold's time was the disk's flush
// latency, which on the reference host wanders by a fifth from minute to
// minute and says nothing about the code. The traced run's store.put_ns
// keeps the fsync and reports it as what it is, a property of the host.
func openService(c *corpus, storeDir string) (*service, error) {
	srv, err := serve.New(serve.Config{
		Reader: c.chain, Sources: c.sources, Shards: shards,
		StoreDir: storeDir, StoreOptions: store.Options{NoSync: true},
	})
	if err != nil {
		return nil, err
	}
	return &service{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) close() error {
	s.ts.Close()
	return s.srv.Close()
}

// counters sums the shard pipelines' deterministic counters and adds the
// server's own request counters and the store's append count.
func (s *service) counters() map[string]int64 {
	out := make(map[string]int64)
	stats := s.srv.Stats()
	for _, sh := range stats.Shards {
		if sh.Summary.Pipeline == nil {
			continue
		}
		for k, v := range sh.Summary.Pipeline.Counters() {
			out[k] += v
		}
	}
	out["serve_requests"] = stats.Counters.Requests
	out["serve_result_cache_hits"] = stats.Counters.ResultCacheHits
	out["serve_coalesced"] = stats.Counters.Coalesced
	out["serve_analyses"] = stats.Counters.Analyses
	if stats.Store != nil {
		out["store_appended"] = stats.Store.Appended
	}
	return out
}

// client is one closed-loop caller: it sends its next request only when
// the previous reply has been read and checked.
type client struct {
	http *http.Client
	body bytes.Buffer
}

// get fetches one address's verdict and checks it against the label; any
// transport error, non-200 status, undecodable body or wrong verdict is a
// failed operation.
func (cl *client) get(base string, c *corpus, hex []string, i int) bool {
	resp, err := cl.http.Get(base + "/v1/verdict?addr=" + hex[i])
	if err != nil {
		return false
	}
	cl.body.Reset()
	_, err = cl.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var v serve.Verdict
	if json.Unmarshal(cl.body.Bytes(), &v) != nil {
		return false
	}
	want := c.want[i]
	if v.Address != hex[i] || v.Unresolved || v.IsProxy != want.isProxy {
		return false
	}
	return !want.isProxy || v.Logic == want.logic.Hex()
}

// serveBench is serve-cold (hot == false) or serve-hot.
type serveBench struct {
	hot    bool
	c      *corpus
	hex    []string
	seed   int64
	outDir string

	// dir is the verdict store directory: serve-cold makes a new one per
	// repetition, serve-hot populates one in set-up and keeps it.
	dir string
	svc *service
	// plans counts the request plans serve-hot has drawn; each repetition
	// gets its own, derived from the seed.
	plans int64
	plan  []int
	// every is serve-cold's request sequence: each address once.
	every []int
}

func newServeBench(hot bool, seed int64, contracts int, outDir string) (instance, error) {
	c, err := genCorpus(seed, contracts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	b := &serveBench{hot: hot, c: c, seed: seed, outDir: outDir}
	for i, a := range c.addrs {
		b.hex = append(b.hex, a.Hex())
		b.every = append(b.every, i)
	}
	if hot {
		b.plan = make([]int, hotRequests)
	}
	return b, nil
}

// start is serve-hot's: it measures the steady state of a restarted
// service, so a cold pass fills the store, then the server is reopened on
// it with its verdict caches seeded from disk and its result cache empty.
func (b *serveBench) start() error {
	if !b.hot {
		return nil
	}
	if err := b.restart(true); err != nil {
		return err
	}
	if failed := b.drive(b.every, make([]int64, len(b.c.addrs))); failed > 0 {
		return fmt.Errorf("serve-hot: %d of %d cold-pass requests failed", failed, len(b.c.addrs))
	}
	return b.restart(false)
}

func (b *serveBench) ops() int {
	if b.hot {
		return hotRequests
	}
	return len(b.c.addrs)
}

// restart closes the running service, if any, and opens a new one: on a
// new empty store directory when fresh, on the current one otherwise. A
// restarted service is a new process, so nothing stays decoded.
func (b *serveBench) restart(fresh bool) error {
	evm.ResetDecodeCache()
	if b.svc != nil {
		err := b.svc.close()
		b.svc = nil
		if err != nil {
			return err
		}
	}
	if fresh {
		if b.dir != "" {
			os.RemoveAll(b.dir)
		}
		dir, err := os.MkdirTemp(b.outDir, "store-")
		if err != nil {
			return err
		}
		b.dir = dir
	}
	svc, err := openService(b.c, b.dir)
	b.svc = svc
	return err
}

func (b *serveBench) close() error {
	var err error
	if b.svc != nil {
		err = b.svc.close()
		b.svc = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
	return err
}

// nextPlan draws serve-hot's next request sequence: hotShare of requests
// to the first sixteenth of the addresses, the rest uniform over all.
func (b *serveBench) nextPlan() []int {
	rng := rand.New(rand.NewSource(b.seed*1_000_003 + b.plans))
	b.plans++
	n := len(b.c.addrs)
	hot := n / 16
	if hot < 1 {
		hot = 1
	}
	for i := range b.plan {
		if rng.Float64() < hotShare {
			b.plan[i] = rng.Intn(hot)
		} else {
			b.plan[i] = rng.Intn(n)
		}
	}
	return b.plan
}

// drive sends the request sequence from the closed-loop clients, which take
// the next unsent request as soon as they are free, and writes each
// request's send-to-body-read latency to lat. It returns the failed count.
func (b *serveBench) drive(seq []int, lat []int64) int {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{http: b.svc.ts.Client()}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				t0 := time.Now()
				ok := cl.get(b.svc.ts.URL, b.c, b.hex, seq[i])
				lat[i] = int64(time.Since(t0))
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load())
}

func (b *serveBench) rep(lat []int64) (repOutcome, error) {
	var seq []int
	if b.hot {
		seq = b.nextPlan()
	} else {
		if err := b.restart(true); err != nil {
			return repOutcome{}, err
		}
		seq = b.every
	}
	t0 := time.Now()
	failed := b.drive(seq, lat)
	out := repOutcome{failed: failed, wall: time.Since(t0)}

	k := b.svc.counters()
	if !b.hot {
		out.counters = k
		return out, nil
	}
	// The restarted server must answer everything from what it loaded:
	// one emulation means the store did not carry a verdict over.
	if k["emulations"] != 0 {
		return out, fmt.Errorf("serve-hot: %d emulations on a store-seeded server, want 0", k["emulations"])
	}
	out.counters = map[string]int64{"emulations": 0}
	return out, nil
}

// walk replays the workload's requests one at a time from a single client
// with a span per request. serve-cold first walks the engine layers its
// first-touch requests pay for.
func (b *serveBench) walk(tr *tracer, m layerMetrics) (attempted, failed int, err error) {
	var seq []int
	name := "serve.http_cold"
	if b.hot {
		// Back to the state set-up left: store populated, caches seeded,
		// result cache empty.
		if err := b.restart(false); err != nil {
			return 0, 0, err
		}
		b.plans = 0
		seq = b.nextPlan()
		name = "serve.http"
	} else {
		attempted, failed = layerWalk(tr, m, b.c)
		if err := b.restart(true); err != nil {
			return 0, 0, err
		}
		seq = b.every
	}

	cl := &client{http: b.svc.ts.Client()}
	root := tr.begin(0, -1, "walk.requests")
	for i, idx := range seq {
		s := tr.begin(root, i, name)
		ok := cl.get(b.svc.ts.URL, b.c, b.hex, idx)
		tr.end(s)
		attempted++
		if !ok {
			failed++
		}
	}
	tr.end(root)
	k := b.svc.counters()
	addCacheCounters(m, k)
	m["serve.analyses"] = float64(k["serve_analyses"])
	m["serve.coalesced"] = float64(k["serve_coalesced"])
	m["serve.result_cache_hit_share"] = ratio(float64(k["serve_result_cache_hits"]), float64(k["serve_requests"]))
	return attempted, failed, nil
}

// passes probes the service's tiers — store-seeded warm miss, result-cache
// hit in process and over HTTP — and the store itself, on the store the
// last walk populated.
func (b *serveBench) passes(tr *tracer, m layerMetrics) (attempted, failed int, err error) {
	if attempted, failed, err = b.tierProbes(tr, m); err != nil {
		return 0, 0, err
	}
	return attempted, failed, storeProbes(tr, m, b.dir, b.outDir)
}

// tierProbes reopens the server on the populated store and looks every
// address up once (result-cache miss answered from the store-seeded verdict
// cache, no emulation), then looks the addresses still in the result cache
// up again, in process and over HTTP. The service is left closed.
func (b *serveBench) tierProbes(tr *tracer, m layerMetrics) (attempted, failed int, err error) {
	if err := b.restart(false); err != nil {
		return 0, 0, err
	}
	root := tr.begin(0, -1, "walk.tiers")
	defer tr.end(root)
	lookup := func(name string, i int) {
		s := tr.begin(root, i, name)
		it, err := b.svc.srv.Lookup(b.c.addrs[i])
		tr.end(s)
		attempted++
		if err != nil || !b.c.want[i].matches(b.c.addrs[i], it) {
			failed++
		}
	}
	n := len(b.c.addrs)
	for i := 0; i < n; i++ {
		lookup("serve.lookup_warm_miss", i)
	}
	if emu := b.svc.counters()["emulations"]; emu != 0 {
		return 0, 0, fmt.Errorf("%d emulations on a store-seeded server, want 0", emu)
	}
	resident := 0
	if n > resultLRU {
		resident = n - resultLRU
	}
	for i := resident; i < n; i++ {
		lookup("serve.lookup_hit", i)
	}
	cl := &client{http: b.svc.ts.Client()}
	for i := resident; i < n; i++ {
		s := tr.begin(root, i, "serve.http_hit")
		ok := cl.get(b.svc.ts.URL, b.c, b.hex, i)
		tr.end(s)
		attempted++
		if !ok {
			failed++
		}
	}
	err = b.svc.close()
	b.svc = nil
	return attempted, failed, err
}
