// Package serve turns the streaming analysis engine into a long-running
// query service: proxiond's core. A Server owns N shard pipelines — each
// a persistent AnalyzeStream whose address source is a request channel
// instead of a corpus — routes verdict queries to shards by address,
// coalesces concurrent identical queries into one engine analysis, and
// persists every verdict-cache entry to a disk store so a restarted
// server answers from its accumulated knowledge without re-emulating.
//
// The request path, front to back:
//
//	HTTP handler → result cache (hit: no engine work at all)
//	            → single-flight table (duplicate in flight: wait, don't re-enter)
//	            → shard request channel → AnalyzeStream → sink
//	            → result cache + verdict store + waiter wake-up
//
// Both caches make the coalescing guarantee deterministic: K concurrent
// queries for one address cost exactly one engine analysis, and any later
// query for it costs zero.
package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/static"
	"repro/internal/store"
)

// Config assembles a Server. Reader (or ReaderFor) is required; everything
// else has serviceable defaults.
type Config struct {
	// Reader is the node surface every shard analyzes, shared. Ignored
	// when ReaderFor is set.
	Reader chain.Reader
	// ReaderFor, when set, supplies each shard its own reader — how a
	// deployment gives every shard an independent resilient client so one
	// shard's circuit breaker does not gate the others.
	ReaderFor func(shard int) chain.Reader
	// Sources optionally provides contract source for collision analysis.
	Sources proxion.SourceProvider
	// Shards is the number of parallel analysis pipelines (default 4).
	Shards int
	// StoreDir, when non-empty, persists verdicts to a disk store and
	// re-seeds every shard's verdict cache from it on startup.
	StoreDir string
	// StoreOptions tunes the verdict store.
	StoreOptions store.Options
	// Window and CacheCapacity tune each shard's engine (see
	// proxion.AnalyzeOptions). The window also bounds how many requests a
	// shard holds in flight.
	Window        int
	CacheCapacity int
	// ResultCacheSize bounds the per-server analyzed-item LRU (default
	// 4096 addresses).
	ResultCacheSize int
	// WithHistory enables the logic-history stage in every shard.
	WithHistory bool
	// DisableStructural turns off structural near-clone promotion in every
	// shard's engine (see proxion.AnalyzeOptions.DisableStructural).
	DisableStructural bool
}

// Counters are the server-level request statistics.
type Counters struct {
	// Requests counts verdict lookups (batch entries count individually).
	Requests int64 `json:"requests"`
	// ResultCacheHits counts lookups answered from the analyzed-item LRU.
	ResultCacheHits int64 `json:"result_cache_hits"`
	// Coalesced counts lookups that joined an identical in-flight analysis.
	Coalesced int64 `json:"coalesced"`
	// Analyses counts items actually analyzed by shard engines.
	Analyses int64 `json:"analyses"`
}

// Server is the sharded scan service. Create with New, serve its
// Handler(), Close when done.
type Server struct {
	cfg    Config
	st     *store.Store // nil when persistence is off
	shards []*shard

	// flight is the single-flight table: at most one engine analysis per
	// address is in flight at a time; later arrivals wait on the first.
	flightMu sync.Mutex
	flight   map[etypes.Address]*call

	results *resultCache

	requests  atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	analyses  atomic.Int64

	// watchStats holds the follower stats callback (func() any) served by
	// /v1/watch/stats; nil until SetWatchStats.
	watchStats atomic.Value

	// closeMu orders lookups against Close: lookups hold it shared while
	// enqueueing (never while waiting), Close holds it exclusively while
	// closing the request channels, so no enqueue can race a closed shard.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

// call is one in-flight analysis and everyone waiting on it.
type call struct {
	done chan struct{}
	item proxion.Item
	err  error
}

// shard is one persistent analysis pipeline: a request channel feeding a
// long-lived AnalyzeStream whose sink routes finished items back to their
// calls, folds the shard summary, and persists verdict-cache entries.
type shard struct {
	id       int
	reader   chain.Reader
	detector *proxion.Detector
	reqCh    chan etypes.Address

	// pending maps an enqueued address to its call. Guarded by mu, as is
	// the summary builder (Emit is serial per shard, but /v1/stats reads
	// concurrently).
	mu      sync.Mutex
	pending map[etypes.Address]*call
	summary *proxion.SummaryBuilder

	// stats is the externally-owned engine counter set, readable live.
	stats pipeline.Stats
	// snap is the final engine snapshot, set when the shard drains.
	snap *pipeline.Snapshot
}

// New builds the server, opens (and replays) the verdict store, seeds
// every shard's cache from it, and starts the shard pipelines.
func New(cfg Config) (*Server, error) {
	if cfg.Reader == nil && cfg.ReaderFor == nil {
		return nil, fmt.Errorf("serve: Config.Reader or ReaderFor required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.ResultCacheSize <= 0 {
		cfg.ResultCacheSize = 4096
	}
	s := &Server{
		cfg:     cfg,
		flight:  make(map[etypes.Address]*call),
		results: newResultCache(cfg.ResultCacheSize),
	}

	var seed []proxion.CacheEntry
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreOptions)
		if err != nil {
			return nil, err
		}
		s.st = st
		if seed, err = st.Entries(); err != nil {
			st.Close()
			return nil, err
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		rd := cfg.Reader
		if cfg.ReaderFor != nil {
			rd = cfg.ReaderFor(i)
		}
		sh := &shard{
			id:       i,
			reader:   rd,
			detector: proxion.NewDetector(rd),
			reqCh:    make(chan etypes.Address, 64),
			pending:  make(map[etypes.Address]*call),
			summary:  proxion.NewSummaryBuilder(),
		}
		// Warm start: every shard re-learns all persisted verdicts, so the
		// first post-restart query for a known bytecode is a cache hit, not
		// an emulation.
		sh.detector.ImportVerdicts(seed)
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.runShard(sh)
	}
	return s, nil
}

// runShard drives one shard's AnalyzeStream for the server's lifetime.
// The stream ends when the request channel closes (Close drains it:
// buffered requests are still analyzed before a worker sees the close).
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	src := proxion.SourceFunc(func() (etypes.Address, bool) {
		addr, ok := <-sh.reqCh
		return addr, ok
	})
	sink := proxion.SinkFunc(func(it proxion.Item) { s.finish(sh, it) })
	snap := sh.detector.AnalyzeStream(src, s.cfg.Sources, sink, proxion.AnalyzeOptions{
		Window:            s.cfg.Window,
		CacheCapacity:     s.cfg.CacheCapacity,
		WithHistory:       s.cfg.WithHistory,
		DisableStructural: s.cfg.DisableStructural,
		Stats:             &sh.stats,
	})
	sh.mu.Lock()
	sh.snap = snap
	sh.mu.Unlock()
}

// finish lands one analyzed item: persist its verdict-cache entry, fold
// the shard summary, publish to the result cache, wake the waiters.
func (s *Server) finish(sh *shard, it proxion.Item) {
	s.analyses.Add(1)
	s.persist(sh, it.Report.Address)

	sh.mu.Lock()
	sh.summary.Emit(it)
	c := sh.pending[it.Report.Address]
	delete(sh.pending, it.Report.Address)
	sh.mu.Unlock()

	s.results.add(it.Report.Address, it)

	s.flightMu.Lock()
	delete(s.flight, it.Report.Address)
	s.flightMu.Unlock()

	if c != nil {
		c.item = it
		close(c.done)
	}
}

// persist appends the address's (now recorded) verdict-cache entry to the
// store. Emission happens-after recording, so the export here observes the
// complete entry; a store write failure is counted, not fatal — the
// verdict is still served from memory, it just won't survive a restart.
func (s *Server) persist(sh *shard, addr etypes.Address) {
	if s.st == nil {
		return
	}
	var codeHash etypes.Hash
	if re := chain.CaptureReadError(func() { codeHash = sh.reader.CodeHash(addr) }); re != nil {
		return
	}
	ent, ok := sh.detector.ExportVerdict(codeHash)
	if !ok {
		return
	}
	_ = s.st.Put(ent) // byte-identical re-puts are skipped inside the store
}

// shardFor routes an address to its owning shard (stable FNV-1a hash).
func (s *Server) shardFor(addr etypes.Address) *shard {
	h := fnv.New32a()
	h.Write(addr[:])
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Lookup analyzes one address (or serves it from cache / an in-flight
// twin) and returns its finalized item. Safe for arbitrary concurrency.
func (s *Server) Lookup(addr etypes.Address) (proxion.Item, error) {
	s.requests.Add(1)

	if it, ok := s.results.get(addr); ok {
		s.cacheHits.Add(1)
		return it, nil
	}

	c, leader, err := s.join(addr)
	if err != nil {
		return proxion.Item{}, err
	}
	if !leader {
		s.coalesced.Add(1)
	}
	<-c.done
	return c.item, c.err
}

// join returns the in-flight call for addr, creating (and dispatching) it
// if absent. leader reports whether this caller started the analysis.
func (s *Server) join(addr etypes.Address) (c *call, leader bool, err error) {
	s.flightMu.Lock()
	if existing, ok := s.flight[addr]; ok {
		s.flightMu.Unlock()
		return existing, false, nil
	}
	// Re-check the result cache under flightMu: finish publishes to the
	// cache before it clears the flight entry, so a caller that lost a
	// whole analysis between its first cache miss and here finds the
	// result now instead of starting a duplicate analysis — the ordering
	// that makes "K concurrent queries, exactly one analysis" exact.
	if it, ok := s.results.get(addr); ok {
		s.flightMu.Unlock()
		done := &call{done: make(chan struct{}), item: it}
		close(done.done)
		return done, false, nil
	}
	c = &call{done: make(chan struct{})}
	s.flight[addr] = c
	s.flightMu.Unlock()

	// Between the flight insert above and the enqueue below the result
	// cache cannot satisfy addr, so every concurrent caller lands on c.
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		s.flightMu.Lock()
		delete(s.flight, addr)
		s.flightMu.Unlock()
		c.err = fmt.Errorf("serve: server is shut down")
		close(c.done)
		return c, true, c.err
	}
	sh := s.shardFor(addr)
	sh.mu.Lock()
	sh.pending[addr] = c
	sh.mu.Unlock()
	sh.reqCh <- addr
	s.closeMu.RUnlock()
	return c, true, nil
}

// Analyze runs a batch of addresses through the shard pipelines and
// returns one finalized item per address, in input order. It is Lookup in
// a loop — every entry gets the full result-cache / single-flight /
// persistence treatment — and together with Invalidate it makes the
// server a drop-in analysis backend for a watch.Follower.
func (s *Server) Analyze(addrs []etypes.Address) ([]proxion.Item, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	items := make([]proxion.Item, 0, len(addrs))
	for _, addr := range addrs {
		it, err := s.Lookup(addr)
		if err != nil {
			return items, err
		}
		items = append(items, it)
	}
	return items, nil
}

// Invalidate drops every cached verdict derived from addr's current
// bytecode — the server result-cache entry, the owning shard's exact-hash
// verdict, and its structural family — and returns how many tiers held
// one. An analysis of addr already in flight is waited out first: finish
// publishes to the result cache before clearing the flight table, so the
// removal below also covers that publication and an upgrade racing a
// mid-analysis lookup can never leave a pre-upgrade verdict behind. The
// persistent store is left alone; the re-analysis that follows supersedes
// its entry (append-only, last record wins).
func (s *Server) Invalidate(addr etypes.Address) (int, error) {
	s.flightMu.Lock()
	c := s.flight[addr]
	s.flightMu.Unlock()
	if c != nil {
		<-c.done
	}
	n := 0
	if s.results.remove(addr) {
		n++
	}
	sh := s.shardFor(addr)
	re := chain.CaptureReadError(func() {
		if sh.detector.InvalidateVerdict(sh.reader.CodeHash(addr)) {
			n++
		}
		if code := sh.reader.Code(addr); len(code) > 0 {
			if sh.detector.InvalidateStructural(static.Fingerprint(code)) {
				n++
			}
		}
	})
	if re != nil {
		return n, re
	}
	return n, nil
}

// SetWatchStats wires a follower's stats snapshot into the HTTP surface:
// the /v1/watch/stats endpoint serves whatever the callback returns.
// Keeping this an injected callback (rather than a serve → watch import)
// leaves the layering one-directional.
func (s *Server) SetWatchStats(fn func() any) {
	s.watchStats.Store(fn)
}

// watchStatsFn returns the wired callback, nil when none.
func (s *Server) watchStatsFn() func() any {
	fn, _ := s.watchStats.Load().(func() any)
	return fn
}

// Counters returns the server-level request statistics.
func (s *Server) Counters() Counters {
	return Counters{
		Requests:        s.requests.Load(),
		ResultCacheHits: s.cacheHits.Load(),
		Coalesced:       s.coalesced.Load(),
		Analyses:        s.analyses.Load(),
	}
}

// StoreStats returns the verdict store's statistics (zero when
// persistence is off).
func (s *Server) StoreStats() store.Stats {
	if s.st == nil {
		return store.Stats{}
	}
	return s.st.Stats()
}

// Close drains the shards — requests already enqueued are analyzed and
// persisted — then closes the verdict store. Lookups arriving after Close
// fail fast.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.reqCh)
	}
	s.closeMu.Unlock()

	s.wg.Wait()
	if s.st != nil {
		return s.st.Close()
	}
	return nil
}

// resultCache is a small LRU of finalized items keyed by address — the
// reason a repeat query (or the K-1 losers of a coalesced burst arriving
// late) never re-enters the engine.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	m     map[etypes.Address]*resultNode
	head  *resultNode // most recent
	tail  *resultNode // least recent
	count int
}

type resultNode struct {
	addr       etypes.Address
	item       proxion.Item
	prev, next *resultNode
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[etypes.Address]*resultNode)}
}

func (rc *resultCache) get(addr etypes.Address) (proxion.Item, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n, ok := rc.m[addr]
	if !ok {
		return proxion.Item{}, false
	}
	rc.moveToFront(n)
	return n.item, true
}

func (rc *resultCache) add(addr etypes.Address, it proxion.Item) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if n, ok := rc.m[addr]; ok {
		n.item = it
		rc.moveToFront(n)
		return
	}
	n := &resultNode{addr: addr, item: it}
	rc.m[addr] = n
	rc.pushFront(n)
	rc.count++
	if rc.count > rc.cap {
		evict := rc.tail
		rc.unlink(evict)
		delete(rc.m, evict.addr)
		rc.count--
	}
}

// remove drops addr's cached item, reporting whether one was present —
// the invalidation path for upgrade events.
func (rc *resultCache) remove(addr etypes.Address) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n, ok := rc.m[addr]
	if !ok {
		return false
	}
	rc.unlink(n)
	delete(rc.m, addr)
	rc.count--
	return true
}

func (rc *resultCache) pushFront(n *resultNode) {
	n.next = rc.head
	if rc.head != nil {
		rc.head.prev = n
	}
	rc.head = n
	if rc.tail == nil {
		rc.tail = n
	}
}

func (rc *resultCache) unlink(n *resultNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		rc.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		rc.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (rc *resultCache) moveToFront(n *resultNode) {
	if rc.head == n {
		return
	}
	rc.unlink(n)
	rc.pushFront(n)
}
