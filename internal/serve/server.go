// Package serve turns the analysis engine into a long-running query
// service: proxiond's core. A Server owns one Detector, analyzes each queried
// address on the goroutine that asked (at most Config.Shards analyses at
// once), coalesces concurrent identical queries into one analysis, and
// persists every verdict-cache entry to a disk store so a restarted server
// answers from its accumulated knowledge without re-emulating.
//
// The request path, front to back:
//
//	HTTP handler → result cache (hit: no analysis at all)
//	            → single-flight table (duplicate in flight: wait, don't analyze)
//	            → Detector.AnalyzeAddress, on this goroutine
//	            → verdict store + result cache + waiter wake-up
//
// Both caches make the coalescing guarantee deterministic: K concurrent
// queries for one address cost exactly one analysis, and any later query
// for it costs zero. DESIGN.md "Service architecture" has the orderings
// this rests on.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/lru"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/store"
)

// resultCacheSize bounds the analyzed-item LRU, in addresses.
const resultCacheSize = 4096

// Config assembles a Server. Reader is required; everything else has
// serviceable defaults.
type Config struct {
	// Reader is the node surface the server's detector analyzes.
	Reader chain.Reader
	// Sources optionally provides contract source for collision analysis.
	Sources proxion.SourceProvider
	// Shards is how many analyses the server runs at once; zero means
	// GOMAXPROCS, as proxion.AnalyzeOptions.Workers. It is a safety bound —
	// a 65,536-address batch is 65,536 goroutines, and only this keeps them
	// from emulating all at once — not a partition: every analysis shares
	// the one detector and its per-bytecode caches. (The name is the
	// benchmark's, from when the server was sharded.)
	Shards int
	// StoreDir, when non-empty, persists verdicts to a disk store and
	// re-seeds the detector's verdict cache from it on startup.
	StoreDir string
	// StoreOptions tunes the verdict store.
	StoreOptions store.Options
	// CacheCapacity bounds the detector's per-bytecode caches (see
	// proxion.AnalyzeOptions).
	CacheCapacity int
}

// Counters are the server-level request statistics.
type Counters struct {
	// Requests counts verdict lookups (batch entries count individually).
	Requests int64 `json:"requests"`
	// ResultCacheHits counts lookups answered from the analyzed-item LRU.
	ResultCacheHits int64 `json:"result_cache_hits"`
	// Coalesced counts lookups that joined an identical in-flight analysis.
	Coalesced int64 `json:"coalesced"`
	// Analyses counts items actually analyzed.
	Analyses int64 `json:"analyses"`
}

// Server is the scan service. Create with New, serve its Handler(), Close
// when done.
type Server struct {
	cfg      Config
	st       *store.Store // nil when persistence is off
	detector *proxion.Detector
	opts     proxion.AnalyzeOptions
	// stats is the engine counter set every analysis updates, readable live;
	// base is the reader's own counters at New.
	stats pipeline.Stats
	base  proxion.ReaderCounters
	// slots holds one token per analysis allowed to run at once.
	slots chan struct{}

	// flight is the single-flight table: at most one analysis per address
	// is in flight at a time; later arrivals wait on the first. closed and
	// every analyzing.Add are under flightMu too, which is what lets Close
	// wait for exactly the analyses that began before it.
	flightMu  sync.Mutex
	flight    map[etypes.Address]*call
	closed    bool
	analyzing sync.WaitGroup

	// results is the LRU of finalized items by address — the reason a
	// repeat query (or the K-1 losers of a coalesced burst arriving late)
	// never analyzes again.
	results *lru.Cache[etypes.Address, proxion.Item]

	summaryMu sync.Mutex
	summary   *proxion.SummaryBuilder

	requests  atomic.Int64
	cacheHits atomic.Int64
	coalesced atomic.Int64
	analyses  atomic.Int64

	// watchStats holds the follower stats callback (func() any) served by
	// /v1/watch/stats; nil until SetWatchStats.
	watchStats atomic.Value
}

// call is one in-flight analysis and everyone waiting on it.
type call struct {
	done chan struct{}
	item proxion.Item
	err  error
}

var errShutDown = errors.New("serve: server is shut down")

// New builds the server, opens (and replays) the verdict store and seeds
// the detector's verdict cache from it, so the first post-restart query for
// a known bytecode is a cache hit, not an emulation.
func New(cfg Config) (*Server, error) {
	if cfg.Reader == nil {
		return nil, fmt.Errorf("serve: Config.Reader required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:      cfg,
		detector: proxion.NewDetector(cfg.Reader),
		slots:    make(chan struct{}, cfg.Shards),
		flight:   make(map[etypes.Address]*call),
		results:  lru.New[etypes.Address, proxion.Item](resultCacheSize),
		summary:  proxion.NewSummaryBuilder(),
	}
	s.opts = proxion.AnalyzeOptions{
		CacheCapacity: cfg.CacheCapacity,
		Stats:         &s.stats,
	}
	s.base = s.detector.ReaderCounters()
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreOptions)
		if err != nil {
			return nil, err
		}
		seed, err := st.Entries()
		if err != nil {
			st.Close()
			return nil, err
		}
		s.st = st
		s.detector.ImportVerdicts(seed)
	}
	return s, nil
}

// Lookup analyzes one address (or serves it from cache / an in-flight
// twin) and returns its finalized item. Safe for arbitrary concurrency.
func (s *Server) Lookup(addr etypes.Address) (proxion.Item, error) {
	s.requests.Add(1)
	if it, ok := s.results.Get(addr); ok {
		s.cacheHits.Add(1)
		return it, nil
	}

	s.flightMu.Lock()
	c, waiting := s.flight[addr]
	if !waiting {
		// Re-check the result cache under flightMu: lead publishes to the
		// cache before it clears the flight entry, so a caller that lost a
		// whole analysis between its first cache miss and here finds the
		// result now instead of starting a duplicate analysis — the ordering
		// that makes "K concurrent queries, exactly one analysis" exact.
		if it, ok := s.results.Get(addr); ok {
			s.flightMu.Unlock()
			s.coalesced.Add(1)
			return it, nil
		}
		if s.closed {
			s.flightMu.Unlock()
			return proxion.Item{}, errShutDown
		}
		c = &call{done: make(chan struct{})}
		s.flight[addr] = c
		s.analyzing.Add(1)
	}
	s.flightMu.Unlock()

	if waiting {
		s.coalesced.Add(1)
		<-c.done // a waiter holds no slot
	} else {
		s.lead(addr, c)
	}
	return c.item, c.err
}

// lead runs the analysis its caller holds the flight entry for, on the
// caller's goroutine: persist the verdict-cache entry, fold the summary,
// publish to the result cache — and then, on every exit path, clear the
// flight entry and wake the waiters. A panic that is not a read failure
// (those degrade the item to Unresolved inside the detector) is a bug; it
// becomes this call's error instead of stranding the waiters or taking the
// process down.
func (s *Server) lead(addr etypes.Address, c *call) {
	defer s.analyzing.Done()
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("serve: analysis of %s panicked: %v", addr.Hex(), p)
		}
		s.flightMu.Lock()
		delete(s.flight, addr)
		s.flightMu.Unlock()
		close(c.done)
	}()
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	it := s.detector.AnalyzeAddress(addr, s.cfg.Sources, s.opts)
	s.analyses.Add(1)
	s.persist(addr)
	s.summaryMu.Lock()
	s.summary.Emit(it)
	s.summaryMu.Unlock()
	s.results.Put(addr, it)
	c.item = it
}

// persist appends the address's (now recorded) verdict-cache entry to the
// store. A store write failure is not fatal — the verdict is still served
// from memory, it just won't survive a restart.
func (s *Server) persist(addr etypes.Address) {
	if s.st == nil {
		return
	}
	if ent, ok := s.detector.ExportVerdict(addr); ok {
		_ = s.st.Put(ent) // byte-identical re-puts are skipped inside the store
	}
}

// Analyze runs a batch of addresses and returns one finalized item per
// address, in input order. It is Lookup in a loop — every entry gets the
// full result-cache / single-flight / persistence treatment — and together
// with Invalidate it makes the server a drop-in analysis backend for a
// watch.Follower.
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

// Invalidate drops the cached verdicts derived from addr's current bytecode
// that an upgrade can have made stale — the result-cache entry always, the
// detector's two tiers unless they re-anchor (proxion.Detector.Invalidate)
// — and returns how many it dropped. An analysis of addr already in flight
// is waited out first: it publishes to the result cache before clearing the
// flight table, so the removal below also covers that publication and an
// upgrade racing a mid-analysis lookup can never leave a pre-upgrade verdict
// behind. The persistent store is left alone; the re-analysis that follows
// supersedes its entry (append-only, last record wins).
func (s *Server) Invalidate(addr etypes.Address) (int, error) {
	s.flightMu.Lock()
	c := s.flight[addr]
	s.flightMu.Unlock()
	if c != nil {
		<-c.done
	}
	n, err := s.detector.Invalidate(addr)
	if s.results.Remove(addr) {
		n++
	}
	return n, err
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

// Close refuses new analyses — lookups that would start one fail fast from
// here on — waits for those in flight, which persist as usual, and then
// closes the verdict store.
func (s *Server) Close() error {
	s.flightMu.Lock()
	already := s.closed
	s.closed = true
	s.flightMu.Unlock()
	if already {
		return nil
	}
	s.analyzing.Wait()
	if s.st != nil {
		return s.st.Close()
	}
	return nil
}
