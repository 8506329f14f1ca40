package serve

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/faultchain"
	"repro/internal/proxion"
	"repro/internal/store"
)

// These tests pin what the server gained by owning one detector and
// analyzing on the asking goroutine: no request waits behind another
// address, a bytecode is emulated once whatever the bound, the engine's
// reader counters are live, and neither a panicking analysis nor a shutdown
// strands a caller.

// lookupWithin fails the test if the lookup has not returned in time: the
// failure mode under test is a hang.
func lookupWithin(t *testing.T, srv *Server, addr etypes.Address, limit time.Duration) (proxion.Item, error) {
	t.Helper()
	type result struct {
		it  proxion.Item
		err error
	}
	done := make(chan result, 1)
	go func() {
		it, err := srv.Lookup(addr)
		done <- result{it, err}
	}()
	select {
	case r := <-done:
		return r.it, r.err
	case <-time.After(limit):
		t.Fatalf("Lookup(%s) still waiting after %v", addr.Hex(), limit)
		return proxion.Item{}, nil
	}
}

// TestStuckAnalysisStallsNoOtherAddress holds the first Code read of one
// address open and requires every other address to answer. When requests
// were routed to per-shard streams that emit in request order, the half of
// the corpus sharing the stuck contract's shard never answered.
func TestStuckAnalysisStallsNoOtherAddress(t *testing.T) {
	c := testCorpus(t, 43, 32)
	g := newGatedReader(t, c)
	srv, err := New(Config{Reader: g, Sources: c.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	defer g.release()

	stuck := make(chan error, 1)
	go func() {
		_, err := srv.Lookup(g.addr)
		stuck <- err
	}()
	<-g.entered
	g.armed.Store(false) // later reads of the address pass; the first stays held

	for _, a := range c.Chain.Contracts() {
		if a == g.addr {
			continue
		}
		if _, err := lookupWithin(t, srv, a, 30*time.Second); err != nil {
			t.Fatalf("Lookup(%s): %v", a.Hex(), err)
		}
	}
	g.release()
	if err := <-stuck; err != nil {
		t.Fatalf("released lookup: %v", err)
	}
}

// TestEmulationsIndependentOfBound: Config.Shards bounds concurrency and
// partitions nothing, so the corpus costs a lone detector's emulations at
// every value. Per-shard detectors each met every popular bytecode anew:
// 51 / 53 / 63 emulations at 1 / 2 / 4 shards on this corpus.
func TestEmulationsIndependentOfBound(t *testing.T) {
	c := testCorpus(t, 43, 64)
	addrs := c.Chain.Contracts()
	want := proxion.NewDetector(c.Chain).AnalyzeStream(proxion.SliceSource(addrs), c.Registry,
		proxion.SinkFunc(func(proxion.Item) {}), proxion.AnalyzeOptions{}).Emulations
	if want == 0 || want >= int64(len(addrs)) {
		t.Fatalf("%d emulations for %d addresses: the corpus has no duplicate to share", want, len(addrs))
	}
	for _, shards := range []int{1, 2, 4} {
		srv, _ := newTestServer(t, c, Config{Shards: shards})
		for _, a := range addrs {
			if _, err := srv.Lookup(a); err != nil {
				t.Fatalf("Lookup: %v", err)
			}
		}
		if got := srv.Stats().Shards[0].Summary.Pipeline.Emulations; got != want {
			t.Errorf("Shards %d: %d emulations, one detector needs %d", shards, got, want)
		}
	}
}

// TestStatsReaderCountersAreLive: a running server reports its reader's own
// counters — here the re-attempts of a resilient client over a fault
// schedule, the count an AnalyzeStream over the same addresses folds in at
// its end — without waiting for a Close that, for a daemon, never comes.
func TestStatsReaderCountersAreLive(t *testing.T) {
	c := testCorpus(t, 19, 40)
	addrs := c.Chain.Contracts()
	// Faults are keyed by the read, so two clients over one schedule retry
	// the same reads the same number of times.
	faulty := func() chain.Reader {
		sched := faultchain.NewSchedule(faultchain.ErrorBurst(), 19)
		cl, _ := faultchain.NewResilientReader(c.Chain, &sched, faultchain.Options{
			BackoffBase: 20 * time.Microsecond, BackoffMax: 200 * time.Microsecond})
		return cl
	}
	want := proxion.NewDetector(faulty()).AnalyzeStream(proxion.SliceSource(addrs), c.Registry,
		proxion.SinkFunc(func(proxion.Item) {}), proxion.AnalyzeOptions{}).Counters()
	if want["read_retries"] == 0 {
		t.Fatal("the reference stream retried no read; the test is vacuous")
	}
	srv, err := New(Config{Reader: faulty(), Sources: c.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	for _, a := range addrs {
		if _, err := srv.Lookup(a); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	got := srv.Stats().Shards[0].Summary.Pipeline.Counters()
	for k, v := range want {
		if !strings.HasPrefix(k, "stage_") && got[k] != v {
			t.Errorf("%s = %d on the running server, %d from the stream", k, got[k], v)
		}
	}
}

// TestPanickingLeaderReleasesWaiters: an analysis that panics with anything
// but a read failure is a bug somewhere below the server, which must still
// answer the goroutine that led it and everyone coalesced onto it, with an
// error, and forget the flight entry so the address can be asked again.
func TestPanickingLeaderReleasesWaiters(t *testing.T) {
	const waiters = 4
	c := testCorpus(t, 43, 16)
	g := newGatedReader(t, c)
	g.boom.Store(true)
	srv, err := New(Config{Reader: g, Sources: c.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	defer g.release()

	errs := make(chan error, 1+waiters)
	lookup := func() {
		_, err := srv.Lookup(g.addr)
		errs <- err
	}
	go lookup()
	<-g.entered
	for i := 0; i < waiters; i++ {
		go lookup()
	}
	for deadline := time.Now().Add(30 * time.Second); srv.Counters().Coalesced < waiters; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined the flight", srv.Counters().Coalesced, waiters)
		}
	}
	g.release()
	for i := 0; i < 1+waiters; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Errorf("caller %d got error %v, want the panic reported", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("caller %d of a panicked analysis never answered", i)
		}
	}
	srv.flightMu.Lock()
	left := len(srv.flight)
	srv.flightMu.Unlock()
	if left != 0 {
		t.Fatalf("%d flight entries left behind", left)
	}

	g.armed.Store(false)
	if it, err := lookupWithin(t, srv, g.addr, 30*time.Second); err != nil || !it.Report.IsProxy {
		t.Fatalf("lookup after the panic: proxy=%v, err %v", it.Report.IsProxy, err)
	}
}

// TestCloseWaitsForInFlightAndPersists: Close lets an analysis that began
// before it finish — its caller gets the item, the store gets the verdict —
// while a lookup that would start one afterwards gets the shut-down error,
// and the reopened store holds everything that was answered.
func TestCloseWaitsForInFlightAndPersists(t *testing.T) {
	c := testCorpus(t, 43, 16)
	g := newGatedReader(t, c)
	dir := t.TempDir()
	srv, err := New(Config{Reader: g, Sources: c.Registry, Shards: 2, StoreDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g.release()
	var other etypes.Address
	for _, a := range c.Chain.Contracts() {
		if a != g.addr {
			other = a
		}
	}

	pinned := make(chan error, 1)
	go func() {
		it, err := srv.Lookup(g.addr)
		if err == nil && !it.Report.IsProxy {
			err = errors.New("drained analysis returned a non-proxy item")
		}
		pinned <- err
	}()
	<-g.entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Once Close has marked the server, a lookup that needs an analysis
	// fails fast; until then it may still be served.
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		if _, err := lookupWithin(t, srv, other, 30*time.Second); err != nil {
			if !errors.Is(err, errShutDown) {
				t.Fatalf("lookup during shutdown: %v, want the shut-down error", err)
			}
			break
		}
		srv.results.Remove(other) // ask for an analysis again
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the server closed")
		}
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with an analysis in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	g.release()
	if err := <-pinned; err != nil {
		t.Fatalf("lookup in flight across Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if _, ok, err := st.Get(c.Chain.CodeHash(g.addr)); err != nil || !ok {
		t.Fatalf("the drained analysis's verdict is not in the reopened store (ok=%v, err %v)", ok, err)
	}
}
