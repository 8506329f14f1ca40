package serve

import (
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/watch"
)

// gatedReader blocks Code reads for one address while armed, signalling
// entry — how the tests here and in onedetector_test.go pin an analysis
// mid-flight. With boom set, a read it held panics on release, and not with
// a *chain.ReadError: a bug, as far as the server can tell.
type gatedReader struct {
	chain.Reader
	addr    etypes.Address
	armed   atomic.Bool
	boom    atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

// release opens the gate, once: tests defer it ahead of Server.Close, which
// waits for the analysis the gate holds.
func (g *gatedReader) release() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedReader) Code(a etypes.Address) []byte {
	if a == g.addr && g.armed.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
		if g.boom.Load() {
			panic("gatedReader: boom")
		}
	}
	return g.Reader.Code(a)
}

// newGatedReader gates c's first detectable proxy — an address nothing else
// delegates to, so only its own analysis reads its code — and arms it.
func newGatedReader(t *testing.T, c *gen.Corpus) *gatedReader {
	t.Helper()
	for _, l := range c.Labels {
		if l.Detectable {
			g := &gatedReader{Reader: c.Chain, addr: l.Address, entered: make(chan struct{}, 1), gate: make(chan struct{})}
			g.armed.Store(true)
			return g
		}
	}
	t.Fatal("corpus has no detectable proxy")
	return nil
}

// TestInvalidateWaitsOutInFlight pins the upgrade-while-mid-analysis
// ordering: an Invalidate racing an in-flight analysis of the same address
// must wait that analysis out and then remove everything it published, so
// no pre-upgrade result survives, and the next lookup re-enters the
// engine. The detector keeps the storage proxy's verdict, which re-anchors
// to the rewritten slot; the result the analysis published is what must go.
func TestInvalidateWaitsOutInFlight(t *testing.T) {
	c := testCorpus(t, 31, 16)
	var target *gen.Label
	for _, l := range c.Labels {
		if l.Detectable && l.TargetStorage {
			target = l
			break
		}
	}
	if target == nil {
		t.Fatalf("corpus has no upgradeable proxy")
	}

	g := &gatedReader{
		Reader:  c.Chain,
		addr:    target.Address,
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	g.armed.Store(true)
	srv, err := New(Config{Reader: g, Sources: c.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	lookupDone := make(chan error, 1)
	go func() {
		_, err := srv.Lookup(target.Address)
		lookupDone <- err
	}()
	<-g.entered // the analysis is now pinned inside the engine

	// The upgrade lands while the pair is mid-analysis.
	clone := etypes.Address{0xc1, 0x0e}
	c.Chain.AdvanceBlocks(1)
	c.Chain.InstallContract(clone, c.Chain.Code(target.Logic))
	c.Chain.SetStorageDirect(target.Address, target.ImplSlot, etypes.HashFromWord(clone.Word()))

	invDone := make(chan int, 1)
	g.armed.Store(false) // Invalidate's own Code read must pass
	go func() {
		n, err := srv.Invalidate(target.Address)
		if err != nil {
			t.Errorf("Invalidate: %v", err)
		}
		invDone <- n
	}()
	select {
	case <-invDone:
		t.Fatalf("Invalidate returned while the analysis was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(g.gate) // release the pinned analysis
	if err := <-lookupDone; err != nil {
		t.Fatalf("pinned lookup failed: %v", err)
	}
	n := <-invDone
	if n < 1 {
		t.Fatalf("Invalidate dropped %d tier(s); the in-flight publication makes at least 1", n)
	}

	before := srv.Counters().Analyses
	it, err := srv.Lookup(target.Address)
	if err != nil {
		t.Fatalf("post-invalidate lookup: %v", err)
	}
	if got := srv.Counters().Analyses; got != before+1 {
		t.Fatalf("post-invalidate lookup was served from a cache (%d -> %d analyses)", before, got)
	}
	if it.Report.Logic != clone {
		t.Fatalf("post-invalidate verdict delegates to %v, upgrade installed %v", it.Report.Logic.Hex(), clone.Hex())
	}
}

// TestServerAsFollowerBackend drives a watch.Follower with the Server as
// its Analyzer — the exact wiring proxiond -follow uses. Every scripted
// upgrade must surface as an event, the same event the standalone
// follower (proxwatch's watch.NewDetectorAnalyzer) delivers, and afterwards
// the server must answer from caches that reflect the post-upgrade world,
// including for the beacon proxy whose own storage never changed.
func TestServerAsFollowerBackend(t *testing.T) {
	tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: 10})
	srv, err := New(Config{Reader: tl.Chain, Sources: tl.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	follow := func(an watch.Analyzer) []watch.UpgradeEvent {
		var events []watch.UpgradeEvent
		f, err := watch.New(watch.Config{
			Reader:    tl.Chain,
			Analyzer:  an,
			OnUpgrade: func(ev watch.UpgradeEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatalf("watch.New: %v", err)
		}
		if err := f.Poll(); err != nil {
			t.Fatalf("poll: %v", err)
		}
		return events
	}
	events := follow(srv)
	standalone := follow(watch.NewDetectorAnalyzer(proxion.NewDetector(tl.Chain), tl.Registry, nil))
	if len(standalone) != len(events) {
		t.Fatalf("standalone follower delivered %d events, server-backed %d", len(standalone), len(events))
	}
	for i, ev := range events {
		sa := standalone[i]
		if ev.Item == nil || sa.Item == nil || !reflect.DeepEqual(*ev.Item, *sa.Item) {
			t.Fatalf("event %d: server-backed item %+v, standalone %+v", i, ev.Item, sa.Item)
		}
		ev.Item, sa.Item = nil, nil
		if ev != sa {
			t.Fatalf("event %d: server-backed %+v, standalone %+v", i, ev, sa)
		}
	}

	scripted := 0
	for _, ev := range tl.Events {
		if !ev.Deploy {
			scripted++
		}
	}
	if len(events) != scripted {
		t.Fatalf("%d events for %d scripted upgrades", len(events), scripted)
	}
	for _, tp := range tl.Proxies {
		final := tp.Steps[len(tp.Steps)-1].Logic
		it, err := srv.Lookup(tp.Address)
		if err != nil {
			t.Fatalf("lookup %v: %v", tp.Address.Hex(), err)
		}
		if it.Report.Logic != final {
			t.Fatalf("%v proxy %v served logic %v after following, chain says %v",
				tp.Kind, tp.Address.Hex(), it.Report.Logic.Hex(), final.Hex())
		}
	}
}

// TestWatchStatsEndpoint pins the /v1/watch/stats surface: 404 without a
// follower, the wired snapshot with one.
func TestWatchStatsEndpoint(t *testing.T) {
	c := testCorpus(t, 33, 8)
	srv, ts := newTestServer(t, c, Config{Shards: 2})

	resp, err := http.Get(ts.URL + "/v1/watch/stats")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d without a follower, want 404", resp.StatusCode)
	}

	want := watch.StatsSnapshot{
		Cursor: 9, UpgradesDetected: 2, Head: 12, LagBlocks: 3,
		DeltaReads: 9, CellsChecked: 4, AuditRuns: 1, AuditMismatches: 0,
	}
	srv.SetWatchStats(func() any { return want })
	var snap watch.StatsSnapshot
	getJSON(t, ts.URL+"/v1/watch/stats", &snap)
	if snap != want {
		t.Fatalf("endpoint served %+v, want %+v", snap, want)
	}
	// The wire names are the operator's interface ("how far behind is the
	// follower"): pin them.
	var wire map[string]any
	getJSON(t, ts.URL+"/v1/watch/stats", &wire)
	for _, key := range []string{"cursor", "head", "lag_blocks", "delta_reads", "cells_checked", "audit_runs", "audit_mismatches"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("/v1/watch/stats has no %q field: %v", key, wire)
		}
	}
}
