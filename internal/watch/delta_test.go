package watch

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// countingReader counts the reads the follower itself issues. The detector
// gets the bare reader underneath, so analysis reads are not in the counts.
type countingReader struct {
	chain.Reader
	deltas, contracts, storageAt atomic.Int64
	// failStorageAt, when set, makes the next matching GetStorageAt fail
	// once the way an exhausted retry budget does.
	failStorageAt atomic.Pointer[chain.Cell]
	// dropWrites and dropDeploys make BlockDelta lie by omission — the
	// faulty node Audit exists to catch.
	dropWrites, dropDeploys atomic.Bool
}

func (r *countingReader) BlockDelta(b uint64) chain.BlockDelta {
	r.deltas.Add(1)
	d := r.Reader.BlockDelta(b)
	if r.dropWrites.Load() {
		d.Written = nil
	}
	if r.dropDeploys.Load() {
		d.Deployed = nil
	}
	return d
}

func (r *countingReader) Contracts() []etypes.Address {
	r.contracts.Add(1)
	return r.Reader.Contracts()
}

func (r *countingReader) GetStorageAt(a etypes.Address, s etypes.Hash, b uint64) etypes.Hash {
	r.storageAt.Add(1)
	if c := r.failStorageAt.Load(); c != nil && *c == (chain.Cell{Addr: a, Slot: s}) {
		r.failStorageAt.Store(nil)
		panic(&chain.ReadError{Op: "storage-at", Addr: a, Attempts: 5, Err: faultchain.ErrTransient})
	}
	return r.Reader.GetStorageAt(a, s, b)
}

// reads snapshots the three counters.
func (r *countingReader) reads() [3]int64 {
	return [3]int64{r.deltas.Load(), r.contracts.Load(), r.storageAt.Load()}
}

// costHarness follows a timeline through a countingReader.
type costHarness struct {
	tl      *gen.Timeline
	replay  *faultchain.ReplayReader
	reader  *countingReader
	f       *Follower
	events  []UpgradeEvent
	deploys []etypes.Address
}

func newCostHarness(t *testing.T, cfg gen.TimelineConfig) *costHarness {
	t.Helper()
	h := &costHarness{tl: gen.GenerateTimeline(cfg)}
	h.replay = faultchain.NewReplayReader(h.tl.Chain)
	h.reader = &countingReader{Reader: h.replay}
	an := NewDetectorAnalyzer(proxion.NewDetector(h.replay), h.tl.Registry, nil)
	an.Options.WithHistory = false // the cost model is the follower's, not Algorithm 1's
	f, err := New(Config{
		Reader:    h.reader,
		Analyzer:  an,
		OnUpgrade: func(ev UpgradeEvent) { h.events = append(h.events, ev) },
		OnDeploy:  func(it proxion.Item) { h.deploys = append(h.deploys, it.Report.Address) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.f = f
	return h
}

// follow reveals the chain up to its end and polls once.
func (h *costHarness) follow(t *testing.T) {
	t.Helper()
	h.replay.SetHead(h.tl.End())
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll to %d: %v", h.tl.End(), err)
	}
}

// pollCost appends whatever change writes to a fresh block, follows it, and
// returns the follower's reads for that one block.
func (h *costHarness) pollCost(t *testing.T, change func(c *chain.Chain)) [3]int64 {
	t.Helper()
	h.tl.Chain.AdvanceBlocks(1)
	if change != nil {
		change(h.tl.Chain)
	}
	before := h.reader.reads()
	h.follow(t)
	after := h.reader.reads()
	return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
}

// upgradeTo re-points tp at a byte-identical clone of its current logic.
func upgradeTo(tp *gen.TimelineProxy, clone etypes.Address) func(*chain.Chain) {
	return func(c *chain.Chain) {
		c.InstallContract(clone, c.Code(tp.Steps[len(tp.Steps)-1].Logic))
		c.SetStorageDirect(tp.WatchAddr, tp.WatchSlot, etypes.HashFromWord(clone.Word()))
	}
}

// TestPollCostFollowsTheChange pins the follower's cost model with a
// counting reader: an idle block is one delta read and nothing else, an
// upgrade block reads only the cells it touched, and neither depends on how
// many proxies are watched.
func TestPollCostFollowsTheChange(t *testing.T) {
	var idle, upgrade [2][3]int64
	for i, proxies := range []int{200, 400} {
		h := newCostHarness(t, gen.TimelineConfig{Seed: 3, Proxies: proxies})
		h.follow(t)
		if got := h.f.Stats().Watched; got < uint64(proxies) {
			t.Fatalf("%d proxies deployed, %d cells watched", proxies, got)
		}
		idle[i] = h.pollCost(t, nil)
		events := len(h.events)
		upgrade[i] = h.pollCost(t, upgradeTo(h.tl.Proxies[0], etypes.Address{0xfe, 0xed}))
		if len(h.events) != events+1 {
			t.Fatalf("%d proxies: upgrade produced %d events", proxies, len(h.events)-events)
		}
		if n, err := h.f.Audit(); n != 0 || err != nil {
			t.Fatalf("%d proxies: audit found %d mismatches (err %v)", proxies, n, err)
		}
	}
	if want := [3]int64{1, 0, 0}; idle[0] != want {
		t.Errorf("idle block cost {deltas, enumerations, storage reads} = %v, want %v", idle[0], want)
	}
	if want := [3]int64{1, 0, 1}; upgrade[0] != want {
		t.Errorf("upgrade block cost = %v, want %v: one read, of the one touched cell", upgrade[0], want)
	}
	if idle[0] != idle[1] || upgrade[0] != upgrade[1] {
		t.Errorf("cost moved with the watched set: idle %v -> %v, upgrade %v -> %v",
			idle[0], idle[1], upgrade[0], upgrade[1])
	}
}

// beaconProxy returns the timeline's first beacon-kind proxy.
func beaconProxy(t *testing.T, tl *gen.Timeline) *gen.TimelineProxy {
	t.Helper()
	for _, tp := range tl.Proxies {
		if tp.Kind == gen.TimelineBeacon {
			return tp
		}
	}
	t.Fatalf("timeline has no beacon proxy")
	return nil
}

// TestSharedBeaconCellFansOut: N proxies behind one beacon share one
// watched cell; one write to it is N upgrades, delivered in tracking order.
func TestSharedBeaconCellFansOut(t *testing.T) {
	h := newCostHarness(t, gen.TimelineConfig{Seed: 4})
	h.follow(t)
	bp := beaconProxy(t, h.tl)

	// Three more proxies on the same beacon, deployed in one block: tracked
	// in address order, after the original.
	proxies := []etypes.Address{bp.Address}
	h.pollCost(t, func(c *chain.Chain) {
		for i := byte(1); i <= 3; i++ {
			p := etypes.Address{0xbe, 0xac, i}
			c.InstallContract(p, c.Code(bp.Address))
			c.SetStorageDirect(p, bp.ImplSlot, etypes.HashFromWord(bp.Beacon.Word()))
			proxies = append(proxies, p)
		}
	})
	cell := chain.Cell{Addr: bp.WatchAddr, Slot: bp.WatchSlot}
	if got := len(h.f.byCell[cell]); got != len(proxies) {
		t.Fatalf("%d entries index the shared beacon cell, want %d", got, len(proxies))
	}

	events := len(h.events)
	cost := h.pollCost(t, upgradeTo(bp, etypes.Address{0xfe, 0xed}))
	got := h.events[events:]
	if len(got) != len(proxies) {
		t.Fatalf("%d events for %d proxies behind the beacon", len(got), len(proxies))
	}
	for i, ev := range got {
		if ev.Proxy != proxies[i] || ev.WatchAddr != bp.Beacon {
			t.Fatalf("event %d is for %v via %v; tracking order says %v via the beacon",
				i, ev.Proxy.Hex(), ev.WatchAddr.Hex(), proxies[i].Hex())
		}
	}
	if want := [3]int64{1, 0, int64(len(proxies))}; cost != want {
		t.Fatalf("fan-out block cost %v, want %v", cost, want)
	}
	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("audit found %d mismatches (err %v)", n, err)
	}
}

// TestBeaconRepointRebuildsIndex: re-pointing a proxy at a new beacon must
// move its index entry — writes to the old beacon stop concerning it, writes
// to the new one start to.
func TestBeaconRepointRebuildsIndex(t *testing.T) {
	h := newCostHarness(t, gen.TimelineConfig{Seed: 4})
	h.follow(t)
	bp := beaconProxy(t, h.tl)
	oldCell := chain.Cell{Addr: bp.Beacon, Slot: bp.WatchSlot}
	beacon2 := etypes.Address{0xbe, 0xac, 0x02}
	newCell := chain.Cell{Addr: beacon2, Slot: bp.WatchSlot}
	logic := bp.Steps[len(bp.Steps)-1].Logic

	events := len(h.events)
	h.pollCost(t, func(c *chain.Chain) {
		c.InstallContract(beacon2, c.Code(bp.Beacon))
		c.SetStorageDirect(beacon2, bp.WatchSlot, etypes.HashFromWord(logic.Word()))
		c.SetStorageDirect(bp.Address, bp.ImplSlot, etypes.HashFromWord(beacon2.Word()))
	})
	if len(h.events) != events+1 || h.events[events].Slot != bp.ImplSlot {
		t.Fatalf("re-pointing produced %d event(s): %+v", len(h.events)-events, h.events[events:])
	}
	if len(h.f.byCell[oldCell]) != 0 || len(h.f.byCell[newCell]) != 1 {
		t.Fatalf("index after re-point: %d on the old beacon cell, %d on the new",
			len(h.f.byCell[oldCell]), len(h.f.byCell[newCell]))
	}
	if got := h.f.Stats().Watched; got != uint64(len(h.f.watched)) || int(got) != indexSize(h.f) {
		t.Fatalf("watched stat %d, list %d, index %d disagree", got, len(h.f.watched), indexSize(h.f))
	}

	events = len(h.events)
	cost := h.pollCost(t, func(c *chain.Chain) {
		c.SetStorageDirect(bp.Beacon, bp.WatchSlot, etypes.HashFromWord(etypes.Address{0xde, 0xad}.Word()))
	})
	if len(h.events) != events || cost[2] != 0 {
		t.Fatalf("write to the abandoned beacon: %d event(s), %d storage read(s)", len(h.events)-events, cost[2])
	}
	h.pollCost(t, func(c *chain.Chain) {
		clone := etypes.Address{0xfe, 0xed}
		c.InstallContract(clone, c.Code(logic))
		c.SetStorageDirect(beacon2, bp.WatchSlot, etypes.HashFromWord(clone.Word()))
	})
	if len(h.events) != events+1 || h.events[events].WatchAddr != beacon2 {
		t.Fatalf("write to the new beacon produced %d event(s)", len(h.events)-events)
	}
	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("audit found %d mismatches (err %v)", n, err)
	}
}

func indexSize(f *Follower) int {
	n := 0
	for _, es := range f.byCell {
		n += len(es)
	}
	return n
}

// TestAnchoringReadFailureRetriesTheBlock: the read that anchors a freshly
// deployed proxy's watched cell fails once. The block must fail as a whole
// — error returned, cursor put, no deployment delivered — and its retry
// must deliver every deployment once and leave the proxy watched. (Before,
// the proxy was silently left out and its upgrades lost for good.)
func TestAnchoringReadFailureRetriesTheBlock(t *testing.T) {
	h := newCostHarness(t, gen.TimelineConfig{Seed: 5})
	tp := h.tl.Proxies[0] // a slot proxy: the anchoring read is of its own slot
	deployBlock := tp.Steps[0].Block
	h.replay.SetHead(deployBlock - 1)
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	delivered := len(h.deploys)

	h.reader.failStorageAt.Store(&chain.Cell{Addr: tp.WatchAddr, Slot: tp.WatchSlot})
	h.replay.SetHead(deployBlock)
	err := h.f.Poll()
	var re *chain.ReadError
	if !errors.As(err, &re) {
		t.Fatalf("poll over a failed anchoring read returned %v, want the *chain.ReadError", err)
	}
	if got := h.f.Cursor(); got != deployBlock-1 {
		t.Fatalf("cursor moved to %d past the failed block %d", got, deployBlock)
	}
	if len(h.deploys) != delivered {
		t.Fatalf("%d deployment(s) delivered from a block that failed", len(h.deploys)-delivered)
	}
	if len(h.f.watched) != indexSize(h.f) || h.f.Stats().Watched != uint64(len(h.f.watched)) {
		t.Fatalf("failed block left a half-tracked watch set")
	}

	h.follow(t)
	seen := make(map[etypes.Address]int)
	for _, a := range h.deploys {
		seen[a]++
	}
	for _, a := range h.tl.Chain.Contracts() {
		if seen[a] != 1 {
			t.Fatalf("contract %v delivered %d time(s) across the retry", a.Hex(), seen[a])
		}
	}
	if got, want := len(h.events), len(scriptedUpgrades(h.tl)); got != want {
		t.Fatalf("%d upgrade events for %d scripted upgrades", got, want)
	}
	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("audit found %d mismatches (err %v)", n, err)
	}
}

// TestUpgradeReadFailureDoesNotRedeliverDeployments: a block deploys a
// contract and upgrades a proxy, and the upgrade's cell read fails once.
// The retry must handle the upgrade without delivering (or tracking) the
// deployment a second time.
func TestUpgradeReadFailureDoesNotRedeliverDeployments(t *testing.T) {
	h := newCostHarness(t, gen.TimelineConfig{Seed: 5})
	h.follow(t)
	tp := h.tl.Proxies[0]
	watched, delivered, events := len(h.f.watched), len(h.deploys), len(h.events)

	h.tl.Chain.AdvanceBlocks(1)
	upgradeTo(tp, etypes.Address{0xfe, 0xed})(h.tl.Chain)
	h.replay.SetHead(h.tl.End())
	h.reader.failStorageAt.Store(&chain.Cell{Addr: tp.WatchAddr, Slot: tp.WatchSlot})
	if err := h.f.Poll(); err == nil {
		t.Fatalf("poll over a failed cell read succeeded")
	}
	if len(h.deploys) != delivered+1 || len(h.events) != events {
		t.Fatalf("failed block delivered %d deployment(s), %d upgrade(s)", len(h.deploys)-delivered, len(h.events)-events)
	}
	h.follow(t)
	if len(h.deploys) != delivered+1 || len(h.events) != events+1 || len(h.f.watched) != watched {
		t.Fatalf("after the retry: %d deployment(s), %d upgrade(s), %d new watch entries; want 1, 1, 0",
			len(h.deploys)-delivered, len(h.events)-events, len(h.f.watched)-watched)
	}
	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("audit found %d mismatches (err %v)", n, err)
	}
}

// TestAuditCatchesWhatTheDeltaMissed feeds the follower deltas that omit a
// block's writes, then its deployments. Poll cannot know; Audit must find
// the moved cell and the undelivered contract, handle both, count them, and
// come back clean the next time.
func TestAuditCatchesWhatTheDeltaMissed(t *testing.T) {
	h := newCostHarness(t, gen.TimelineConfig{Seed: 6})
	h.follow(t)
	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("healthy run: audit found %d mismatches (err %v)", n, err)
	}
	tp := h.tl.Proxies[0]
	events, delivered := len(h.events), len(h.deploys)

	h.reader.dropWrites.Store(true)
	clone := etypes.Address{0xfe, 0xed}
	h.pollCost(t, upgradeTo(tp, clone))
	h.reader.dropWrites.Store(false)
	if len(h.events) != events {
		t.Fatalf("follower saw an upgrade its delta did not mention")
	}
	before := h.reader.reads()
	n, err := h.f.Audit()
	if n != 1 || err != nil {
		t.Fatalf("audit over a dropped write found %d mismatches (err %v), want 1", n, err)
	}
	if len(h.events) != events+1 || h.events[events].Proxy != tp.Address ||
		h.events[events].NewValue != etypes.HashFromWord(clone.Word()) {
		t.Fatalf("audit did not deliver the missed upgrade: %+v", h.events[events:])
	}
	after := h.reader.reads()
	if after[1]-before[1] != 1 || after[2]-before[2] < int64(len(h.f.watched)) {
		t.Fatalf("audit issued %d enumerations and %d storage reads over %d watched cells — not a full scan",
			after[1]-before[1], after[2]-before[2], len(h.f.watched))
	}

	h.reader.dropDeploys.Store(true)
	late := etypes.Address{0x1a, 0x7e}
	h.pollCost(t, func(c *chain.Chain) { c.InstallContract(late, c.Code(tp.Address)) })
	h.reader.dropDeploys.Store(false)
	if len(h.deploys) != delivered+1 { // the clone logic, from the first block
		t.Fatalf("follower delivered %d deployments, want the clone alone", len(h.deploys)-delivered)
	}
	if n, err := h.f.Audit(); n != 1 || err != nil {
		t.Fatalf("audit over a dropped deployment found %d mismatches (err %v), want 1", n, err)
	}
	if len(h.deploys) != delivered+2 || h.deploys[len(h.deploys)-1] != late {
		t.Fatalf("audit did not deliver the missed deployment")
	}

	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("second audit found %d mismatches (err %v)", n, err)
	}
	h.pollCost(t, nil)
	if n, err := h.f.Audit(); n != 0 || err != nil {
		t.Fatalf("audit after the repair found %d mismatches (err %v)", n, err)
	}
	st := h.f.Stats()
	if st.AuditMismatches != 2 || st.AuditRuns < 4 {
		t.Fatalf("stats report %d mismatches over %d audits", st.AuditMismatches, st.AuditRuns)
	}
}

// headAhead reports a head its replay view has not reached yet: a node
// whose head announcement runs ahead of the state it can serve.
type headAhead struct {
	*faultchain.ReplayReader
	head atomic.Uint64 // the reported head; zero reports the view's own
}

func (r *headAhead) CurrentBlock() uint64 {
	if h := r.head.Load(); h != 0 {
		return h
	}
	return r.ReplayReader.CurrentBlock()
}

// TestOnlyStaleReplicasHoldTheCursor: the node's head says block N exists,
// but its delta for the blocks past the cursor cannot be served yet. The
// delta read must fail — not come back empty — so Poll errors with the
// cursor unmoved, and once the node catches up the same blocks are followed
// with nothing lost.
func TestOnlyStaleReplicasHoldTheCursor(t *testing.T) {
	tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: 8})
	replay := faultchain.NewReplayReader(tl.Chain)
	node := &headAhead{ReplayReader: replay}
	var events []UpgradeEvent
	f, err := New(Config{
		Reader:    node,
		Analyzer:  NewDetectorAnalyzer(proxion.NewDetector(replay), tl.Registry, nil),
		OnUpgrade: func(ev UpgradeEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mid := tl.End() / 2
	replay.SetHead(mid)
	if err := f.Poll(); err != nil {
		t.Fatalf("poll to %d: %v", mid, err)
	}

	node.head.Store(tl.End())
	seen := len(events)
	err = f.Poll()
	var re *chain.ReadError
	if !errors.As(err, &re) || re.Op != "block-delta" {
		t.Fatalf("poll past the servable blocks returned %v, want the block-delta *chain.ReadError", err)
	}
	if f.Cursor() != mid || len(events) != seen {
		t.Fatalf("cursor %d (was %d), %d event(s) delivered from blocks the node cannot serve", f.Cursor(), mid, len(events)-seen)
	}
	if st := f.Stats(); st.Head != tl.End() || st.LagBlocks != tl.End()-mid {
		t.Fatalf("stats say head %d, lag %d; want %d, %d", st.Head, st.LagBlocks, tl.End(), tl.End()-mid)
	}

	replay.SetHead(tl.End())
	if err := f.Poll(); err != nil {
		t.Fatalf("poll after the node caught up: %v", err)
	}
	if f.Cursor() != tl.End() || f.Stats().LagBlocks != 0 {
		t.Fatalf("cursor %d, lag %d after catching up to %d", f.Cursor(), f.Stats().LagBlocks, tl.End())
	}
	if got, want := len(events), len(scriptedUpgrades(tl)); got != want {
		t.Fatalf("%d upgrade events for %d scripted upgrades", got, want)
	}
	if n, err := f.Audit(); n != 0 || err != nil {
		t.Fatalf("audit found %d mismatches (err %v)", n, err)
	}
}

// TestIdleTailKeepsAFlatHeap follows a long run of blocks in which nothing
// happens: the follower must end it holding what it held at its start.
func TestIdleTailKeepsAFlatHeap(t *testing.T) {
	h := newCostHarness(t, gen.TimelineConfig{Seed: 2})
	h.follow(t)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm: one stretch first, so lazily built state is in the baseline.
	h.tl.Chain.AdvanceBlocks(1000)
	h.follow(t)
	before := heap()
	const tail = 200_000
	h.tl.Chain.AdvanceBlocks(tail)
	h.follow(t)
	after := heap()
	runtime.KeepAlive(h)
	if got := h.f.Cursor(); got != h.tl.End() {
		t.Fatalf("follower stopped at %d of %d", got, h.tl.End())
	}
	if grew := int64(after) - int64(before); grew > 64<<10 {
		t.Fatalf("heap grew %d bytes over %d idle blocks (%.2f per block)", grew, tail, float64(grew)/tail)
	}
}
