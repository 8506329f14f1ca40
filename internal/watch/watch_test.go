package watch

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/etypes"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/store"
)

// harness bundles a follower over a replayed timeline.
type harness struct {
	tl     *gen.Timeline
	replay *faultchain.ReplayReader
	det    *proxion.Detector
	f      *Follower
	events []UpgradeEvent
}

func newHarness(t *testing.T, cfg gen.TimelineConfig, checkpoint string) *harness {
	t.Helper()
	h := &harness{tl: gen.GenerateTimeline(cfg)}
	h.replay = faultchain.NewReplayReader(h.tl.Chain)
	h.det = proxion.NewDetector(h.replay)
	f, err := New(Config{
		Reader:         h.replay,
		Analyzer:       NewDetectorAnalyzer(h.det, h.tl.Registry, nil),
		CheckpointPath: checkpoint,
		OnUpgrade:      func(ev UpgradeEvent) { h.events = append(h.events, ev) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.f = f
	return h
}

// scriptedUpgrades returns the ground-truth upgrade events of a timeline.
func scriptedUpgrades(tl *gen.Timeline) []gen.TimelineEvent {
	var out []gen.TimelineEvent
	for _, ev := range tl.Events {
		if !ev.Deploy {
			out = append(out, ev)
		}
	}
	return out
}

// TestReorgSafeCursor pins the cursor's monotonicity: a replica serving an
// older head (here: the replay rolled backwards) must be a no-op, never a
// rewind, and following must pick up where it left off once a fresh head
// appears.
func TestReorgSafeCursor(t *testing.T) {
	h := newHarness(t, gen.TimelineConfig{Seed: 5}, "")

	h.replay.SetHead(5)
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if got := h.f.Cursor(); got != 5 {
		t.Fatalf("cursor %d after following to 5", got)
	}
	seen := len(h.events)
	blocks := h.f.Stats().BlocksFollowed

	// Stale head: nothing may move.
	h.replay.SetHead(3)
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll on stale head: %v", err)
	}
	if got := h.f.Cursor(); got != 5 {
		t.Fatalf("stale head rolled the cursor to %d", got)
	}
	if len(h.events) != seen || h.f.Stats().BlocksFollowed != blocks {
		t.Fatalf("stale head produced activity: %d events, %d blocks",
			len(h.events)-seen, h.f.Stats().BlocksFollowed-blocks)
	}

	h.replay.SetHead(h.tl.End())
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll to end: %v", err)
	}
	if got, want := h.f.Cursor(), h.tl.End(); got != want {
		t.Fatalf("cursor %d, want %d", got, want)
	}
	if got, want := len(h.events), len(scriptedUpgrades(h.tl)); got != want {
		t.Fatalf("%d upgrade events for %d scripted upgrades", got, want)
	}
}

// TestSameLogicUpgradeNoop rewrites a watched cell with the value it
// already holds: no invalidation, no re-analysis, no event.
func TestSameLogicUpgradeNoop(t *testing.T) {
	h := newHarness(t, gen.TimelineConfig{Seed: 9}, "")
	h.replay.SetHead(h.tl.End())
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	before := h.f.Stats()

	tp := h.tl.Proxies[0] // kind cycle starts with a slot proxy
	cur := h.tl.Chain.GetStorageAt(tp.WatchAddr, tp.WatchSlot, h.tl.End())
	h.tl.Chain.AdvanceBlocks(1)
	h.tl.Chain.SetStorageDirect(tp.WatchAddr, tp.WatchSlot, cur)
	h.replay.SetHead(h.tl.End())
	if err := h.f.Poll(); err != nil {
		t.Fatalf("poll after no-op rewrite: %v", err)
	}

	after := h.f.Stats()
	if after.BlocksFollowed != before.BlocksFollowed+1 {
		t.Fatalf("blocks followed %d -> %d, want +1", before.BlocksFollowed, after.BlocksFollowed)
	}
	if after.UpgradesDetected != before.UpgradesDetected ||
		after.Invalidations != before.Invalidations ||
		after.Reanalyses != before.Reanalyses {
		t.Fatalf("same-logic rewrite was treated as an upgrade: %+v -> %+v", before, after)
	}
}

// TestBeaconIndirectUpgrade pins the beacon path: upgrades rewrite only
// the beacon's storage — the proxy's own slots provably never change — yet
// every upgrade must be detected and the cached verdict refreshed. This is
// the case where explicit invalidation is load-bearing: a beacon proxy's
// guard fingerprint is identical before and after the upgrade, so without
// invalidation the stale cached logic would be served forever.
func TestBeaconIndirectUpgrade(t *testing.T) {
	h := newHarness(t, gen.TimelineConfig{Seed: 4}, "")
	for b := uint64(1); b <= h.tl.End(); b++ {
		h.replay.SetHead(b)
		if err := h.f.Poll(); err != nil {
			t.Fatalf("poll at %d: %v", b, err)
		}
	}

	var bp *gen.TimelineProxy
	for _, tp := range h.tl.Proxies {
		if tp.Kind == gen.TimelineBeacon {
			bp = tp
		}
	}
	if bp == nil {
		t.Fatalf("timeline has no beacon proxy")
	}

	// Ground truth: the proxy's own beacon slot is constant after deploy.
	deployed := bp.Steps[0].Block
	first := h.tl.Chain.GetStorageAt(bp.Address, bp.ImplSlot, deployed)
	for b := deployed; b <= h.tl.End(); b++ {
		if v := h.tl.Chain.GetStorageAt(bp.Address, bp.ImplSlot, b); v != first {
			t.Fatalf("beacon proxy's own storage changed at block %d — bad fixture", b)
		}
	}

	var got []UpgradeEvent
	for _, ev := range h.events {
		if ev.Proxy == bp.Address {
			got = append(got, ev)
		}
	}
	if want := len(bp.Steps) - 1; len(got) != want {
		t.Fatalf("%d events for %d scripted beacon upgrades", len(got), want)
	}
	for i, ev := range got {
		step := bp.Steps[i+1]
		if ev.Block != step.Block || ev.WatchAddr != bp.Beacon {
			t.Fatalf("event %d at block %d watching %v; scripted block %d on beacon %v",
				i, ev.Block, ev.WatchAddr.Hex(), step.Block, bp.Beacon.Hex())
		}
		if ev.Item == nil || ev.Item.Report.Logic != step.Logic {
			t.Fatalf("event %d re-analyzed to wrong logic", i)
		}
	}

	// The detector must now serve the final logic from cache — only the
	// follower's invalidation makes that true for a beacon proxy.
	finalLogic := bp.Steps[len(bp.Steps)-1].Logic
	if rep := h.det.Check(bp.Address); rep.Logic != finalLogic {
		t.Fatalf("cached verdict still points at %v, beacon says %v", rep.Logic.Hex(), finalLogic.Hex())
	}
}

// errKilled simulates a process death injected mid-upgrade.
type errKilled struct{}

// TestKillMidUpgradeRestart kills the follower after upgrade detection but
// before any invalidation, then restarts from the checkpoint with a fresh
// detector warm-imported from the verdict store. The reloaded follower
// must resume exactly at the checkpoint, re-detect the in-flight upgrade,
// and deliver it exactly once overall — no misses, no double-reports.
func TestKillMidUpgradeRestart(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "watch.cursor")
	storeDir := filepath.Join(dir, "verdicts")

	tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: 6})
	upgrades := scriptedUpgrades(tl)
	killAt := upgrades[0].Block

	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	replay := faultchain.NewReplayReader(tl.Chain)
	detA := proxion.NewDetector(replay)
	var eventsA []UpgradeEvent
	fA, err := New(Config{
		Reader:         replay,
		Analyzer:       NewDetectorAnalyzer(detA, tl.Registry, st),
		CheckpointPath: ckpt,
		OnUpgrade:      func(ev UpgradeEvent) { eventsA = append(eventsA, ev) },
	})
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	for h := uint64(1); h < killAt; h++ {
		replay.SetHead(h)
		if err := fA.Poll(); err != nil {
			t.Fatalf("poll A at %d: %v", h, err)
		}
	}
	fA.beforeInvalidate = func(UpgradeEvent) { panic(errKilled{}) }
	replay.SetHead(killAt)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("kill hook did not fire at block %d", killAt)
			} else if _, ok := r.(errKilled); !ok {
				panic(r)
			}
		}()
		_ = fA.Poll()
	}()
	if len(eventsA) != 0 {
		t.Fatalf("killed follower delivered %d event(s) for the in-flight upgrade", len(eventsA))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Restart: fresh detector, verdicts warm-imported from disk, cursor
	// from the checkpoint.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	entries, err := st2.Entries()
	if err != nil {
		t.Fatalf("store entries: %v", err)
	}
	detB := proxion.NewDetector(replay)
	detB.ImportVerdicts(entries)
	var bootStats pipeline.Stats
	an := NewDetectorAnalyzer(detB, tl.Registry, st2)
	an.Options.Stats = &bootStats
	var eventsB []UpgradeEvent
	fB, err := New(Config{
		Reader:         replay,
		Analyzer:       an,
		CheckpointPath: ckpt,
		OnUpgrade:      func(ev UpgradeEvent) { eventsB = append(eventsB, ev) },
	})
	if err != nil {
		t.Fatalf("New B: %v", err)
	}
	if got, want := fB.Cursor(), killAt-1; got != want {
		t.Fatalf("reloaded cursor %d, checkpoint said %d", got, want)
	}
	if n := bootStats.Emulations.Load(); n != 0 {
		t.Fatalf("warm bootstrap re-emulated %d contract(s); store round-trip incomplete", n)
	}
	for h := killAt; h <= tl.End(); h++ {
		replay.SetHead(h)
		if err := fB.Poll(); err != nil {
			t.Fatalf("poll B at %d: %v", h, err)
		}
	}

	// Exactly-once across the kill: the interrupted upgrade arrives from
	// the restarted follower only, and every scripted upgrade exactly once.
	type key struct {
		b uint64
		p etypes.Address
	}
	counts := make(map[key]int)
	for _, ev := range append(eventsA, eventsB...) {
		counts[key{ev.Block, ev.Proxy}]++
	}
	if counts[key{upgrades[0].Block, upgrades[0].Proxy}] != 1 {
		t.Fatalf("in-flight upgrade delivered %d time(s)", counts[key{upgrades[0].Block, upgrades[0].Proxy}])
	}
	for _, ge := range upgrades {
		if counts[key{ge.Block, ge.Proxy}] != 1 {
			t.Fatalf("upgrade at block %d delivered %d time(s)", ge.Block, counts[key{ge.Block, ge.Proxy}])
		}
	}
	if len(eventsA)+len(eventsB) != len(upgrades) {
		t.Fatalf("%d events for %d scripted upgrades", len(eventsA)+len(eventsB), len(upgrades))
	}
}

// slowAnalyzer delays every analysis so Stop provably lands mid-poll.
type slowAnalyzer struct {
	inner Analyzer
	delay time.Duration
}

func (s *slowAnalyzer) Analyze(addrs []etypes.Address) ([]proxion.Item, error) {
	time.Sleep(s.delay)
	return s.inner.Analyze(addrs)
}

func (s *slowAnalyzer) Invalidate(addr etypes.Address) (int, error) {
	return s.inner.Invalidate(addr)
}

// TestStopDrainsCleanly runs the follower's polling loop, stops it while
// blocks are in flight, and requires a clean drain: Stop returns only
// after the current block completed, the checkpoint matches the cursor,
// every delivered event lies at or below it, and a successor follower
// finishes the timeline without missing or double-reporting an upgrade.
func TestStopDrainsCleanly(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "watch.cursor")
	tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: 12})
	replay := faultchain.NewReplayReader(tl.Chain)
	replay.SetHead(tl.End())

	det := proxion.NewDetector(replay)
	var mu chan struct{} // buffered-1 as mutex for events (OnUpgrade runs in Run's goroutine)
	mu = make(chan struct{}, 1)
	mu <- struct{}{}
	var events []UpgradeEvent
	f, err := New(Config{
		Reader:         replay,
		Analyzer:       &slowAnalyzer{inner: NewDetectorAnalyzer(det, tl.Registry, nil), delay: 2 * time.Millisecond},
		CheckpointPath: ckpt,
		PollInterval:   time.Millisecond,
		OnUpgrade: func(ev UpgradeEvent) {
			<-mu
			events = append(events, ev)
			mu <- struct{}{}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go f.Run()
	for f.Stats().Cursor < 2 {
		time.Sleep(time.Millisecond)
	}
	f.Stop() // must wait out the in-flight block

	cur := f.Stats().Cursor
	loaded, err := loadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if loaded != cur {
		t.Fatalf("checkpoint %d, cursor %d — drain left them torn", loaded, cur)
	}
	for _, ev := range events {
		if ev.Block > cur {
			t.Fatalf("event at block %d delivered beyond the drained cursor %d", ev.Block, cur)
		}
	}

	// A successor picks up from the checkpoint and completes the timeline.
	det2 := proxion.NewDetector(replay)
	f2, err := New(Config{
		Reader:         replay,
		Analyzer:       NewDetectorAnalyzer(det2, tl.Registry, nil),
		CheckpointPath: ckpt,
		OnUpgrade: func(ev UpgradeEvent) {
			events = append(events, ev)
		},
	})
	if err != nil {
		t.Fatalf("New successor: %v", err)
	}
	if f2.Cursor() != cur {
		t.Fatalf("successor resumed at %d, want %d", f2.Cursor(), cur)
	}
	if err := f2.Poll(); err != nil {
		t.Fatalf("successor poll: %v", err)
	}
	upgrades := scriptedUpgrades(tl)
	seen := make(map[uint64]map[etypes.Address]int)
	for _, ev := range events {
		if seen[ev.Block] == nil {
			seen[ev.Block] = make(map[etypes.Address]int)
		}
		seen[ev.Block][ev.Proxy]++
	}
	for _, ge := range upgrades {
		if seen[ge.Block][ge.Proxy] != 1 {
			t.Fatalf("upgrade at block %d seen %d time(s) across stop/restart", ge.Block, seen[ge.Block][ge.Proxy])
		}
	}
	if len(events) != len(upgrades) {
		t.Fatalf("%d events for %d scripted upgrades", len(events), len(upgrades))
	}
}
