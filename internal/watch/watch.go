// Package watch turns the batch analysis path into a long-running chain
// follower: it tails new blocks from a chain.Reader, routes new
// deployments into the streaming analysis path, and detects upgrade
// events — a followed proxy's implementation cell changing value between
// blocks — invalidating exactly the affected verdicts and re-running the
// collision analysis against the new logic contract.
//
// Cursor model: the follower owns a single monotonic cursor, the last
// fully processed block. A block is processed as one unit (its delta read,
// deployments analyzed and tracked, touched watched cells compared,
// upgrades handled) and the cursor is checkpointed after the unit
// completes, so a crash mid-block re-processes the whole block on restart.
// Re-processing is idempotent: analysis is deterministic, store writes skip
// byte-identical entries, and upgrade detection compares against the cell
// value as of the checkpointed cursor — the interrupted upgrade is
// re-detected and delivered exactly once per completed run. The head the
// cursor chases comes from the Reader, and Poll refuses heads at or below
// the cursor, so a node that answers from an older head can never roll the
// cursor backwards.
//
// Cost model: a block costs one Reader.BlockDelta plus work proportional to
// what the block deployed and to the watched cells it wrote — never to the
// chain or to the watched set. Exactly-once delivery is the cursor's job
// alone: a delta is complete or it is a *chain.ReadError that leaves the
// cursor where it was, so nothing has to remember what was already seen.
// The full scan (enumerate every contract, read every watched cell) lives
// on only as Audit, the slow path that checks the fast one.
//
// Invalidation granularity: an upgrade invalidates at most the proxy's
// exact bytecode-hash verdict and its structural family, nothing else, and
// proxion.Detector.Invalidate drops them only when the upgrade can have
// made them stale. A slot proxy's verdict that read nothing but the
// proxy's own storage before forwarding is kept: every hit re-reads the
// implementation slot and re-hashes the guard slots into the fingerprint
// it is looked up by, so the re-analysis is an exact hit on the new logic,
// and a block that also moved a guard slot misses and re-emulates. Beacon
// proxies genuinely require invalidation — their verdict bakes in a logic
// address read through the beacon while their own storage (and thus the
// guard fingerprint) never changes across upgrades.
package watch

import (
	"cmp"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/static"
)

// UpgradeEvent is one detected implementation change.
type UpgradeEvent struct {
	// Block is the height at which the watched cell changed.
	Block uint64
	// Proxy is the followed proxy whose delegate moved.
	Proxy etypes.Address
	// WatchAddr/Slot locate the cell that changed: the proxy's own
	// implementation slot, or its beacon's implementation cell.
	WatchAddr etypes.Address
	Slot      etypes.Hash
	// OldValue/NewValue are the cell values before and after.
	OldValue, NewValue etypes.Hash
	// Item is the post-upgrade re-analysis: the fresh verdict and the pair
	// analysis against the new logic.
	Item *proxion.Item
}

// Config wires a Follower.
type Config struct {
	// Reader is the node surface to follow — typically a resilient
	// client, but any chain.Reader works.
	Reader chain.Reader
	// Analyzer runs and records the analyses.
	Analyzer Analyzer
	// CheckpointPath, when set, persists the cursor atomically after
	// every processed block and is loaded by New for resumption.
	CheckpointPath string
	// PollInterval paces Run's polling loop (default 250ms).
	PollInterval time.Duration
	// OnDeploy, when set, receives every newly analyzed deployment.
	OnDeploy func(proxion.Item)
	// OnUpgrade, when set, receives every handled upgrade event after
	// invalidation and re-analysis completed.
	OnUpgrade func(UpgradeEvent)
	// OnError, when set, receives Poll errors from Run's loop (the poll
	// is retried at the next tick either way).
	OnError func(error)
}

// watchEntry is one watched storage cell and the proxy it belongs to.
type watchEntry struct {
	proxy etypes.Address
	cell  chain.Cell
	// last is the cell value as of the last processed block.
	last etypes.Hash
	// seq is the entry's position in tracking order, the order upgrades
	// within one block are handled and delivered in.
	seq  uint64
	dead bool
}

// Follower tails the chain. Poll, Audit and Stop are safe for concurrent
// use; Stats never blocks on an in-flight poll.
type Follower struct {
	cfg Config

	mu      sync.Mutex // serializes bootstrap, polls and audits
	watched []*watchEntry
	// byCell indexes the live entries by the cell they watch (several
	// proxies may share one beacon cell), kept by commit/removeEntries.
	byCell  map[chain.Cell][]*watchEntry
	nextSeq uint64
	// deployed is the highest block whose deployments are tracked and
	// delivered. It runs ahead of the cursor only while a block whose
	// upgrade half failed awaits its retry, which must not repeat them.
	deployed uint64
	// audited is the cursor as of the last audit, and delivered the
	// deployments delivered since — all Audit remembers, and dropped by
	// it: a caller driving Poll itself audits too, as Run does.
	audited   uint64
	delivered []etypes.Address

	cursor atomic.Uint64
	stats  stats

	running  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	// beforeInvalidate is the crash-injection hook for the
	// kill-mid-upgrade restart test: it runs after detection but before
	// any invalidation, so a panic here models a process death with no
	// half-applied invalidation state.
	beforeInvalidate func(UpgradeEvent)
}

// New builds a follower. If a checkpoint exists at CheckpointPath the
// cursor resumes from it and the watched set is rebuilt as of that height;
// otherwise following starts cold from block zero.
func New(cfg Config) (*Follower, error) {
	if cfg.Reader == nil || cfg.Analyzer == nil {
		return nil, errors.New("watch: Config needs Reader and Analyzer")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	f := &Follower{
		cfg:    cfg,
		byCell: make(map[chain.Cell][]*watchEntry),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		cur, err := loadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		f.cursor.Store(cur)
		f.deployed, f.audited = cur, cur
	}
	if f.cursor.Load() > 0 {
		if err := f.bootstrap(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Cursor returns the last fully processed block.
func (f *Follower) Cursor() uint64 { return f.cursor.Load() }

// Stats snapshots the follower's counters.
func (f *Follower) Stats() StatsSnapshot {
	cursor, head := f.cursor.Load(), f.stats.head.Load()
	var lag uint64
	if head > cursor {
		lag = head - cursor
	}
	return StatsSnapshot{
		Cursor:           cursor,
		BlocksFollowed:   f.stats.blocksFollowed.Load(),
		DeploymentsSeen:  f.stats.deploymentsSeen.Load(),
		UpgradesDetected: f.stats.upgradesDetected.Load(),
		Invalidations:    f.stats.invalidations.Load(),
		Reanalyses:       f.stats.reanalyses.Load(),
		Watched:          f.stats.watched.Load(),
		Head:             head,
		LagBlocks:        lag,
		DeltaReads:       f.stats.deltaReads.Load(),
		CellsChecked:     f.stats.cellsChecked.Load(),
		AuditRuns:        f.stats.auditRuns.Load(),
		AuditMismatches:  f.stats.auditMismatches.Load(),
	}
}

// auditEvery is how many of Run's polls pass between audits.
const auditEvery = 64

// Run polls until Stop, auditing every auditEvery polls. Poll and Audit
// errors are reported to OnError and retried at the next tick.
func (f *Follower) Run() {
	if !f.running.CompareAndSwap(false, true) {
		return
	}
	defer close(f.doneCh)
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	report := func(err error) {
		if err != nil && f.cfg.OnError != nil {
			f.cfg.OnError(err)
		}
	}
	for polls := 1; ; polls++ {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			report(f.Poll())
			if polls%auditEvery == 0 {
				_, err := f.Audit()
				report(err)
			}
		}
	}
}

// Stop halts the follower cleanly: the in-flight block (if any) finishes
// and is checkpointed, then Run's loop exits. Safe to call more than once
// and without Run.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	if f.running.Load() {
		<-f.doneCh
	}
}

// bootstrap rebuilds the watched set as of the checkpointed cursor: every
// contract deployed at or before it is (re-)analyzed — warm-started
// detectors re-emulate nothing — and watched cells capture their value at
// the cursor, so upgrades that landed after the checkpoint are detected by
// the next poll. No deploy/upgrade events are emitted for history the
// previous run already reported.
func (f *Follower) bootstrap() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cursor := f.cursor.Load()
	var addrs []etypes.Address
	re := chain.CaptureReadError(func() {
		for _, a := range f.cfg.Reader.Contracts() {
			if f.cfg.Reader.CreatedAt(a) <= cursor {
				addrs = append(addrs, a)
			}
		}
	})
	if re != nil {
		return re
	}
	items, err := f.cfg.Analyzer.Analyze(addrs)
	if err != nil {
		return err
	}
	return f.track(items, cursor)
}

// Poll advances the cursor to the reader's current head, processing each
// block in order. A head at or below the cursor (a stale replica) is a
// no-op. Safe for concurrent use; polls serialize.
func (f *Follower) Poll() error {
	f.mu.Lock()
	defer f.mu.Unlock()

	var head uint64
	if re := chain.CaptureReadError(func() { head = f.cfg.Reader.CurrentBlock() }); re != nil {
		return re
	}
	f.stats.head.Store(head)
	for b := f.cursor.Load() + 1; b <= head; b++ {
		select {
		case <-f.stopCh:
			return nil
		default:
		}
		if err := f.processBlock(b); err != nil {
			return err
		}
		f.cursor.Store(b)
		f.stats.blocksFollowed.Add(1)
		if err := f.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// processBlock handles one block as a unit, from its delta: new
// deployments first (so their watched cells anchor at this block), then the
// watched cells the block wrote. Any failed read returns before the cursor
// moves, and the next poll retries the block.
func (f *Follower) processBlock(b uint64) error {
	var delta chain.BlockDelta
	if re := chain.CaptureReadError(func() { delta = f.cfg.Reader.BlockDelta(b) }); re != nil {
		return re
	}
	f.stats.deltaReads.Add(1)

	// Looked up before this block's deployments are tracked: their entries
	// anchor at b and cannot differ from it.
	var touched []*watchEntry
	for _, c := range delta.Written {
		touched = append(touched, f.byCell[c]...)
	}
	slices.SortFunc(touched, func(a, b *watchEntry) int { return cmp.Compare(a.seq, b.seq) })

	if b > f.deployed {
		if err := f.deploy(delta.Deployed, b); err != nil {
			return err
		}
		f.deployed = b
	}
	_, err := f.check(touched, b)
	return err
}

// deploy analyzes new deployments, tracks them as of block b and only then
// delivers them: a failed anchoring read returns before any OnDeploy, so
// the retry delivers the whole block once.
func (f *Follower) deploy(addrs []etypes.Address, b uint64) error {
	if len(addrs) == 0 {
		return nil
	}
	items, err := f.cfg.Analyzer.Analyze(addrs)
	if err != nil {
		return err
	}
	if err := f.track(items, b); err != nil {
		return err
	}
	f.stats.deploymentsSeen.Add(uint64(len(items)))
	for _, it := range items {
		f.delivered = append(f.delivered, it.Report.Address)
		if f.cfg.OnDeploy != nil {
			f.cfg.OnDeploy(it)
		}
	}
	return nil
}

// check compares each live entry's cell as of block b with its last known
// value and handles the ones that moved, in the order given. It returns how
// many did.
func (f *Follower) check(entries []*watchEntry, b uint64) (moved int, err error) {
	for _, e := range entries {
		if e.dead {
			continue // an earlier upgrade in this block rebuilt its proxy's plan
		}
		var v etypes.Hash
		re := chain.CaptureReadError(func() {
			v = f.cfg.Reader.GetStorageAt(e.cell.Addr, e.cell.Slot, b)
		})
		if re != nil {
			return moved, re
		}
		f.stats.cellsChecked.Add(1)
		if v == e.last {
			continue // includes upgrade-to-same-logic: a no-op, no invalidation
		}
		if err := f.handleUpgrade(e, b, v); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// Audit is the slow path that checks the fast one. It re-derives the blocks
// followed since the last audit the way the follower worked before block
// deltas — enumerate every contract, read every watched cell as of the
// cursor — and handles, delivers and counts whatever the delta path did not:
// a deployment in that interval never delivered, a watched cell whose value
// is not the one last seen (reported at the cursor; the block it moved in is
// what was missed). Zero is the only healthy answer. It costs what a poll
// used to, so Run calls it every auditEvery polls and the differential
// oracle after every block.
func (f *Follower) Audit() (mismatches int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cursor := f.cursor.Load()
	if cursor == f.audited {
		return 0, nil
	}
	seen := make(map[etypes.Address]struct{}, len(f.delivered))
	for _, a := range f.delivered {
		seen[a] = struct{}{}
	}
	var missed []etypes.Address
	re := chain.CaptureReadError(func() {
		for _, a := range f.cfg.Reader.Contracts() {
			if _, ok := seen[a]; ok {
				continue
			}
			if at := f.cfg.Reader.CreatedAt(a); at > f.audited && at <= cursor {
				missed = append(missed, a)
			}
		}
	})
	if re != nil {
		return 0, re
	}
	// Snapshot: handling a moved cell may rebuild a proxy's entries.
	moved, err := f.check(append([]*watchEntry(nil), f.watched...), cursor)
	f.stats.auditMismatches.Add(uint64(moved))
	if err == nil {
		err = f.deploy(missed, cursor)
	}
	if err != nil {
		return moved, err
	}
	f.stats.auditMismatches.Add(uint64(len(missed)))
	f.stats.auditRuns.Add(1)
	f.audited = cursor
	if f.deployed == cursor {
		f.delivered = nil
	} // else a block awaiting its retry has deliveries the next audit must know of
	return moved + len(missed), nil
}

// handleUpgrade invalidates exactly the affected proxy's verdicts,
// re-analyzes it against the new logic, and delivers the event.
func (f *Follower) handleUpgrade(e *watchEntry, b uint64, v etypes.Hash) error {
	ev := UpgradeEvent{
		Block: b, Proxy: e.proxy, WatchAddr: e.cell.Addr, Slot: e.cell.Slot,
		OldValue: e.last, NewValue: v,
	}
	if f.beforeInvalidate != nil {
		f.beforeInvalidate(ev)
	}
	n, err := f.cfg.Analyzer.Invalidate(e.proxy)
	f.stats.invalidations.Add(uint64(n))
	if err != nil {
		return err
	}
	items, err := f.cfg.Analyzer.Analyze([]etypes.Address{e.proxy})
	if err != nil {
		return err
	}
	// The beacon pointer itself moved: the watch topology is stale —
	// rebuild this proxy's entries around the new beacon.
	repointed := len(items) == 1 && e.cell == chain.Cell{Addr: e.proxy, Slot: proxion.SlotEIP1967Beacon}
	var plan []*watchEntry
	if repointed {
		if plan, err = f.plan(items[0].Report, b); err != nil {
			return err
		}
	}
	f.stats.upgradesDetected.Add(1)
	f.stats.reanalyses.Add(1)
	e.last = v
	if len(items) == 1 {
		ev.Item = &items[0]
	}
	if repointed {
		f.removeEntries(e.proxy)
		f.commit(plan)
	}
	if f.cfg.OnUpgrade != nil {
		f.cfg.OnUpgrade(ev)
	}
	return nil
}

// track plans and commits the watch entries of freshly analyzed contracts,
// all or none: a failed anchoring read leaves the watched set as it was.
func (f *Follower) track(items []proxion.Item, b uint64) error {
	var all []*watchEntry
	for _, it := range items {
		plan, err := f.plan(it.Report, b)
		if err != nil {
			return err
		}
		all = append(all, plan...)
	}
	f.commit(all)
	return nil
}

// plan derives the watch entries for a fresh verdict, anchoring cell values
// as of block b:
//
//   - TargetStorage: watch the proxy's own implementation slot.
//   - TargetHardcoded with a nonzero EIP-1967 beacon slot pointing at a
//     contract whose static summary reads exactly one constant slot:
//     watch that beacon cell (the implementation) plus the proxy's beacon
//     pointer (re-pointing to a new beacon rebuilds the plan).
//   - anything else (minimal proxies, plain forwarders, non-proxies): the
//     delegate is immutable — nothing to watch.
//
// A read the node could not serve is returned, never skipped: an entry that
// silently failed to anchor is a proxy whose upgrades are lost for good.
func (f *Follower) plan(rep proxion.Report, b uint64) ([]*watchEntry, error) {
	if !rep.IsProxy {
		return nil, nil
	}
	var plan []*watchEntry
	re := chain.CaptureReadError(func() {
		switch rep.Target {
		case proxion.TargetStorage:
			plan = []*watchEntry{{proxy: rep.Address, cell: chain.Cell{Addr: rep.Address, Slot: rep.ImplSlot}}}
		case proxion.TargetHardcoded:
			if cell, ok := f.beaconCell(rep.Address, b); ok {
				plan = []*watchEntry{
					{proxy: rep.Address, cell: cell},
					{proxy: rep.Address, cell: chain.Cell{Addr: rep.Address, Slot: proxion.SlotEIP1967Beacon}},
				}
			}
		}
		for _, e := range plan {
			e.last = f.cfg.Reader.GetStorageAt(e.cell.Addr, e.cell.Slot, b)
		}
	})
	if re != nil {
		return nil, re
	}
	return plan, nil
}

// beaconCell resolves a hard-coded-target proxy's beacon indirection as of
// block b: the EIP-1967 beacon slot must hold a deployed contract, and
// that contract's static summary must read exactly one constant storage
// slot — the implementation cell. Truncated summaries are refused. Runs
// under plan's CaptureReadError.
func (f *Follower) beaconCell(proxy etypes.Address, b uint64) (chain.Cell, bool) {
	v := f.cfg.Reader.GetStorageAt(proxy, proxion.SlotEIP1967Beacon, b)
	if v == (etypes.Hash{}) {
		return chain.Cell{}, false
	}
	beacon := etypes.BytesToAddress(v[:])
	code := f.cfg.Reader.Code(beacon)
	if len(code) == 0 {
		return chain.Cell{}, false
	}
	sum := static.Analyze(code)
	if sum.Truncated || len(sum.SlotReads) != 1 {
		return chain.Cell{}, false
	}
	return chain.Cell{Addr: beacon, Slot: sum.SlotReads[0]}, true
}

// commit adds planned entries to the watched set and the cell index, in
// tracking order.
func (f *Follower) commit(plan []*watchEntry) {
	for _, e := range plan {
		e.seq = f.nextSeq
		f.nextSeq++
		f.watched = append(f.watched, e)
		f.byCell[e.cell] = append(f.byCell[e.cell], e)
	}
	f.stats.watched.Add(uint64(len(plan)))
}

// removeEntries kills every watched cell belonging to proxy.
func (f *Follower) removeEntries(proxy etypes.Address) {
	kept := f.watched[:0]
	for _, e := range f.watched {
		if e.proxy != proxy {
			kept = append(kept, e)
			continue
		}
		e.dead = true
		f.stats.watched.Add(^uint64(0))
		peers := slices.DeleteFunc(f.byCell[e.cell], func(p *watchEntry) bool { return p == e })
		if len(peers) == 0 {
			delete(f.byCell, e.cell)
		} else {
			f.byCell[e.cell] = peers
		}
	}
	f.watched = kept
}

// checkpointState is the cursor file's JSON shape.
type checkpointState struct {
	Cursor uint64 `json:"cursor"`
}

// checkpoint writes the cursor atomically (temp file + rename), so a
// crash leaves either the previous checkpoint or the new one, never a
// torn file.
func (f *Follower) checkpoint() error {
	if f.cfg.CheckpointPath == "" {
		return nil
	}
	data, err := json.Marshal(checkpointState{Cursor: f.cursor.Load()})
	if err != nil {
		return err
	}
	tmp := f.cfg.CheckpointPath + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.cfg.CheckpointPath)
}

// loadCheckpoint reads a cursor file; a missing file means a cold start.
func loadCheckpoint(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, err
	}
	return st.Cursor, nil
}
