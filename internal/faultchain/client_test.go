package faultchain_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// testChain builds a small chain with a handful of storage-bearing accounts
// for direct client exercises.
func testChain(accounts int) (*chain.Chain, []etypes.Address) {
	c := chain.New()
	addrs := make([]etypes.Address, accounts)
	for i := range addrs {
		var a etypes.Address
		a[19] = byte(i + 1)
		a[0] = 0xfc
		addrs[i] = a
		c.InstallContract(a, []byte{0x60, 0x00, 0x60, 0x00, byte(i)})
		var slot, val etypes.Hash
		slot[31] = byte(i)
		val[31] = byte(i + 100)
		c.SetStorageDirect(a, slot, val)
		c.AdvanceBlocks(3)
	}
	return c, addrs
}

// readEverything performs the full read mix against a client, checking the
// values against the fault-free chain.
func readEverything(t *testing.T, cl *faultchain.Client, base *chain.Chain, addrs []etypes.Address) {
	t.Helper()
	head := base.CurrentBlock()
	for i, a := range addrs {
		if got, want := cl.CodeHash(a), base.CodeHash(a); got != want {
			t.Errorf("CodeHash(%v) = %x, want %x", a, got, want)
		}
		var slot etypes.Hash
		slot[31] = byte(i)
		if got, want := cl.GetState(a, slot), base.GetState(a, slot); got != want {
			t.Errorf("GetState(%v) = %x, want %x", a, got, want)
		}
		if got, want := cl.GetStorageAt(a, slot, head), base.GetStorageAt(a, slot, head); got != want {
			t.Errorf("GetStorageAt(%v) = %x, want %x", a, got, want)
		}
	}
}

// TestClientConcurrentRetries hammers a fault-injecting client from many
// goroutines under -race: every read must come back correct despite ~30%
// of them failing twice, and the retry count must equal the deterministic
// sum of scheduled failing attempts regardless of interleaving.
func TestClientConcurrentRetries(t *testing.T) {
	base, addrs := testChain(8)
	sched := faultchain.NewSchedule(faultchain.ErrorBurst(), 11)
	cl, inj := faultchain.NewResilientReader(base, &sched, chaosOpts())

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readEverything(t, cl, base, addrs)
		}()
	}
	wg.Wait()

	st := inj.Stats()
	if st.Total() == 0 {
		t.Fatalf("schedule injected nothing; test is vacuous")
	}
	m := cl.Metrics()
	// Keyed injection: each faulted read fails exactly Depth attempts
	// globally, and each failing attempt triggers exactly one retry.
	if m.Retries != st.Total() {
		t.Errorf("retries = %d, want the %d scheduled failing attempts", m.Retries, st.Total())
	}
	if m.Unresolved != 0 {
		t.Errorf("%d reads terminally failed below the retry budget", m.Unresolved)
	}
	if cl.BreakerOpen() {
		t.Errorf("breaker open after an all-recoverable run")
	}
}

// flakyNode fails State reads terminally (non-healing) while its down flag
// is set, for direct breaker control. Its fault method is the client's
// fault hook.
type flakyNode struct {
	down atomic.Bool
}

func (f *flakyNode) fault(_ context.Context, r faultchain.Read) error {
	if r.Op == "state" && f.down.Load() {
		return faultchain.ErrTransient
	}
	return nil
}

// TestBreakerOpensAndRecovers drives the breaker through its full cycle:
// consecutive terminal failures open it, an open breaker fails fast without
// touching the node, and once the node heals a half-open probe closes it
// again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	base, addrs := testChain(2)
	fb := &flakyNode{}
	fb.down.Store(true)
	opts := chaosOpts()
	opts.MaxRetries = 1
	opts.BreakerThreshold = 4
	opts.BreakerProbe = 3
	cl := faultchain.NewClient(base, fb.fault, opts)

	read := func() (failed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*chain.ReadError); !ok {
					panic(r)
				}
				failed = true
			}
		}()
		cl.GetState(addrs[0], etypes.Hash{})
		return false
	}

	for i := 0; i < opts.BreakerThreshold; i++ {
		if !read() {
			t.Fatalf("read %d succeeded against a down node", i)
		}
	}
	if !cl.BreakerOpen() {
		t.Fatalf("breaker still closed after %d consecutive terminal failures", opts.BreakerThreshold)
	}
	for i := 0; i < 2*opts.BreakerProbe; i++ {
		read()
	}
	if ff := cl.Metrics().FailFast; ff == 0 {
		t.Fatalf("open breaker never failed fast")
	}
	if trips := cl.Metrics().BreakerTrips; trips != 1 {
		t.Fatalf("breaker tripped %d times, want exactly 1", trips)
	}

	// Node heals: within one probe window a read must get through, succeed,
	// and close the breaker for everyone.
	fb.down.Store(false)
	for i := 0; i < opts.BreakerProbe; i++ {
		read()
	}
	if cl.BreakerOpen() {
		t.Fatalf("breaker still open after a successful half-open probe")
	}
	if read() {
		t.Fatalf("read failed after the breaker closed on a healed node")
	}
}

// TestBreakerConcurrent exercises open/probe/close transitions from many
// goroutines under -race; the invariant is purely "no race, no panic other
// than ReadError, breaker closed at the end".
func TestBreakerConcurrent(t *testing.T) {
	base, addrs := testChain(4)
	fb := &flakyNode{}
	fb.down.Store(true)
	opts := chaosOpts()
	opts.MaxRetries = 0
	opts.BreakerThreshold = 4
	opts.BreakerProbe = 2
	cl := faultchain.NewClient(base, fb.fault, opts)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i == 25 && g == 0 {
					fb.down.Store(false)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(*chain.ReadError); !ok {
								panic(r)
							}
						}
					}()
					cl.GetState(addrs[i%len(addrs)], etypes.Hash{})
				}()
			}
		}(g)
	}
	wg.Wait()
	if cl.GetState(addrs[0], etypes.Hash{}) != base.GetState(addrs[0], etypes.Hash{}) {
		t.Fatalf("client returns wrong state after recovery")
	}
	if cl.BreakerOpen() {
		t.Fatalf("breaker open after the node healed and a read succeeded")
	}
}

// TestCancelDuringBackoff pins prompt unwinding: a read stuck in retry
// backoff must observe context cancellation within the backoff tick, not
// sleep out its full schedule.
func TestCancelDuringBackoff(t *testing.T) {
	base, addrs := testChain(1)
	ctx, cancel := context.WithCancel(context.Background())
	sched := faultchain.NewSchedule(faultchain.Outage(), 1)
	opts := faultchain.Options{
		BackoffBase: 30 * time.Second, // would stall the test if cancel is ignored
		BackoffMax:  30 * time.Second,
		Context:     ctx,
	}
	cl, _ := faultchain.NewResilientReader(base, &sched, opts)

	done := make(chan error, 1)
	go func() {
		defer func() {
			r := recover()
			re, ok := r.(*chain.ReadError)
			if !ok {
				done <- fmt.Errorf("expected a ReadError panic, got %v", r)
				return
			}
			if !errors.Is(re, context.Canceled) {
				done <- fmt.Errorf("terminal error %v, want context.Canceled", re)
				return
			}
			done <- nil
		}()
		cl.GetState(addrs[0], etypes.Hash{})
	}()

	time.Sleep(20 * time.Millisecond) // let the read reach its first backoff
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("read did not unwind from backoff after cancellation")
	}
}

// TestPipelineCancelMidStream mirrors the pipeline's stats_edge cancel
// test at the chain boundary: cancelling the client context mid-analysis
// must let the whole streaming engine drain promptly, with every contract
// accounted for — resolved or Unresolved — and no escaping panic.
func TestPipelineCancelMidStream(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 11})
	ctx, cancel := context.WithCancel(context.Background())
	sched := faultchain.NewSchedule(faultchain.Mixed(), 4)
	opts := faultchain.Options{
		BackoffBase: 20 * time.Millisecond, // long enough that cancel lands mid-backoff
		BackoffMax:  80 * time.Millisecond,
		Context:     ctx,
	}
	cl, _ := faultchain.NewResilientReader(c.Chain, &sched, opts)
	det := proxion.NewDetector(cl)

	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	resCh := make(chan *proxion.Result, 1)
	go func() { resCh <- det.AnalyzeAll(c.Registry) }()
	var res *proxion.Result
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("analysis did not drain after mid-stream cancellation")
	}
	if len(res.Reports) != len(c.Labels) {
		t.Fatalf("cancelled run dropped contracts: %d reports for %d labels", len(res.Reports), len(c.Labels))
	}
	for _, rep := range res.Reports {
		if rep.Address.IsZero() {
			t.Fatalf("cancelled run left an empty report slot")
		}
	}
}

// TestAPICallAccounting is the regression test for retry-safe read
// accounting: the engine measures getStorageAt usage as a before/after
// delta of APICalls (engine.go), which historically assumed exactly-once
// reads. Through the resilient client the count must stay logical — one
// per read, not per attempt — monotonic, and equal to the fault-free
// count, even while the underlying node observes every retried attempt.
func TestAPICallAccounting(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 2})
	baseline := proxion.NewDetector(c.Chain).AnalyzeAllWithOptions(c.Registry,
		proxion.AnalyzeOptions{WithHistory: true})
	nodeCallsFaultFree := c.Chain.APICalls()

	c2 := gen.Generate(gen.Config{Seed: 2})
	sched := faultchain.NewSchedule(faultchain.ErrorBurst(), 8)
	cl, inj := faultchain.NewResilientReader(c2.Chain, &sched, chaosOpts())
	res := proxion.NewDetector(cl).AnalyzeAllWithOptions(c2.Registry,
		proxion.AnalyzeOptions{WithHistory: true})

	if got, want := res.Stats.StorageAPICalls, baseline.Stats.StorageAPICalls; got != want {
		t.Errorf("faulted run reports %d logical getStorageAt calls, fault-free run %d", got, want)
	}
	if got, want := cl.APICalls(), nodeCallsFaultFree; got != want {
		t.Errorf("client logical count %d, fault-free chain count %d", got, want)
	}
	// The node underneath must have served strictly more physical reads
	// than the logical count whenever storage reads were retried — the
	// exactly-once assumption is really gone from the accounting path.
	storageRetried := false
	st := inj.Stats()
	if st.Total() > 0 && c2.Chain.APICalls() > cl.APICalls() {
		storageRetried = true
	}
	if !storageRetried {
		t.Logf("note: no storage read was retried under this schedule (injected=%d)", st.Total())
	}

	// Monotonicity: a second analysis over the same client only grows the
	// logical counter.
	before := cl.APICalls()
	proxion.NewDetector(cl).AnalyzeAllWithOptions(c2.Registry, proxion.AnalyzeOptions{WithHistory: true})
	if after := cl.APICalls(); after < before {
		t.Errorf("APICalls moved backwards: %d then %d", before, after)
	}
}

// TestEveryReadConsultsTheFaultHook: every chain.Reader read of a Client —
// found by reflection, so a read added to the interface later is covered
// too — asks the fault hook once per attempt, under an op of its own and
// with the account it reads; a never-healing hook fails it as a
// *chain.ReadError carrying that op. APICalls is a counter, not a read.
func TestEveryReadConsultsTheFaultHook(t *testing.T) {
	base, addrs := testChain(2)
	reader := reflect.TypeOf((*chain.Reader)(nil)).Elem()
	addrType := reflect.TypeOf(etypes.Address{})
	ops := map[string]string{}
	for i := 0; i < reader.NumMethod(); i++ {
		m := reader.Method(i)
		if m.Name == "APICalls" {
			continue
		}
		args := make([]reflect.Value, m.Type.NumIn())
		takesAddr := false
		for j := range args {
			if in := m.Type.In(j); in == addrType {
				args[j], takesAddr = reflect.ValueOf(addrs[1]), true
			} else {
				args[j] = reflect.Zero(in)
			}
		}
		call := func(cl *faultchain.Client) { reflect.ValueOf(cl).MethodByName(m.Name).Call(args) }

		// The first attempt fails and the second is served: two hook calls
		// for one read, about the same Read.
		var seen []faultchain.Read
		cl := faultchain.NewClient(base, func(_ context.Context, r faultchain.Read) error {
			seen = append(seen, r)
			if len(seen) == 1 {
				return faultchain.ErrTransient
			}
			return nil
		}, chaosOpts())
		if re := chain.CaptureReadError(func() { call(cl) }); re != nil {
			t.Errorf("%s: failed after one faulted attempt: %v", m.Name, re)
			continue
		}
		if len(seen) != 2 || seen[0] != seen[1] || cl.Metrics().Retries != 1 {
			t.Errorf("%s: hook saw %+v over %d retries, want one Read twice over one retry",
				m.Name, seen, cl.Metrics().Retries)
			continue
		}
		r := seen[0]
		if prev, dup := ops[r.Op]; dup || r.Op == "" {
			t.Errorf("%s: op %q is not its own (also %s)", m.Name, r.Op, prev)
		}
		ops[r.Op] = m.Name
		if takesAddr && r.Addr != addrs[1] {
			t.Errorf("%s: hook saw account %v, the read is about %v", m.Name, r.Addr, addrs[1])
		}

		attempts := 0
		down := faultchain.NewClient(base, func(context.Context, faultchain.Read) error {
			attempts++
			return faultchain.ErrTransient
		}, chaosOpts())
		re := chain.CaptureReadError(func() { call(down) })
		switch {
		case re == nil:
			t.Errorf("%s: served under a never-healing hook", m.Name)
		case re.Op != r.Op || !errors.Is(re, faultchain.ErrTransient):
			t.Errorf("%s: failed as %v, want op %q and the hook's error", m.Name, re, r.Op)
		case attempts != re.Attempts || attempts != 5:
			t.Errorf("%s: %d hook calls for %d attempts, want 5 each", m.Name, attempts, re.Attempts)
		}
	}
	if len(ops) != reader.NumMethod()-1 {
		t.Errorf("%d reads reached the hook under distinct ops, chain.Reader has %d", len(ops), reader.NumMethod()-1)
	}
}
