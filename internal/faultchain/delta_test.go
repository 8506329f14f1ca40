package faultchain_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/faultchain"
)

// TestBlockDeltaThroughTheStack pins the delta read through the resilient
// client and its injector. Below the retry budget each block's delta comes
// through identical to the chain's own, with faults actually
// injected (block-keyed: the same block faults on every run) and retried;
// it is not a GetStorageAt and is never counted as one. Above the budget
// the read fails as a *chain.ReadError naming it — never as a short delta.
func TestBlockDeltaThroughTheStack(t *testing.T) {
	base, _ := testChain(16)
	head := base.CurrentBlock()

	for _, p := range faultchain.Profiles() {
		sched := faultchain.NewSchedule(p, 11)
		cl, inj := faultchain.NewResilientReader(base, &sched, chaosOpts())
		for b := uint64(0); b <= head; b++ {
			if got, want := cl.BlockDelta(b), base.BlockDelta(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: BlockDelta(%d) = %+v through the stack, chain says %+v", p.Name, b, got, want)
			}
		}
		st := inj.Stats()
		if st.Total() == 0 || cl.Metrics().Retries != st.Total() {
			t.Errorf("%s: %d fault(s) injected into %d delta reads, %d retries", p.Name, st.Total(), head+1, cl.Metrics().Retries)
		}
		if p.Name == "stale-replica" && st.Stale == 0 {
			t.Errorf("stale-replica: no near-head delta read was served stale")
		}
		if n := cl.APICalls(); n != 0 {
			t.Errorf("%s: delta reads counted as %d getStorageAt calls", p.Name, n)
		}
	}

	deep := faultchain.ErrorBurst()
	deep.Depth = faultchain.DepthForever
	sched := faultchain.NewSchedule(deep, 11)
	cl, _ := faultchain.NewResilientReader(base, &sched, chaosOpts())
	failed := 0
	for b := uint64(0); b <= head; b++ {
		var got chain.BlockDelta
		re := chain.CaptureReadError(func() { got = cl.BlockDelta(b) })
		switch {
		case re == nil:
			if want := base.BlockDelta(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("unfaulted BlockDelta(%d) = %+v, chain says %+v", b, got, want)
			}
		case re.Op != "block-delta" || !errors.Is(re, faultchain.ErrTransient):
			t.Fatalf("BlockDelta(%d) failed as %v", b, re)
		default:
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("no delta read failed under a never-healing 30%% fault rate over %d blocks", head+1)
	}
}

// TestBlockDeltaBeyondHeadIsAnError: a replay view asked for a block it has
// not reached must refuse, exactly as it refuses a GetStorageAt there — an
// empty delta would let a follower step over the block.
func TestBlockDeltaBeyondHeadIsAnError(t *testing.T) {
	base, addrs := testChain(4)
	head := base.CurrentBlock()
	base.SetStorageDirect(addrs[0], etypes.Hash{31: 9}, etypes.Hash{31: 9}) // the head block changes something
	replay := faultchain.NewReplayReader(base)
	replay.SetHead(head - 2)

	if got, want := replay.BlockDelta(head-2), base.BlockDelta(head-2); !reflect.DeepEqual(got, want) {
		t.Errorf("delta at its head = %+v, want %+v", got, want)
	}
	re := chain.CaptureReadError(func() { replay.BlockDelta(head - 1) })
	if re == nil || re.Op != "block-delta" {
		t.Errorf("delta beyond its head returned %v, want a block-delta ReadError", re)
	}
}

// TestStaleEligibilityFollowsTheHead: a height-pinned read is eligible for
// the stale-replica fault while its block is within StaleLag of the head
// as the node reports it now, not as it was at the first read. A replica
// lagging 2 blocks is stale about block 1 at head 1 and has long caught up
// with it at head 48; it is stale about block 48 then.
func TestStaleEligibilityFollowsTheHead(t *testing.T) {
	base, addrs := testChain(16)
	replay := faultchain.NewReplayReader(base)
	replay.SetHead(1)
	sched := faultchain.NewSchedule(faultchain.Profile{Name: "always-stale", StaleRate: 1, StaleLag: 2, Depth: 1}, 1)
	cl, inj := faultchain.NewResilientReader(replay, &sched, chaosOpts())

	cl.BlockDelta(1)
	if n := inj.Stats().Stale; n != 1 {
		t.Fatalf("BlockDelta(1) at head 1 was served stale %d times, want 1", n)
	}
	replay.SetHead(48)
	var slot etypes.Hash
	cl.GetStorageAt(addrs[0], slot, 1)
	if n := inj.Stats().Stale; n != 1 {
		t.Errorf("GetStorageAt at block 1 under head 48 was served stale (%d stale faults, want 1)", n)
	}
	cl.GetStorageAt(addrs[0], slot, 48)
	if n := inj.Stats().Stale; n != 2 {
		t.Errorf("GetStorageAt at the head was not served stale (%d stale faults, want 2)", n)
	}
}
