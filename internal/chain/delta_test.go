package chain_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

func slotN(n uint64) etypes.Hash { return etypes.HashFromWord(u256.FromUint64(n)) }

func wantDelta(t *testing.T, c *chain.Chain, b uint64, want chain.BlockDelta) {
	t.Helper()
	if got := c.BlockDelta(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("BlockDelta(%d) = %+v, want %+v", b, got, want)
	}
}

// TestBlockDeltaPerWriteKind: each way of changing the chain lands in the
// delta of the block it happened in, and blocks that changed nothing — or
// do not exist yet — have the zero delta.
func TestBlockDeltaPerWriteKind(t *testing.T) {
	c := chain.New()
	wantDelta(t, c, 0, chain.BlockDelta{})
	wantDelta(t, c, 99, chain.BlockDelta{})

	hi := etypes.MustAddress("0x00000000000000000000000000000000000000c2")
	lo := etypes.MustAddress("0x00000000000000000000000000000000000000c1")
	c.AdvanceBlocks(1)
	c.InstallContract(hi, storeArgContract())
	c.InstallContract(lo, storeArgContract())
	c.SetStorageDirect(hi, slotN(7), slotN(1))
	wantDelta(t, c, 1, chain.BlockDelta{
		Deployed: []etypes.Address{lo, hi}, // address order, not install order
		Written:  []chain.Cell{{Addr: hi, Slot: slotN(7)}},
	})

	c.AdvanceBlocks(3)
	wantDelta(t, c, 3, chain.BlockDelta{})

	rc := c.Execute(alice, lo, word(5), 0, u256.Zero())
	if !rc.Status {
		t.Fatalf("execute: %v", rc.Err)
	}
	wantDelta(t, c, rc.Block, chain.BlockDelta{Written: []chain.Cell{{Addr: lo, Slot: etypes.Hash{}}}})

	runtime := []byte{byte(evm.PUSH0), byte(evm.STOP)}
	var init asm.Program
	init.PushUint(uint64(len(runtime))).PushLabel("rt").PushUint(0).Op(evm.CODECOPY).
		PushUint(uint64(len(runtime))).PushUint(0).Op(evm.RETURN).
		DataLabel("rt").Raw(runtime)
	rc = c.Deploy(alice, init.MustAssemble(), 0, u256.Zero())
	if !rc.Status {
		t.Fatalf("deploy: %v", rc.Err)
	}
	wantDelta(t, c, rc.Block, chain.BlockDelta{Deployed: []etypes.Address{rc.ContractAddress}})

	// Earlier blocks still answer as they did.
	wantDelta(t, c, 1, chain.BlockDelta{
		Deployed: []etypes.Address{lo, hi},
		Written:  []chain.Cell{{Addr: hi, Slot: slotN(7)}},
	})
}

// TestBlockDeltaSameBlockOverwriteListedOnce: the archive keeps one value
// per cell per block, and the delta one mention.
func TestBlockDeltaSameBlockOverwriteListedOnce(t *testing.T) {
	c := chain.New()
	a := etypes.MustAddress("0x00000000000000000000000000000000000000c1")
	c.AdvanceBlocks(1)
	c.SetStorageDirect(a, slotN(1), slotN(10))
	c.SetStorageDirect(a, slotN(2), slotN(20))
	c.SetStorageDirect(a, slotN(1), slotN(11))
	c.SetState(a, slotN(1), slotN(12))
	wantDelta(t, c, 1, chain.BlockDelta{Written: []chain.Cell{
		{Addr: a, Slot: slotN(1)}, {Addr: a, Slot: slotN(2)},
	}})
	c.AdvanceBlocks(1)
	c.SetStorageDirect(a, slotN(1), slotN(13))
	wantDelta(t, c, 2, chain.BlockDelta{Written: []chain.Cell{{Addr: a, Slot: slotN(1)}}})
}

// TestBlockDeltaRevertLeavesNoTrace: journaled writes and code undone by
// RevertToSnapshot — directly, or by a transaction that reverts — leave
// every delta exactly as it was.
func TestBlockDeltaRevertLeavesNoTrace(t *testing.T) {
	c := chain.New()
	a := etypes.MustAddress("0x00000000000000000000000000000000000000c1")
	b := etypes.MustAddress("0x00000000000000000000000000000000000000c2")
	c.AdvanceBlocks(1)
	c.InstallContract(a, storeArgContract())
	c.SetStorageDirect(a, slotN(1), slotN(10))
	before := c.BlockDelta(1)

	snap := c.Snapshot()
	c.SetState(a, slotN(1), slotN(11)) // overwrite of a cell already listed
	c.SetState(a, slotN(2), slotN(20)) // new cell
	c.SetState(b, slotN(3), slotN(30)) // new account
	c.SetCode(b, storeArgContract())
	c.SetCode(a, []byte{byte(evm.STOP)})
	if got := c.BlockDelta(1); len(got.Written) != 3 || len(got.Deployed) != 2 {
		t.Fatalf("mid-snapshot delta %+v: the writes did not register", got)
	}
	c.RevertToSnapshot(snap)
	wantDelta(t, c, 1, before)
	if v := c.GetStorageAt(a, slotN(1), 1); v != slotN(10) {
		t.Fatalf("revert left slot at %x", v)
	}

	// A transaction that writes and then reverts.
	var p asm.Program
	p.PushUint(1).PushUint(9).Op(evm.SSTORE).PushUint(0).PushUint(0).Op(evm.REVERT)
	r := etypes.MustAddress("0x00000000000000000000000000000000000000c3")
	c.InstallContract(r, p.MustAssemble())
	rc := c.Execute(alice, r, nil, 0, u256.Zero())
	if rc.Status {
		t.Fatalf("reverting contract succeeded")
	}
	wantDelta(t, c, rc.Block, chain.BlockDelta{})
}

// TestBlockDeltaDeploymentBlockRule: an address is reported in the delta of
// the block CreatedAt names and nowhere else — a re-deployment moves it, a
// self-destruct removes it, matching what Contracts enumerates.
func TestBlockDeltaDeploymentBlockRule(t *testing.T) {
	c := chain.New()
	a := etypes.MustAddress("0x00000000000000000000000000000000000000c1")
	c.AdvanceBlocks(1)
	c.InstallContract(a, storeArgContract())
	c.InstallContract(a, storeArgContract()) // twice in one block: one deployment
	wantDelta(t, c, 1, chain.BlockDelta{Deployed: []etypes.Address{a}})

	c.AdvanceBlocks(1)
	c.InstallContract(a, storeArgContract())
	wantDelta(t, c, 1, chain.BlockDelta{})
	wantDelta(t, c, 2, chain.BlockDelta{Deployed: []etypes.Address{a}})

	var p asm.Program
	p.PushBytes(bob[:]).Op(evm.SELFDESTRUCT)
	d := etypes.MustAddress("0x00000000000000000000000000000000000000c5")
	c.InstallContract(d, p.MustAssemble())
	wantDelta(t, c, 2, chain.BlockDelta{Deployed: []etypes.Address{a, d}})
	if rc := c.Execute(alice, d, nil, 0, u256.Zero()); !rc.Status {
		t.Fatalf("self-destruct tx failed: %v", rc.Err)
	}
	wantDelta(t, c, 2, chain.BlockDelta{Deployed: []etypes.Address{a}})
	for _, got := range c.Contracts() {
		if got == d {
			t.Fatalf("destroyed contract enumerated")
		}
	}
}

// TestBlockDeltaIndexReleased pins the index's memory contract: Forget
// takes an account's deployment and writes with it, TrimEvents everything
// below a height.
func TestBlockDeltaIndexReleased(t *testing.T) {
	c := chain.New()
	var addrs []etypes.Address
	for i := byte(1); i <= 50; i++ {
		a := etypes.BytesToAddress([]byte{0xd0, i})
		addrs = append(addrs, a)
		c.AdvanceBlocks(1)
		c.InstallContract(a, storeArgContract())
		c.SetStorageDirect(a, slotN(1), slotN(uint64(i)))
		c.Execute(alice, a, word(uint64(i)), 0, u256.Zero())
	}
	if got, want := c.DeltaIndexSize(), 3*len(addrs); got != want {
		t.Fatalf("index holds %d entries, want %d", got, want)
	}
	for _, a := range addrs[:25] {
		c.Forget(a)
	}
	if got, want := c.DeltaIndexSize(), 3*25; got != want {
		t.Fatalf("index holds %d entries after forgetting half, want %d", got, want)
	}
	wantDelta(t, c, 1, chain.BlockDelta{})
	c.TrimEvents(c.CurrentBlock() + 1)
	if got := c.DeltaIndexSize(); got != 0 {
		t.Fatalf("index holds %d entries after trimming every block", got)
	}
	wantDelta(t, c, c.CurrentBlock(), chain.BlockDelta{})

	// The index keeps working after a trim.
	c.AdvanceBlocks(1)
	c.SetStorageDirect(addrs[30], slotN(2), slotN(2))
	wantDelta(t, c, c.CurrentBlock(), chain.BlockDelta{Written: []chain.Cell{{Addr: addrs[30], Slot: slotN(2)}}})
}

// TestBlockDeltaConcurrentReaders reads deltas from many goroutines while
// transactions commit and the index is trimmed. Run with -race.
func TestBlockDeltaConcurrentReaders(t *testing.T) {
	c := chain.New()
	target := etypes.MustAddress("0x00000000000000000000000000000000000000c1")
	c.InstallContract(target, storeArgContract())

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			c.Execute(alice, target, word(uint64(i)), 0, u256.Zero())
			if i%50 == 0 {
				c.TrimEvents(uint64(i) / 2)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				head := c.CurrentBlock()
				for b := head; b+8 > head && b > 0; b-- {
					d := c.BlockDelta(b)
					if len(d.Written) > 1 || (len(d.Written) == 1 && d.Written[0].Addr != target) {
						t.Errorf("BlockDelta(%d) = %+v", b, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	wantDelta(t, c, rounds, chain.BlockDelta{Written: []chain.Cell{{Addr: target, Slot: etypes.Hash{}}}})
}
