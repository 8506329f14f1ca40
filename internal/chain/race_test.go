package chain_test

import (
	"sync"
	"testing"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// TestConcurrentReadsDuringExecution hammers the chain's read API from many
// goroutines while transactions commit concurrently — the exact shape of
// the streaming pipeline probing contracts while a dataset generator or
// replay mutates state. Run with -race; the assertions only sanity-check
// that reads observe consistent values.
func TestConcurrentReadsDuringExecution(t *testing.T) {
	c := chain.New()
	target := etypes.MustAddress("0x00000000000000000000000000000000000000c1")
	c.InstallContract(target, storeArgContract())

	var others []etypes.Address
	for i := byte(1); i <= 8; i++ {
		addr := etypes.BytesToAddress([]byte{0xd0, i})
		c.InstallContract(addr, storeArgContract())
		others = append(others, addr)
	}

	var wg sync.WaitGroup
	const writers, readers, rounds = 2, 8, 50

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rc := c.Execute(alice, target, word(uint64(w*rounds+i+1)), 0, u256.Zero())
				if rc.Err != nil {
					t.Errorf("execute: %v", rc.Err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, addr := range others {
					if len(c.Code(addr)) == 0 {
						t.Error("installed contract lost its code")
						return
					}
					c.GetState(addr, etypes.Hash{})
					c.GetStorageAt(addr, etypes.Hash{}, c.CurrentBlock())
					c.CreatedAt(addr)
					c.IsDestroyed(addr)
				}
				if got := len(c.Contracts()); got < 9 {
					t.Errorf("contracts = %d, want >= 9", got)
					return
				}
				c.DelegateEvents()
				c.TxCount(target)
				c.LatestHeader()
			}
		}()
	}
	wg.Wait()

	// All writes committed: slot 0 holds one of the written values and the
	// history depth equals the number of executed transactions.
	if v := c.GetState(target, etypes.Hash{}); v == (etypes.Hash{}) {
		t.Error("target slot 0 still zero after concurrent writes")
	}
	if got := c.TxCount(target); got != writers*rounds {
		t.Errorf("tx count = %d, want %d", got, writers*rounds)
	}
}
