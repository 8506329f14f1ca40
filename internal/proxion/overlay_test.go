package proxion

import (
	"bytes"
	"testing"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/u256"
)

// TestOverlayJournalRevertsLazyMaps: a fresh overlay opens no map; each
// setter opens the ones it writes, and reverting to the first snapshot reads
// the base again for every key a setter touched.
func TestOverlayJournalRevertsLazyMaps(t *testing.T) {
	c := chain.New()
	a, b, to, heir := structAddr(0xa1), structAddr(0xb1), structAddr(0xc1), structAddr(0xd1)
	slot := etypes.Keccak([]byte("overlay.slot"))
	c.InstallContract(a, []byte{0x60, 0x01, 0x00})
	c.SetStorageDirect(a, slot, etypes.HashFromWord(u256.FromUint64(7)))
	c.Fund(a, u256.FromUint64(100))
	c.Fund(to, u256.FromUint64(3))
	c.SetNonce(a, 4)

	o := newOverlay(c)
	if o.code != nil || o.storage != nil || o.balance != nil || o.nonce != nil || o.created != nil || o.dead != nil {
		t.Fatal("a fresh overlay holds a map")
	}
	snap := o.Snapshot()
	o.SetState(a, slot, etypes.HashFromWord(u256.FromUint64(8)))
	o.SetCode(a, []byte{0x00})
	o.SetNonce(a, 5)
	o.CreateAccount(b)
	o.Transfer(a, to, u256.FromUint64(10))
	o.SelfDestruct(a, heir)

	// The writes show before the revert.
	if o.GetState(a, slot) == c.GetState(a, slot) || o.GetNonce(a) != 5 || !o.Exists(b) ||
		o.GetCode(a) != nil || !o.GetBalance(heir).Eq(u256.FromUint64(90)) {
		t.Fatal("test setup: the setters changed nothing the overlay reads")
	}

	o.RevertToSnapshot(snap)
	if got, want := o.GetState(a, slot), c.GetState(a, slot); got != want {
		t.Errorf("state after revert %v, want the base's %v", got, want)
	}
	if got, want := o.GetCode(a), c.Code(a); !bytes.Equal(got, want) {
		t.Errorf("code after revert %x, want the base's %x", got, want)
	}
	if got, want := o.GetCodeHash(a), c.CodeHash(a); got != want {
		t.Errorf("code hash after revert %v, want the base's %v", got, want)
	}
	if got, want := o.GetNonce(a), c.GetNonce(a); got != want {
		t.Errorf("nonce after revert %d, want the base's %d", got, want)
	}
	if o.Exists(b) != c.Exists(b) {
		t.Errorf("created account survives the revert")
	}
	for _, addr := range []etypes.Address{a, to, heir} {
		if got, want := o.GetBalance(addr), c.GetBalance(addr); !got.Eq(want) {
			t.Errorf("%s: balance after revert %v, want the base's %v", addr, got, want)
		}
	}
	if len(o.journal) != 0 {
		t.Errorf("%d journal entries left after reverting to the first snapshot", len(o.journal))
	}
}
