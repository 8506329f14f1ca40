package chain

import (
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// Compile-time checks: both the locked Chain and the unlocked execState
// view are usable EVM state backends. External callers (overlays, tests)
// use Chain directly; transaction execution inside this package uses
// execState while holding the chain's write lock, because Go's RWMutex is
// not reentrant.
var (
	_ evm.StateDB = (*Chain)(nil)
	_ evm.StateDB = execState{}
)

// execState is the unlocked view of a Chain handed to the EVM by
// Execute/Deploy/StaticCall, which hold the write lock for the whole run.
type execState struct{ c *Chain }

// Exists reports whether an account record exists.
func (c *Chain) Exists(addr etypes.Address) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.exists(addr)
}

func (c *Chain) exists(addr etypes.Address) bool {
	_, ok := c.accounts[addr]
	return ok
}

func (s execState) Exists(addr etypes.Address) bool { return s.c.exists(addr) }

// GetCode implements evm.StateDB.
func (c *Chain) GetCode(addr etypes.Address) []byte { return c.Code(addr) }

func (s execState) GetCode(addr etypes.Address) []byte { return s.c.code(addr) }

// GetCodeHash implements evm.StateDB, served from the per-account cache.
func (c *Chain) GetCodeHash(addr etypes.Address) etypes.Hash {
	return c.CodeHash(addr)
}

func (s execState) GetCodeHash(addr etypes.Address) etypes.Hash {
	return s.c.getCodeHash(addr)
}

// GetBalance implements evm.StateDB.
func (c *Chain) GetBalance(addr etypes.Address) u256.Int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.getBalance(addr)
}

func (c *Chain) getBalance(addr etypes.Address) u256.Int {
	if acc, ok := c.accounts[addr]; ok {
		return acc.balance
	}
	return u256.Zero()
}

func (s execState) GetBalance(addr etypes.Address) u256.Int { return s.c.getBalance(addr) }

// Transfer implements evm.StateDB with journaling.
func (c *Chain) Transfer(from, to etypes.Address, value u256.Int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transfer(from, to, value)
}

func (c *Chain) transfer(from, to etypes.Address, value u256.Int) {
	src := c.getOrCreate(from)
	dst := c.getOrCreate(to)
	ps, pd := src.balance, dst.balance
	c.journal = append(c.journal, func() { src.balance, dst.balance = ps, pd })
	src.balance = ps.Sub(value)
	dst.balance = pd.Add(value)
}

func (s execState) Transfer(from, to etypes.Address, value u256.Int) {
	s.c.transfer(from, to, value)
}

// GetState implements evm.StateDB.
func (c *Chain) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.getState(addr, key)
}

func (c *Chain) getState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	if acc, ok := c.accounts[addr]; ok {
		return acc.storage[key]
	}
	return etypes.Hash{}
}

func (s execState) GetState(addr etypes.Address, key etypes.Hash) etypes.Hash {
	return s.c.getState(addr, key)
}

// SetState implements evm.StateDB; writes are journaled and recorded in the
// archive history at the current block.
func (c *Chain) SetState(addr etypes.Address, key, value etypes.Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeStorage(addr, key, value, true)
}

func (s execState) SetState(addr etypes.Address, key, value etypes.Hash) {
	s.c.writeStorage(addr, key, value, true)
}

// GetNonce implements evm.StateDB.
func (c *Chain) GetNonce(addr etypes.Address) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.getNonce(addr)
}

func (c *Chain) getNonce(addr etypes.Address) uint64 {
	if acc, ok := c.accounts[addr]; ok {
		return acc.nonce
	}
	return 0
}

func (s execState) GetNonce(addr etypes.Address) uint64 { return s.c.getNonce(addr) }

// SetNonce implements evm.StateDB with journaling.
func (c *Chain) SetNonce(addr etypes.Address, nonce uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setNonce(addr, nonce)
}

func (c *Chain) setNonce(addr etypes.Address, nonce uint64) {
	acc := c.getOrCreate(addr)
	prev := acc.nonce
	c.journal = append(c.journal, func() { acc.nonce = prev })
	acc.nonce = nonce
}

func (s execState) SetNonce(addr etypes.Address, nonce uint64) { s.c.setNonce(addr, nonce) }

// CreateAccount implements evm.StateDB.
func (c *Chain) CreateAccount(addr etypes.Address) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.getOrCreate(addr)
}

func (s execState) CreateAccount(addr etypes.Address) { s.c.getOrCreate(addr) }

// SetCode implements evm.StateDB with journaling.
func (c *Chain) SetCode(addr etypes.Address, code []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setCode(addr, code)
}

func (c *Chain) setCode(addr etypes.Address, code []byte) {
	acc := c.getOrCreate(addr)
	prev := acc.code
	prevHash := acc.codeHash
	prevBlock := acc.createdAt
	block := c.currentBlock()
	c.journal = append(c.journal, func() {
		acc.code, acc.codeHash, acc.createdAt = prev, prevHash, prevBlock
		c.dropCoded(block, addr)
	})
	acc.code = code
	acc.codeHash = etypes.Keccak(code)
	acc.createdAt = block
	hc := c.headChanges()
	hc.coded = append(hc.coded, addr)
}

func (s execState) SetCode(addr etypes.Address, code []byte) { s.c.setCode(addr, code) }

// SelfDestruct implements evm.StateDB.
func (c *Chain) SelfDestruct(addr, beneficiary etypes.Address) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.selfDestruct(addr, beneficiary)
}

func (c *Chain) selfDestruct(addr, beneficiary etypes.Address) {
	acc := c.getOrCreate(addr)
	c.transfer(addr, beneficiary, acc.balance)
	prev := acc.destroyed
	c.journal = append(c.journal, func() { acc.destroyed = prev })
	acc.destroyed = true
}

func (s execState) SelfDestruct(addr, beneficiary etypes.Address) {
	s.c.selfDestruct(addr, beneficiary)
}

// Snapshot implements evm.StateDB.
func (c *Chain) Snapshot() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.journal)
}

func (s execState) Snapshot() int { return len(s.c.journal) }

// RevertToSnapshot implements evm.StateDB.
func (c *Chain) RevertToSnapshot(rev int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.revertToSnapshot(rev)
}

func (c *Chain) revertToSnapshot(rev int) {
	for len(c.journal) > rev {
		c.journal[len(c.journal)-1]()
		c.journal = c.journal[:len(c.journal)-1]
	}
}

func (s execState) RevertToSnapshot(rev int) { s.c.revertToSnapshot(rev) }

// AddLog implements evm.StateDB. Emitted events are not archived: nothing
// reads them back.
func (c *Chain) AddLog(etypes.Address, []etypes.Hash, []byte) {}

func (s execState) AddLog(etypes.Address, []etypes.Hash, []byte) {}
