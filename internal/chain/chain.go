// Package chain implements the simulated Ethereum execution and archive
// node that the reproduction runs against: accounts with code, balances and
// nonces, per-slot storage *history* addressable by block height (the
// getStorageAt archive API Proxion's Algorithm 1 binary-searches over),
// block progression, and transaction execution on the EVM with call tracing
// (the data source for transaction-history-based baselines like CRUSH).
package chain

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/etypes"
	"repro/internal/u256"
)

// BlockHeader is the minimal per-block record the archive keeps.
type BlockHeader struct {
	Number uint64
	Time   uint64
	Hash   etypes.Hash
}

// storageVersion is one historical write to a slot.
type storageVersion struct {
	block uint64
	value etypes.Hash
}

// account is the full record for one address.
type account struct {
	code []byte
	// codeHash caches Keccak(code); code changes only through
	// InstallContract/SetCode, which keep it in sync, so the analysis hot
	// path never re-hashes multi-KB bytecode.
	codeHash etypes.Hash
	balance  u256.Int
	nonce    uint64
	storage  map[etypes.Hash]etypes.Hash
	// history holds every committed write per slot, in block order.
	history map[etypes.Hash][]storageVersion
	// createdAt is the block the account was deployed in.
	createdAt uint64
	destroyed bool
}

// DelegateEvent records one DELEGATECALL observed while executing a
// transaction: the proxy (storage context) and the logic target. This is
// the trace data transaction-history tools mine.
type DelegateEvent struct {
	Proxy etypes.Address
	Logic etypes.Address
	Block uint64
	// InFallback is unknown to trace-based tools; they see only that a
	// delegatecall happened, which is the root of their library-call
	// false positives.
}

// Config identifies the network a Chain simulates. The proxy pattern and
// its EIPs are shared across every EVM chain (Section 8.2 lists Arbitrum,
// Avalanche, BSC, Celo, Fantom, Optimism, Polygon as analysis targets), so
// the only parameters that matter to the analyzer are the chain id exposed
// by the CHAINID opcode and the block cadence.
type Config struct {
	// Name is a human-readable network label, e.g. "ethereum".
	Name string
	// ChainID is the EIP-155 identifier (1 for Ethereum mainnet).
	ChainID uint64
	// BlockInterval is the seconds between blocks (12 for mainnet).
	BlockInterval uint64
	// GenesisTime is the timestamp of block 0.
	GenesisTime uint64
}

// MainnetConfig is the default Ethereum configuration.
func MainnetConfig() Config {
	return Config{
		Name:          "ethereum",
		ChainID:       1,
		BlockInterval: 12,
		GenesisTime:   1_438_269_973,
	}
}

// Chain is the simulated node. All public methods are safe for concurrent
// use: reads (Code, GetState, GetStorageAt, …) take a shared lock, writes
// (Execute, Deploy, InstallContract, …) take it exclusively, and the
// getStorageAt call counter is atomic so counting reads stay contention-free
// on the analysis hot path.
type Chain struct {
	// mu guards every field below except apiCalls. Transaction execution
	// (Execute/Deploy) holds the write lock for the whole EVM run
	// and hands the EVM an unlocked execState view to keep the lock
	// non-reentrant code deadlock-free.
	mu sync.RWMutex

	cfg      Config
	accounts map[etypes.Address]*account
	// head is the latest block height. Headers are pure functions of
	// (config, number) and are computed on demand, so the archive's block
	// index costs no memory however far the chain advances — a prerequisite
	// for streaming million-contract landscapes, where the old header slice
	// alone would hold ~100 MB at two blocks per generated contract.
	head uint64
	// headHeader caches the latest header so the emulation hot path
	// (one LatestHeader per probe) never re-hashes the head block.
	headHeader BlockHeader

	journal []func()

	// changes is the per-block index behind BlockDelta, ordered by block
	// (the head only advances, so appending keeps it sorted). Only blocks
	// that changed something have an entry.
	changes []blockChanges

	// txCount tracks external+internal transactions touching an address.
	txCount map[etypes.Address]int
	// txSelectors records the 4-byte selectors ever sent to an address in
	// external transactions — the raw material for the diamond-detection
	// extension (Section 8.2: extract registered functions from past
	// transactions and use them to generate call data).
	txSelectors map[etypes.Address]map[[4]byte]struct{}
	// delegateEvents are all observed DELEGATECALLs across transactions.
	delegateEvents []DelegateEvent

	apiCalls atomic.Int64
}

// blockChanges is one block's entry in the delta index.
type blockChanges struct {
	block uint64
	// coded lists the accounts given code in the block, in order; an
	// account coded twice appears twice.
	coded []etypes.Address
	// written lists the cells given a new history version in the block, in
	// order. History keeps one version per block, so a cell appears once.
	written []Cell
}

// New creates a mainnet-configured chain with only the genesis block.
func New() *Chain { return NewWithConfig(MainnetConfig()) }

// NewWithConfig creates a chain for an arbitrary EVM network.
func NewWithConfig(cfg Config) *Chain {
	if cfg.BlockInterval == 0 {
		cfg.BlockInterval = 12
	}
	c := &Chain{
		cfg:         cfg,
		accounts:    make(map[etypes.Address]*account),
		txCount:     make(map[etypes.Address]int),
		txSelectors: make(map[etypes.Address]map[[4]byte]struct{}),
	}
	c.headHeader = c.makeHeader(0)
	return c
}

// Config returns the chain's network configuration.
func (c *Chain) Config() Config { return c.cfg }

func (c *Chain) makeHeader(number uint64) BlockHeader {
	var numBuf [8]byte
	for i := 0; i < 8; i++ {
		numBuf[7-i] = byte(number >> (8 * i))
	}
	return BlockHeader{
		Number: number,
		Time:   c.cfg.GenesisTime + number*c.cfg.BlockInterval,
		Hash:   etypes.Keccak(numBuf[:]),
	}
}

// CurrentBlock returns the height of the latest block.
func (c *Chain) CurrentBlock() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.currentBlock()
}

func (c *Chain) currentBlock() uint64 { return c.head }

// LatestHeader returns the latest block header.
func (c *Chain) LatestHeader() BlockHeader {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latestHeader()
}

func (c *Chain) latestHeader() BlockHeader { return c.headHeader }

// HeaderByNumber returns the header at the given height.
func (c *Chain) HeaderByNumber(n uint64) (BlockHeader, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headerByNumber(n)
}

func (c *Chain) headerByNumber(n uint64) (BlockHeader, error) {
	if n > c.head {
		return BlockHeader{}, fmt.Errorf("chain: no block %d (head %d)", n, c.currentBlock())
	}
	return c.makeHeader(n), nil
}

// AdvanceBlocks appends n empty blocks.
func (c *Chain) AdvanceBlocks(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceBlocks(n)
}

func (c *Chain) advanceBlocks(n uint64) {
	if n == 0 {
		return
	}
	c.head += n
	c.headHeader = c.makeHeader(c.head)
}

// AdvanceTo fast-forwards the chain to the given height.
func (c *Chain) AdvanceTo(height uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if height > c.currentBlock() {
		c.advanceBlocks(height - c.currentBlock())
	}
}

// getOrCreate must be called with the write lock held.
func (c *Chain) getOrCreate(addr etypes.Address) *account {
	acc, ok := c.accounts[addr]
	if !ok {
		acc = &account{
			storage:   make(map[etypes.Hash]etypes.Hash),
			history:   make(map[etypes.Hash][]storageVersion),
			createdAt: c.currentBlock(),
		}
		c.accounts[addr] = acc
	}
	return acc
}

// InstallContract places runtime bytecode at addr directly, bypassing the
// EVM deployment path. The dataset generator uses this to populate large
// contract populations cheaply; createdAt is the current block.
func (c *Chain) InstallContract(addr etypes.Address, code []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc := c.getOrCreate(addr)
	acc.code = code
	acc.codeHash = etypes.Keccak(code)
	acc.createdAt = c.currentBlock()
	acc.nonce = 1
	hc := c.headChanges()
	hc.coded = append(hc.coded, addr)
}

// SetStorageDirect writes a slot as if by a committed transaction in the
// current block, recording history.
func (c *Chain) SetStorageDirect(addr etypes.Address, slot, value etypes.Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeStorage(addr, slot, value, false)
}

// writeStorage updates current state, history and the delta index; when
// journaled, the change is registered for rollback. Must be called with the
// write lock held.
func (c *Chain) writeStorage(addr etypes.Address, slot, value etypes.Hash, journaled bool) {
	acc := c.getOrCreate(addr)
	block := c.currentBlock()
	prev := acc.storage[slot]
	hist := acc.history[slot]
	prevHistLen := len(hist)
	var replacedLast *storageVersion
	if n := len(hist); n > 0 && hist[n-1].block == block {
		// Same-block overwrite: the archive records the end-of-block value.
		last := hist[n-1]
		replacedLast = &last
		hist[n-1].value = value
	} else {
		hist = append(hist, storageVersion{block: block, value: value})
		hc := c.headChanges()
		hc.written = append(hc.written, Cell{addr, slot})
	}
	acc.history[slot] = hist
	acc.storage[slot] = value
	if journaled {
		c.journal = append(c.journal, func() {
			acc.storage[slot] = prev
			if replacedLast != nil {
				acc.history[slot][prevHistLen-1] = *replacedLast
			} else {
				acc.history[slot] = acc.history[slot][:prevHistLen]
				c.dropWritten(block, Cell{addr, slot})
			}
		})
	}
}

// Fund credits addr with amount wei.
func (c *Chain) Fund(addr etypes.Address, amount u256.Int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	acc := c.getOrCreate(addr)
	acc.balance = acc.balance.Add(amount)
}

// Code returns the runtime bytecode at addr.
func (c *Chain) Code(addr etypes.Address) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.code(addr)
}

func (c *Chain) code(addr etypes.Address) []byte {
	if acc, ok := c.accounts[addr]; ok && !acc.destroyed {
		return acc.code
	}
	return nil
}

// emptyCodeHash is Keccak of empty input — the hash of a codeless account.
var emptyCodeHash = etypes.Keccak(nil)

// CodeHash returns Keccak-256 of the runtime bytecode at addr, served from
// the per-account cache instead of re-hashing.
func (c *Chain) CodeHash(addr etypes.Address) etypes.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.getCodeHash(addr)
}

func (c *Chain) getCodeHash(addr etypes.Address) etypes.Hash {
	if acc, ok := c.accounts[addr]; ok && !acc.destroyed && len(acc.code) > 0 {
		return acc.codeHash
	}
	return emptyCodeHash
}

// CreatedAt returns the deployment block of addr.
func (c *Chain) CreatedAt(addr etypes.Address) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if acc, ok := c.accounts[addr]; ok {
		return acc.createdAt
	}
	return 0
}

// IsDestroyed reports whether the contract self-destructed.
func (c *Chain) IsDestroyed(addr etypes.Address) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	acc, ok := c.accounts[addr]
	return ok && acc.destroyed
}

// Contracts returns every address holding code (alive contracts), sorted
// for determinism.
func (c *Chain) Contracts() []etypes.Address {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []etypes.Address
	for addr, acc := range c.accounts {
		if len(acc.code) > 0 && !acc.destroyed {
			out = append(out, addr)
		}
	}
	sortAddresses(out)
	return out
}

func sortAddresses(addrs []etypes.Address) {
	slices.SortFunc(addrs, func(a, b etypes.Address) int { return bytes.Compare(a[:], b[:]) })
}

// headChanges returns the delta-index entry of the head block, creating
// it on the block's first change. Must be called with the write lock held;
// the pointer is valid until the next append to c.changes.
func (c *Chain) headChanges() *blockChanges {
	if n := len(c.changes); n == 0 || c.changes[n-1].block != c.head {
		c.changes = append(c.changes, blockChanges{block: c.head})
	}
	return &c.changes[len(c.changes)-1]
}

// changesAt returns the delta-index entry of block b, nil when the block
// changed nothing (or was trimmed). Callers hold the lock.
func (c *Chain) changesAt(b uint64) *blockChanges {
	i := sort.Search(len(c.changes), func(i int) bool { return c.changes[i].block >= b })
	if i == len(c.changes) || c.changes[i].block != b {
		return nil
	}
	return &c.changes[i]
}

// dropWritten takes cell out of block's index entry: the undo of a reverted
// write, and Forget's release. The entry itself stays until TrimEvents,
// reading as an empty block once nothing is left in it.
func (c *Chain) dropWritten(block uint64, cell Cell) {
	if bc := c.changesAt(block); bc != nil {
		bc.written, _ = removeLast(bc.written, cell)
	}
}

// dropCoded takes the latest mention of addr out of block's index entry and
// reports whether there was one.
func (c *Chain) dropCoded(block uint64, addr etypes.Address) (found bool) {
	if bc := c.changesAt(block); bc != nil {
		bc.coded, found = removeLast(bc.coded, addr)
	}
	return found
}

// removeLast deletes the last occurrence of x from s, keeping order. An
// emptied list comes back nil, so its array is freed.
func removeLast[E comparable](s []E, x E) ([]E, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == x {
			if s = append(s[:i], s[i+1:]...); len(s) == 0 {
				s = nil
			}
			return s, true
		}
	}
	return s, false
}

// BlockDelta implements Reader from the per-block index: the cells written
// in block b, and of the accounts given code in it those that are alive and
// still count b as their deployment block (a later re-deployment moves an
// address to the later block's delta; a destroyed one is in none, exactly
// as Contracts omits it). A block that changed nothing — or does not exist
// yet — has an empty delta.
func (c *Chain) BlockDelta(b uint64) BlockDelta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bc := c.changesAt(b)
	if bc == nil {
		return BlockDelta{}
	}
	var d BlockDelta
	for _, addr := range bc.coded {
		if acc, ok := c.accounts[addr]; ok && len(acc.code) > 0 && !acc.destroyed && acc.createdAt == b {
			d.Deployed = append(d.Deployed, addr)
		}
	}
	sortAddresses(d.Deployed)
	d.Deployed = slices.Compact(d.Deployed) // coded twice in the block is one deployment
	d.Written = append(d.Written, bc.written...)
	return d
}

// GetStorageAt is the archive API: the value of a slot as of the end of the
// given block. Every call increments the API-call counter that the
// Algorithm 1 efficiency experiment reports on.
func (c *Chain) GetStorageAt(addr etypes.Address, slot etypes.Hash, block uint64) etypes.Hash {
	c.apiCalls.Add(1)
	c.mu.RLock()
	defer c.mu.RUnlock()
	acc, ok := c.accounts[addr]
	if !ok {
		return etypes.Hash{}
	}
	hist := acc.history[slot]
	// Find the last version with version.block <= block.
	idx := sort.Search(len(hist), func(i int) bool { return hist[i].block > block })
	if idx == 0 {
		return etypes.Hash{}
	}
	return hist[idx-1].value
}

// APICalls returns the number of GetStorageAt calls since the last reset.
func (c *Chain) APICalls() int64 { return c.apiCalls.Load() }

// ResetAPICalls zeroes the GetStorageAt counter.
func (c *Chain) ResetAPICalls() { c.apiCalls.Store(0) }

// TxCount returns how many transactions (external or internal) have touched
// addr — the "has past transactions" signal trace-based tools depend on.
func (c *Chain) TxCount(addr etypes.Address) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.txCount[addr]
}

// TxSelectors returns the distinct 4-byte selectors observed in external
// transactions to addr, in deterministic order.
func (c *Chain) TxSelectors(addr etypes.Address) [][4]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	set := c.txSelectors[addr]
	out := make([][4]byte, 0, len(set))
	for sel := range set {
		out = append(out, sel)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// recordTxSelector notes the selector of an external transaction's input.
// Must be called with the write lock held.
func (c *Chain) recordTxSelector(addr etypes.Address, input []byte) {
	if len(input) < 4 {
		return
	}
	var sel [4]byte
	copy(sel[:], input)
	set := c.txSelectors[addr]
	if set == nil {
		set = make(map[[4]byte]struct{})
		c.txSelectors[addr] = set
	}
	set[sel] = struct{}{}
}

// DelegateEvents returns a copy of every DELEGATECALL observed in executed
// transactions, in order.
func (c *Chain) DelegateEvents() []DelegateEvent {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]DelegateEvent, len(c.delegateEvents))
	copy(out, c.delegateEvents)
	return out
}

// Forget removes an account and its per-address bookkeeping (storage
// history, transaction counts, observed selectors) from the archive. The
// streaming landscape generator retires fully-analyzed windows through it
// so peak memory tracks the window size instead of the corpus size. A
// later write to a forgotten address transparently recreates an empty
// account; code is gone for good, which is exactly the retirement
// contract — nothing downstream reads a retired contract again. The
// account's deployment and writes leave the delta index with it.
func (c *Chain) Forget(addr etypes.Address) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if acc, ok := c.accounts[addr]; ok {
		for c.dropCoded(acc.createdAt, addr) {
		}
		for slot, hist := range acc.history {
			for _, v := range hist {
				c.dropWritten(v.block, Cell{addr, slot})
			}
		}
	}
	delete(c.accounts, addr)
	delete(c.txCount, addr)
	delete(c.txSelectors, addr)
}

// TrimEvents drops delegate events and delta-index entries from
// before the given block, bounding the buffers that otherwise grow with
// every generated transaction. Trace-based baselines (CRUSH, Salehi) only
// read events for contracts still under analysis, which retirement keeps
// above the trim point.
func (c *Chain) TrimEvents(before uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delegateEvents = trimByBlock(c.delegateEvents, before, func(e DelegateEvent) uint64 { return e.Block })
	c.changes = trimByBlock(c.changes, before, func(bc blockChanges) uint64 { return bc.block })
}

// trimByBlock drops the (chronological) prefix of events older than
// `before`. The dropped elements are zeroed so what they point at is
// collectable at once; their array slots go when the next append outgrows
// the remaining capacity. The streaming generator trims once per retired
// contract, so a trim must cost what it drops, not what it keeps.
func trimByBlock[E any](events []E, before uint64, blockOf func(E) uint64) []E {
	idx := sort.Search(len(events), func(i int) bool { return blockOf(events[i]) >= before })
	clear(events[:idx])
	return events[idx:]
}
