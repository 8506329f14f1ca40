package chain

import (
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/u256"
)

// Receipt is the outcome of a transaction.
type Receipt struct {
	Status          bool
	Output          []byte
	GasUsed         uint64
	Err             error
	ContractAddress etypes.Address // set for deployments
	Block           uint64
}

// defaultTxGas is the gas limit used when callers pass zero.
const defaultTxGas = 30_000_000

// txTracer records the internal-call facts trace-based tools mine:
// which addresses a transaction touched and every DELEGATECALL edge.
type txTracer struct {
	chain   *Chain
	touched map[etypes.Address]struct{}
}

var _ evm.Tracer = (*txTracer)(nil)

func (t *txTracer) CaptureStep(*evm.Frame, uint64, evm.Op) {}

// CaptureEnter runs during Execute/Deploy, which hold the chain's write
// lock, so it uses the unlocked internals.
func (t *txTracer) CaptureEnter(kind evm.CallKind, from, to etypes.Address, input []byte, value u256.Int) {
	t.touched[to] = struct{}{}
	if kind == evm.CallKindDelegateCall {
		t.chain.delegateEvents = append(t.chain.delegateEvents, DelegateEvent{
			Proxy: from,
			Logic: to,
			Block: t.chain.currentBlock(),
		})
	}
}

func (t *txTracer) CaptureExit([]byte, error) {}

// blockContext builds the EVM environment for the current block. It (and
// the BlockHash closure it returns, invoked mid-execution) must be called
// with the chain lock held.
func (c *Chain) blockContext() evm.BlockContext {
	head := c.latestHeader()
	return evm.BlockContext{
		Coinbase: etypes.MustAddress("0x95222290dd7278aa3ddd389cc1e1d165cc4bafe5"),
		Number:   head.Number,
		Time:     head.Time,
		GasLimit: 30_000_000,
		ChainID:  u256.FromUint64(c.cfg.ChainID),
		BaseFee:  u256.FromUint64(15_000_000_000),
		BlockHash: func(n uint64) etypes.Hash {
			h, err := c.headerByNumber(n)
			if err != nil {
				return etypes.Hash{}
			}
			return h.Hash
		},
	}
}

// Execute runs an external transaction from an EOA against a contract and
// commits its effects. A new block is sealed before execution, so each
// transaction lands at a distinct height (convenient for storage history).
func (c *Chain) Execute(from, to etypes.Address, input []byte, gas uint64, value u256.Int) Receipt {
	if gas == 0 {
		gas = defaultTxGas
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceBlocks(1)
	c.recordTxSelector(to, input)
	tracer := &txTracer{chain: c, touched: map[etypes.Address]struct{}{to: {}}}
	e := evm.New(execState{c}, evm.Config{
		Block:   c.blockContext(),
		Tx:      evm.TxContext{Origin: from, GasPrice: u256.FromUint64(20_000_000_000)},
		Tracer:  tracer,
		Lenient: true,
	})
	res := e.Call(from, to, input, gas, value)
	for addr := range tracer.touched {
		c.txCount[addr]++
	}
	return Receipt{
		Status:  res.Err == nil,
		Output:  res.Output,
		GasUsed: gas - res.GasLeft,
		Err:     res.Err,
		Block:   c.currentBlock(),
	}
}

// Deploy runs init code as a contract-creation transaction.
func (c *Chain) Deploy(from etypes.Address, initCode []byte, gas uint64, value u256.Int) Receipt {
	if gas == 0 {
		gas = defaultTxGas
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceBlocks(1)
	tracer := &txTracer{chain: c, touched: map[etypes.Address]struct{}{}}
	e := evm.New(execState{c}, evm.Config{
		Block:   c.blockContext(),
		Tx:      evm.TxContext{Origin: from, GasPrice: u256.FromUint64(20_000_000_000)},
		Tracer:  tracer,
		Lenient: true,
	})
	res := e.Create(from, initCode, gas, value)
	for addr := range tracer.touched {
		c.txCount[addr]++
	}
	return Receipt{
		Status:          res.Err == nil,
		Output:          res.Output,
		GasUsed:         gas - res.GasLeft,
		Err:             res.Err,
		ContractAddress: res.Address,
		Block:           c.currentBlock(),
	}
}
