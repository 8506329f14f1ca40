// Package gen is a seeded, deterministic random contract-corpus generator:
// it emits internal/solc sources (and raw EIP-1167 runtime bytecode) across
// the paper's proxy taxonomy — minimal proxies, EIP-1967/1822 slot proxies,
// hardcoded-address forwarders, ad-hoc slot proxies, diamonds — plus labeled
// *negatives* (library delegatecallers, dispatcher-only contracts,
// dead-DELEGATECALL decoys), each carrying ground-truth labels established
// by construction: is-proxy, the logic address, the implementation slot, the
// expected standard classification, and the function/storage collisions
// deliberately injected into the pair.
//
// The generator is the corpus half of the differential oracle harness (see
// internal/gen/oracle): because every label is true by construction, any
// disagreement between a label and an analysis verdict is a bug in exactly
// one place — the analyzer.
//
// Determinism contract: equal Config values produce byte-identical corpora
// (same addresses, same bytecode, same labels, same chain storage), and the
// corpus for Contracts=k is a strict prefix of the corpus for Contracts=n>k
// with the same seed. The prefix property is what makes failing seeds
// minimizable: a failure triggered by generation unit j reproduces at every
// prefix length > j.
package gen

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/solc"
	"repro/internal/u256"
)

// Shape is a generated contract's taxonomy bucket.
type Shape int

// Generated contract shapes. The first six are proxies under the paper's
// definition; the last four are the adversarial negatives proxy classifiers
// historically stumble on (library delegatecallers, no-transaction
// dispatcher contracts, dead DELEGATECALLs, plain logic targets).
const (
	// ShapeMinimalProxy is a raw EIP-1167 runtime (not compiler output).
	ShapeMinimalProxy Shape = iota
	// ShapeHardcodedForwarder forwards call data to an address fixed in the
	// bytecode, but is NOT the canonical 1167 runtime.
	ShapeHardcodedForwarder
	// ShapeEIP1967Proxy keeps its logic address in the EIP-1967 slot.
	ShapeEIP1967Proxy
	// ShapeEIP1822Proxy keeps its logic address in keccak("PROXIABLE").
	ShapeEIP1822Proxy
	// ShapeAdHocProxy keeps its logic address in a non-standard slot.
	ShapeAdHocProxy
	// ShapeDiamond is an EIP-2535 facet router: a proxy by ground truth,
	// but invisible to random-call-data emulation (the paper's acknowledged
	// diamond limitation), so its Detectable label is false.
	ShapeDiamond
	// ShapeLibraryCaller delegatecalls a library with *constructed* call
	// data: DELEGATECALL present, not a proxy.
	ShapeLibraryCaller
	// ShapeDispatcherOnly is a plain application contract: dispatcher and
	// storage, no DELEGATECALL anywhere, and no transactions either.
	ShapeDispatcherOnly
	// ShapeDeadDelegate carries a DELEGATECALL opcode in unreachable
	// trailing code: it passes the disassembly filter but never forwards.
	ShapeDeadDelegate
	// ShapeLogic is an auxiliary deployment (logic contract, library,
	// diamond facet) another unit points at; a plain negative.
	ShapeLogic
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeMinimalProxy:
		return "minimal-proxy"
	case ShapeHardcodedForwarder:
		return "hardcoded-forwarder"
	case ShapeEIP1967Proxy:
		return "eip1967-proxy"
	case ShapeEIP1822Proxy:
		return "eip1822-proxy"
	case ShapeAdHocProxy:
		return "adhoc-proxy"
	case ShapeDiamond:
		return "diamond"
	case ShapeLibraryCaller:
		return "library-caller"
	case ShapeDispatcherOnly:
		return "dispatcher-only"
	case ShapeDeadDelegate:
		return "dead-delegatecall"
	case ShapeLogic:
		return "logic"
	default:
		return "unknown"
	}
}

// IsProxy is the shape's ground truth under the paper's definition: does
// the fallback forward received call data through a DELEGATECALL.
func (s Shape) IsProxy() bool {
	switch s {
	case ShapeMinimalProxy, ShapeHardcodedForwarder, ShapeEIP1967Proxy,
		ShapeEIP1822Proxy, ShapeAdHocProxy, ShapeDiamond:
		return true
	}
	return false
}

// Label is the ground truth for one generated contract, fixed by
// construction at generation time.
type Label struct {
	Address etypes.Address
	Shape   Shape
	// Unit is the generation unit (0-based) that produced this contract;
	// auxiliary deployments share their proxy's unit. Prefix minimization
	// keys on it.
	Unit int

	// IsProxy is the paper-definition ground truth.
	IsProxy bool
	// Detectable is the expected emulation verdict (false for diamonds).
	Detectable bool
	// HasDelegateCall is the expected step-1 disassembly filter result.
	HasDelegateCall bool

	// Logic is the contract the proxy points at (zero otherwise).
	Logic etypes.Address
	// TargetStorage says the logic address lives in storage (vs hardcoded).
	TargetStorage bool
	// ImplSlot is the storage slot holding the logic address, when
	// TargetStorage.
	ImplSlot etypes.Hash
	// Standard is the expected Table 4 classification string ("EIP-1167",
	// "EIP-1967", "EIP-1822", "Others"); empty for non-proxies.
	Standard string

	// FuncCollisions are the 4-byte selectors shared with Logic by
	// construction, in ascending order. Nil means the pair must be clean.
	FuncCollisions [][4]byte
	// StorageCollision says the pair's layouts were built to conflict
	// (mismatched overlapping fields on a shared slot).
	StorageCollision bool

	// HasSource says the contract's source was published to the registry.
	HasSource bool
	// Source is the source-level model (always present for compiled
	// contracts, whether or not published; nil for raw bytecode shapes).
	Source *solc.Contract
	// Code is the installed runtime bytecode.
	Code []byte
}

// Config parameterizes one corpus. Equal configs generate byte-identical
// corpora.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Contracts is the number of generation units (default 24). Each unit
	// deploys one primary contract plus any auxiliaries it needs (logic,
	// library, facet), so the corpus holds more labels than units.
	Contracts int
}

func (c Config) withDefaults() Config {
	if c.Contracts == 0 {
		c.Contracts = 24
	}
	return c
}

// Repro renders the config as a reproduction hint for failure reports.
func (c Config) Repro() string {
	c = c.withDefaults()
	return fmt.Sprintf("gen.Generate(gen.Config{Seed: %d, Contracts: %d})", c.Seed, c.Contracts)
}

// Corpus is one generated labeled population.
type Corpus struct {
	Config   Config
	Chain    *chain.Chain
	Registry *etherscan.Registry
	Labels   []*Label
	ByAddr   map[etypes.Address]*Label
}

// Proxies returns the labels whose ground truth is proxy.
func (c *Corpus) Proxies() []*Label {
	var out []*Label
	for _, l := range c.Labels {
		if l.IsProxy {
			out = append(out, l)
		}
	}
	return out
}

// Shapes returns the distinct shapes present, in label order.
func (c *Corpus) Shapes() []Shape {
	seen := make(map[Shape]bool)
	var out []Shape
	for _, l := range c.Labels {
		if !seen[l.Shape] {
			seen[l.Shape] = true
			out = append(out, l.Shape)
		}
	}
	return out
}

// Fingerprint hashes the full corpus — every label field and every byte of
// installed code, in label order — so byte-identity across runs collapses
// to one comparison.
func (c *Corpus) Fingerprint() etypes.Hash {
	h := make([]byte, 0, 4096)
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h = append(h, scratch[:]...)
	}
	for _, l := range c.Labels {
		h = append(h, l.Address[:]...)
		u64(uint64(l.Shape))
		u64(uint64(l.Unit))
		flags := uint64(0)
		for i, b := range []bool{l.IsProxy, l.Detectable, l.HasDelegateCall,
			l.TargetStorage, l.StorageCollision, l.HasSource} {
			if b {
				flags |= 1 << uint(i)
			}
		}
		u64(flags)
		h = append(h, l.Logic[:]...)
		h = append(h, l.ImplSlot[:]...)
		h = append(h, []byte(l.Standard)...)
		for _, sel := range l.FuncCollisions {
			h = append(h, sel[:]...)
		}
		u64(uint64(len(l.Code)))
		h = append(h, l.Code...)
		// Chain-side state the label implies: the implementation slot value.
		if l.TargetStorage {
			v := c.Chain.GetState(l.Address, l.ImplSlot)
			h = append(h, v[:]...)
		}
	}
	return etypes.Keccak(h)
}

// Well-known implementation slots, duplicated from the analyzer so the
// generator shares no code with the system under test.
var (
	slotEIP1967 = etypes.HashFromWord(
		u256.FromBytes32(keccak.Sum256([]byte("eip1967.proxy.implementation"))).Sub(u256.One()))
	slotEIP1822 = etypes.Keccak([]byte("PROXIABLE"))
)

// allShapes is the guaranteed-coverage prefix: the first len(allShapes)
// units cycle through every primary shape, so any corpus with at least that
// many units exercises the full taxonomy; later units draw randomly.
var allShapes = []Shape{
	ShapeMinimalProxy, ShapeHardcodedForwarder, ShapeEIP1967Proxy,
	ShapeEIP1822Proxy, ShapeAdHocProxy, ShapeDiamond,
	ShapeLibraryCaller, ShapeDispatcherOnly, ShapeDeadDelegate,
}

// Generate builds a corpus from the config.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	c := &Corpus{
		Config:   cfg,
		Chain:    chain.New(),
		Registry: etherscan.NewRegistry(),
		ByAddr:   make(map[etypes.Address]*Label),
	}
	g := &generator{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		corpus:   c,
		nextAddr: 0x100,
	}
	c.Chain.AdvanceTo(1)
	for i := 0; i < cfg.Contracts; i++ {
		g.unit = i
		g.buildUnit(g.shapeFor(i))
		c.Chain.AdvanceBlocks(1)
	}
	return c
}

// generator holds per-corpus generation state.
type generator struct {
	rng      *rand.Rand
	corpus   *Corpus
	nextAddr uint64
	unit     int
	seq      int
}

// shapeFor picks the unit's primary shape: fixed coverage prefix first,
// weighted random afterwards. The rng consumption per unit index is
// identical for every corpus size, preserving the prefix property.
func (g *generator) shapeFor(i int) Shape {
	if i < len(allShapes) {
		return allShapes[i]
	}
	r := g.rng.Intn(100)
	switch {
	case r < 14:
		return ShapeMinimalProxy
	case r < 28:
		return ShapeHardcodedForwarder
	case r < 42:
		return ShapeEIP1967Proxy
	case r < 49:
		return ShapeEIP1822Proxy
	case r < 61:
		return ShapeAdHocProxy
	case r < 67:
		return ShapeDiamond
	case r < 78:
		return ShapeLibraryCaller
	case r < 89:
		return ShapeDispatcherOnly
	default:
		return ShapeDeadDelegate
	}
}

// newAddr mints the next deterministic address (0x9e prefix marks
// generator-minted contracts, distinct from the dataset's 0xda).
func (g *generator) newAddr() etypes.Address {
	g.nextAddr++
	var buf [20]byte
	binary.BigEndian.PutUint64(buf[12:], g.nextAddr)
	buf[0] = 0x9e
	return etypes.Address(buf)
}

// ident mints a fresh random identifier. Including a random suffix keeps
// prototypes distinct across contracts so the only shared selectors are the
// deliberately injected ones.
func (g *generator) ident(prefix string) string {
	g.seq++
	return fmt.Sprintf("%s%d_%x", prefix, g.seq, g.rng.Uint32())
}

// install places code on chain and records the label.
func (g *generator) install(l *Label, code []byte) *Label {
	if l.Address.IsZero() {
		l.Address = g.newAddr()
	}
	l.Unit = g.unit
	l.Code = code
	g.corpus.Chain.InstallContract(l.Address, code)
	g.corpus.Labels = append(g.corpus.Labels, l)
	g.corpus.ByAddr[l.Address] = l
	if l.HasSource && l.Source != nil {
		g.corpus.Registry.Publish(l.Address, l.Source, true)
	}
	return l
}

// compileInstall compiles the source model and installs it.
func (g *generator) compileInstall(l *Label, src *solc.Contract) *Label {
	l.Source = src
	return g.install(l, solc.MustCompile(src))
}
