package dataset

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/u256"
)

// PairCase is one labeled proxy/logic pair in an accuracy corpus.
type PairCase struct {
	Proxy etypes.Address
	Logic etypes.Address
	// Truth is the manually-established ground truth: does this pair have
	// a real (exploitable) collision of the corpus's type?
	Truth bool
	// Tag names the case family, for debugging and reporting.
	Tag string
}

// AccuracyCorpus is the labeled dataset behind the Table 2 comparison: a
// Sanctuary-like corpus (every contract has published source) whose case
// families are sized from the paper's measured confusion matrices, so that
// each tool's characteristic errors — USCHunt's padding false positives and
// compile halts, CRUSH's library-pair false positives and no-transaction
// misses, the shared engine blindness to computed storage slots, Proxion's
// emulation-hostile runtime errors — reproduce the published TP/FP/TN/FN
// shape when the tools actually run.
type AccuracyCorpus struct {
	Chain    *chain.Chain
	Registry *etherscan.Registry
	// StoragePairs are the storage-collision candidates (206 in the paper).
	StoragePairs []PairCase
	// FunctionPairs are the function-collision candidates (561 unique).
	FunctionPairs []PairCase
}

// Case-family sizes for the storage corpus, from Section 6.3.
const (
	nStorageTrueVisible   = 27 // engine-detectable exploitable collisions
	nStorageTrueObfuscued = 17 // computed-slot collisions both engines miss
	nStorageGuardedBenign = 28 // auth-dominated: engines' false positives
	nStoragePadding       = 80 // name mismatch, same boundaries: USCHunt FPs
	nStorageLibrary       = 48 // library pairs: CRUSH-only false positives
	nStorageClean         = 6  // identical layouts
)

// Case-family sizes for the function corpus.
const (
	nFuncSameNamePlain   = 296 // same-prototype collisions, everything works
	nFuncHostile         = 3   // real collisions on emulation-hostile proxies
	nFuncHoneypot        = 101 // different-name selector collisions (0xdf4a3106)
	nFuncUnknownCompiler = 160 // real collisions whose sources fail to compile
	nFuncNameOnlyFalse   = 1   // same name, different params: not a collision
)

// corpusBuilder deploys the corpus's catalogue pairs, every source
// published.
type corpusBuilder struct{ *gen.Deployer }

// install deploys the template with its source published.
func (b corpusBuilder) install(t gen.Template, compilerKnown bool) etypes.Address {
	l := t.Label
	l.HasSource = true
	b.Install(&l, t.Published, compilerKnown)
	return l.Address
}

// deployPair installs a proxy/logic pair, wires the proxy's implementation
// slot, and optionally executes one transaction so trace-based tools can
// see the pair.
func (b corpusBuilder) deployPair(proxy, logic gen.Template, compilerKnown, withTx bool) (etypes.Address, etypes.Address) {
	logicAddr := b.install(logic, compilerKnown)
	proxyAddr := b.install(proxy, compilerKnown)
	b.SetSlot(proxyAddr, proxy.ImplSlot, logicAddr)
	if withTx {
		sender := etypes.MustAddress("0x00000000000000000000000000000000000c0b01")
		b.Chain.Execute(sender, proxyAddr, []byte{0x01, 0x02, 0x03, 0x04}, 2_000_000, u256.Zero())
	}
	return proxyAddr, logicAddr
}

// GenerateAccuracyCorpus builds the Table 2 corpus. The layout is fully
// deterministic; there is no randomness to seed.
func GenerateAccuracyCorpus() *AccuracyCorpus {
	b := corpusBuilder{gen.NewDeployer(chain.New(), etherscan.NewRegistry(), 0xac, 0x5000_0000)}
	b.Chain.AdvanceTo(100)
	corpus := &AccuracyCorpus{Chain: b.Chain, Registry: b.Registry}

	corpus.buildStoragePairs(b)
	corpus.buildFunctionPairs(b)
	return corpus
}

func (c *AccuracyCorpus) buildStoragePairs(b corpusBuilder) {
	add := func(p, l etypes.Address, truth bool, tag string) {
		c.StoragePairs = append(c.StoragePairs, PairCase{Proxy: p, Logic: l, Truth: truth, Tag: tag})
	}

	// True exploitable, engine-visible. One pair deliberately has no
	// transaction history (Proxion still finds it, CRUSH cannot), and
	// eight publish sources with unknown compiler versions (USCHunt halts;
	// together with three obfuscated ones below, its 11 false negatives).
	for i := 0; i < nStorageTrueVisible; i++ {
		proxy, logic := gen.AudiusPair()
		proxy.Published.Name = fmt.Sprintf("AudiusProxy%d", i)
		withTx := i != 0
		compilerKnown := i == 0 || i > 8
		p, l := b.deployPair(proxy, logic, compilerKnown, withTx)
		add(p, l, true, "true-visible")
	}

	// True exploitable behind computed slots: engines cannot slice the
	// accesses, but layout-level (declaration) comparison still can.
	for i := 0; i < nStorageTrueObfuscued; i++ {
		proxy, logic := gen.ObfuscatedAudiusPair()
		proxy.Published.Name = fmt.Sprintf("ObfProxy%d", i)
		compilerKnown := i >= 3
		p, l := b.deployPair(proxy, logic, compilerKnown, true)
		add(p, l, true, "true-obfuscated")
	}

	// Benign mismatches behind an ownership check: the engines' false
	// positives. Most of these fail USCHunt's compiler gate, matching its
	// published FP count.
	for i := 0; i < nStorageGuardedBenign; i++ {
		proxy, logic := gen.GuardedBenignPair()
		proxy.Published.Name = fmt.Sprintf("GuardedProxy%d", i)
		compilerKnown := i < 3
		p, l := b.deployPair(proxy, logic, compilerKnown, true)
		add(p, l, false, "guarded-benign")
	}

	// Padding/naming mismatches with identical boundaries: harmless, but
	// name-comparing tools flag every one.
	for i := 0; i < nStoragePadding; i++ {
		proxy, logic := gen.PaddingPair(i)
		p, l := b.deployPair(proxy, logic, true, true)
		add(p, l, false, "padding")
	}

	// Library pairs: not proxies at all; only trace mining pairs them.
	for i := 0; i < nStorageLibrary; i++ {
		lib := b.install(gen.Library(i), true)
		user := b.install(gen.LibraryUser(i, lib), true)
		// Trigger the library call so the trace records the pair.
		sender := etypes.MustAddress("0x00000000000000000000000000000000000c0b02")
		b.Chain.Execute(sender, user, []byte{0xff, 0xee, 0xdd, 0xcc}, 2_000_000, u256.Zero())
		add(user, lib, false, "library")
	}

	// Clean pairs: identical names and layouts.
	for i := 0; i < nStorageClean; i++ {
		proxy, logic := gen.CleanPair(i)
		p, l := b.deployPair(proxy, logic, true, true)
		add(p, l, false, "clean")
	}
}

func (c *AccuracyCorpus) buildFunctionPairs(b corpusBuilder) {
	add := func(p, l etypes.Address, truth bool, tag string) {
		c.FunctionPairs = append(c.FunctionPairs, PairCase{Proxy: p, Logic: l, Truth: truth, Tag: tag})
	}

	// Plain same-prototype collisions: every tool that runs sees them.
	for i := 0; i < nFuncSameNamePlain; i++ {
		proxy, logic := gen.SameNamePair(i)
		p, l := b.deployPair(proxy, logic, true, true)
		add(p, l, true, "same-name")
	}

	// Emulation-hostile proxies with a real collision: Proxion's runtime
	// errors, the paper's three function-collision false negatives.
	for i := 0; i < nFuncHostile; i++ {
		_, logic := gen.SameNamePair(1000 + i)
		// Declare the colliding prototype in the source so source-level
		// tools can still see the collision.
		proxy := gen.HostileProxy(logic.Source.Funcs[0].ABI)
		p, l := b.deployPair(proxy, logic, true, false)
		add(p, l, true, "hostile")
	}

	// Honeypot-style collisions: different names, identical selectors
	// (0xdf4a3106). Selector-level tools see them; name-level tools cannot.
	for i := 0; i < nFuncHoneypot; i++ {
		proxy, logic := gen.HoneypotPair()
		proxy.Published.Name = fmt.Sprintf("Honeypot%d", i)
		p, l := b.deployPair(proxy, logic, true, true)
		add(p, l, true, "honeypot")
	}

	// Real collisions whose published sources fail to compile (unknown
	// compiler): source-only tools halt.
	for i := 0; i < nFuncUnknownCompiler; i++ {
		proxy, logic := gen.SameNamePair(2000 + i)
		p, l := b.deployPair(proxy, logic, false, true)
		add(p, l, true, "unknown-compiler")
	}

	// The single non-collision: same function name, different parameter
	// lists, hence different selectors.
	proxy, logic := gen.NameOnlyPair()
	p, l := b.deployPair(proxy, logic, true, true)
	add(p, l, false, "name-only")
}
