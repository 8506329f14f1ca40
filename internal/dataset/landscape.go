// Package dataset generates the synthetic Ethereum contract landscape the
// reproduction analyzes in place of the 36 million mainnet contracts: a
// seeded, deterministic population whose proportions mirror the paper's
// measurements — proxy share and standards split (Table 4), bytecode
// duplication skew (Figure 5), source/transaction availability (Figure 2),
// upgrade rarity (Figure 6) — plus the labeled collision corpora behind the
// accuracy comparison (Table 2).
//
// The contracts themselves, with their ground truth, come from
// internal/gen's catalogue and deploy through gen's Deployer; this package
// owns the mix: which template, how often, in which year, with which
// source and transaction availability, and which proxies upgrade.
package dataset

import (
	"math/rand"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/solc"
	"repro/internal/u256"
)

// Kind is a landscape contract's catalogue shape.
type Kind = gen.Shape

// Contract kinds in the generated landscape.
const (
	KindPlain         = gen.ShapePlain
	KindToken         = gen.ShapeToken
	KindMinimalProxy  = gen.ShapeMinimalProxy
	KindOwnableProxy  = gen.ShapeOwnableProxy
	KindEIP1967Proxy  = gen.ShapeEIP1967Proxy
	KindEIP1822Proxy  = gen.ShapeEIP1822Proxy
	KindAdHocProxy    = gen.ShapeAdHocProxy
	KindHoneypotProxy = gen.ShapeHoneypotProxy
	KindAudiusProxy   = gen.ShapeAudiusProxy
	KindDiamond       = gen.ShapeDiamond
	KindLibraryUser   = gen.ShapeLibraryUser
	KindLibrary       = gen.ShapeLibrary
	KindBroken        = gen.ShapeBroken
	KindHostileProxy  = gen.ShapeHostileProxy
	KindLogic         = gen.ShapeLogic
	KindDestroyed     = gen.ShapeDestroyed
)

// Label is the ground truth for one landscape contract: its catalogue
// template's gen label, with the proxy's current Logic, plus the fields
// the landscape's measurements add.
type Label struct {
	gen.Label
	// Year is the deployment year (2015–2023).
	Year int
	// CompilerKnown and HasTx drive tool availability gates, with
	// HasSource.
	CompilerKnown bool
	HasTx         bool
	// TemplateID groups bytecode-identical deployments (Figure 5).
	TemplateID int
	// Upgrades is the number of logic switches performed after deployment.
	Upgrades int
}

// Config parameterizes generation. Zero values select the defaults.
type Config struct {
	// Seed drives all randomness; equal seeds give identical populations.
	Seed int64
	// Contracts is the approximate total number of alive contracts
	// (default 4000). The paper's 36M population is scaled down keeping
	// proportions.
	Contracts int
	// Network selects the simulated EVM chain (default: Ethereum mainnet).
	// The proxy pattern is chain-agnostic, so the same generator models
	// the other networks Section 8.2 lists.
	Network chain.Config
}

func (c Config) withDefaults() Config {
	if c.Contracts == 0 {
		c.Contracts = 4000
	}
	if c.Network.ChainID == 0 {
		c.Network = chain.MainnetConfig()
	}
	return c
}

// Population is a generated landscape.
type Population struct {
	Chain    *chain.Chain
	Registry *etherscan.Registry
	Labels   []*Label
	ByAddr   map[etypes.Address]*Label

	cfg Config
}

// Corpus is the oracle's view of the population's alive contracts: their
// gen labels in label order, over the population's chain and registry.
func (p *Population) Corpus() *gen.Corpus {
	c := &gen.Corpus{
		Config:   gen.Config{Seed: p.cfg.Seed, Contracts: p.cfg.Contracts},
		Chain:    p.Chain,
		Registry: p.Registry,
		ByAddr:   make(map[etypes.Address]*gen.Label, len(p.Labels)),
	}
	for _, l := range p.Labels {
		if l.Kind != KindDestroyed {
			c.Labels = append(c.Labels, &l.Label)
			c.ByAddr[l.Address] = &l.Label
		}
	}
	return c
}

// YearOf maps a block height back to its deployment year.
func (p *Population) YearOf(block uint64) int {
	span := p.yearSpan()
	y := 2015 + int((block-1)/span)
	if y > 2023 {
		y = 2023
	}
	return y
}

func (p *Population) yearSpan() uint64 {
	return uint64(p.cfg.Contracts) + 400
}

// yearShare is each year's fraction of total deployments, shaped after the
// cumulative curve in Figure 2.
var yearShare = map[int]float64{
	2015: 0.008, 2016: 0.030, 2017: 0.062, 2018: 0.055, 2019: 0.050,
	2020: 0.065, 2021: 0.190, 2022: 0.310, 2023: 0.230,
}

// proxyShare is the fraction of each year's deployments that are proxies,
// shaped so that the aggregate lands near the paper's 54.2% and the
// 2022–2023 cohorts are >93% proxies (Section 7.2).
var proxyShare = map[int]float64{
	2015: 0.05, 2016: 0.08, 2017: 0.15, 2018: 0.10, 2019: 0.12,
	2020: 0.15, 2021: 0.30, 2022: 0.93, 2023: 0.93,
}

// years lists the generation order.
var years = []int{2015, 2016, 2017, 2018, 2019, 2020, 2021, 2022, 2023}

// Generate builds the synthetic landscape.
func Generate(cfg Config) *Population {
	g := newGenerator(cfg)
	g.retain = true
	g.run()
	return g.pop
}

// generator holds generation state.
type generator struct {
	pop *Population
	rng *rand.Rand
	// dep deploys into the population, minting 0xda-prefixed addresses.
	dep *gen.Deployer
	tpl templates
	// clones holds one minimal-proxy template per logic contract.
	clones map[etypes.Address]gen.Template

	// retain keeps every label in Population.Labels/ByAddr (the batch
	// mode). Streaming generation turns it off so the corpus never
	// accumulates in memory.
	retain bool
	// emit, when set, receives each label once its contract has reached the
	// chain state the label describes — the streaming tap. It may block;
	// that blocking is the generator's backpressure.
	emit func(*Label)
	// unemitted is the label added last, held back from emit until the
	// generator moves on to the next contract (see flush).
	unemitted *Label
	// keepAlive, when set, marks addresses that must survive streaming
	// retirement: shared logic targets and proxies with upgrades still
	// scheduled against them.
	keepAlive func(etypes.Address)

	// Shared logic targets for the clone mega-families.
	coinToolLogic etypes.Address
	xenLogic      etypes.Address
	ownableLogic  etypes.Address
	cloneLogics   []etypes.Address
	uupsLogics    []etypes.Address
	adHocLogics   []etypes.Address

	templateSeq int
	// pendingUpgrades schedules logic switches by year. The label itself,
	// not just the address, so a logic switch can update its proxy's
	// ground truth without an index over the whole population.
	pendingUpgrades map[int][]*Label
}

// newGenerator sets up an empty population for cfg and its generator.
func newGenerator(cfg Config) *generator {
	cfg = cfg.withDefaults()
	p := &Population{
		Chain:    chain.NewWithConfig(cfg.Network),
		Registry: etherscan.NewRegistry(),
		ByAddr:   make(map[etypes.Address]*Label),
		cfg:      cfg,
	}
	return &generator{
		pop:             p,
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		dep:             gen.NewDeployer(p.Chain, p.Registry, 0xda, 0x100000),
		tpl:             newTemplates(),
		clones:          make(map[etypes.Address]gen.Template),
		pendingUpgrades: make(map[int][]*Label),
	}
}

// templates are the landscape's fixed catalogue contracts, built once per
// population: a deployment copies its template instead of recompiling.
type templates struct {
	ownableProxy, ownableLogic       gen.Template
	transparent1967, transparent1822 gen.Template
	honeypotProxy, honeypotLogic     gen.Template
	audiusProxy, audiusLogic         gen.Template
	diamond, facet                   gen.Template
	hostile                          gen.Template
	adHoc                            [7]gen.Template
	plain                            [23]gen.Template
	token                            [31]gen.Template
}

func newTemplates() templates {
	var t templates
	t.ownableProxy, t.ownableLogic = gen.OwnableDelegateProxy()
	t.transparent1967 = gen.TransparentProxy(KindEIP1967Proxy)
	t.transparent1822 = gen.TransparentProxy(KindEIP1822Proxy)
	t.honeypotProxy, t.honeypotLogic = gen.HoneypotPair()
	t.audiusProxy, t.audiusLogic = gen.AudiusPair()
	t.diamond, t.facet = gen.Diamond()
	t.hostile = gen.HostileProxy()
	for n := range t.adHoc {
		t.adHoc[n] = gen.AdHocProxy(n)
	}
	for n := range t.plain {
		t.plain[n] = gen.Plain(n)
	}
	for n := range t.token {
		t.token[n] = gen.Token(n)
	}
	return t
}

// add installs the label's code, records the label, and publishes src if
// the label has source. In streaming mode the label goes to the emit tap
// instead of (or in addition to) the retained slices — at the next flush,
// not here.
func (g *generator) add(l *Label, src *solc.Contract) *Label {
	g.flush()
	g.dep.Install(&l.Label, src, l.CompilerKnown)
	if g.retain {
		g.pop.Labels = append(g.pop.Labels, l)
		g.pop.ByAddr[l.Address] = l
	}
	g.unemitted = l
	return l
}

// flush hands the last added label to the emit tap. A recipe installs its
// contract first and then brings it to its labelled state — initialises
// the implementation slot, sends the transaction HasTx promises, executes
// the self-destruct — so emitting from add would let a streaming consumer
// analyze a contract the label does not describe yet (a "destroyed" one
// still serving code). Emission therefore waits until the generator moves
// on: the next add, or the end of the run. Order is unchanged.
func (g *generator) flush() {
	if l := g.unemitted; l != nil && g.emit != nil {
		g.unemitted = nil
		g.emit(l)
	}
}

// sourceDice rolls source/compiler availability with kind-dependent odds:
// ~10% of proxies and ~28% of the rest publish source (aggregating to the
// paper's ~18%), and ~70% of published sources have a known compiler.
func (g *generator) sourceDice(isProxy bool) (hasSource, compilerKnown bool) {
	pSource := 0.28
	if isProxy {
		pSource = 0.10
	}
	hasSource = g.rng.Float64() < pSource
	compilerKnown = hasSource && g.rng.Float64() < 0.70
	return hasSource, compilerKnown
}

// txDice rolls past-transaction availability: ~92% of proxies have
// interacted (leaving the paper's ~8% hidden proxies), ~10% of the rest.
func (g *generator) txDice(isProxy bool) bool {
	if isProxy {
		return g.rng.Float64() < 0.92
	}
	return g.rng.Float64() < 0.10
}

// run generates all years in order.
func (g *generator) run() {
	g.deploySharedLogics()

	total := g.pop.cfg.Contracts
	for _, year := range years {
		n := int(float64(total) * yearShare[year])
		if n < 4 {
			n = 4
		}
		g.generateYear(year, n)
	}
	g.flush()
}

// yearBase maps a year to the first block of its span. Spans are sized so
// every deployment and transaction of a year fits inside it (each contract
// consumes at most two blocks: its deployment gap and one transaction).
func (g *generator) yearBase(year int) uint64 {
	return uint64(year-2015)*g.pop.yearSpan() + 1
}

// deploySharedLogics installs the logic contracts the clone families and
// standard proxies point at.
func (g *generator) deploySharedLogics() {
	g.pop.Chain.AdvanceTo(1)

	install := func(t gen.Template, hasSource bool) etypes.Address {
		g.templateSeq++
		l := &Label{Label: t.Label, Year: 2015, TemplateID: g.templateSeq}
		l.HasSource, l.CompilerKnown = hasSource, hasSource
		g.add(l, t.Published)
		if g.keepAlive != nil {
			// Shared logic targets are delegated to by proxies deployed
			// across all later years — they must never be retired.
			g.keepAlive(l.Address)
		}
		return l.Address
	}
	g.coinToolLogic = install(gen.CloneLogic("CoinTool_App"), true)
	g.xenLogic = install(gen.CloneLogic("XENTorrent"), true)
	g.ownableLogic = install(g.tpl.ownableLogic, true)
	family := gen.CloneLogic("Fam")
	for i := 0; i < 12; i++ {
		// A third of the clone families point at unverified logic, so the
		// "no source at all" pair series of Figure 4 is non-empty.
		g.cloneLogics = append(g.cloneLogics, install(family, i%3 != 0))
	}
	for i := 1; i <= 4; i++ {
		g.uupsLogics = append(g.uupsLogics, install(gen.UUPSLogic(i), true))
	}
	for i := 0; i < 4; i++ {
		g.adHocLogics = append(g.adHocLogics, install(gen.AdHocLogic(i), true))
	}
}

// generateYear deploys n contracts into the given year.
func (g *generator) generateYear(year, n int) {
	c := g.pop.Chain
	c.AdvanceTo(g.yearBase(year))

	// Apply upgrades scheduled for this year first.
	for _, l := range g.pendingUpgrades[year] {
		g.applyUpgrade(l)
	}

	for i := 0; i < n; i++ {
		c.AdvanceBlocks(1)
		if g.rng.Float64() < proxyShare[year] {
			g.generateProxy(year)
		} else {
			g.generateNonProxy(year)
		}
	}
}

// deployLogicVersion installs a fresh logic-contract version.
func (g *generator) deployLogicVersion() etypes.Address {
	g.templateSeq++
	t := gen.UUPSLogic(g.templateSeq)
	return g.add(&Label{Label: t.Label, TemplateID: g.templateSeq}, t.Published).Address
}

// generateProxy picks a proxy template per the Table 4 standard split.
func (g *generator) generateProxy(year int) {
	r := g.rng.Float64()
	switch {
	case r < 0.18: // CoinTool_App clones (post-2020 mega family)
		g.addMinimalClone(year, g.coinToolLogic, 1)
	case r < 0.30: // XENTorrent clones
		g.addMinimalClone(year, g.xenLogic, 2)
	case r < 0.89: // remaining minimal proxies across smaller families
		fam := g.rng.Intn(len(g.cloneLogics))
		g.addMinimalClone(year, g.cloneLogics[fam], 10+fam)
	case r < 0.95: // OwnableDelegateProxy duplicates (function collisions)
		g.addOwnableProxy(year)
	case r < 0.96: // EIP-1967
		g.addStandardProxy(year, KindEIP1967Proxy)
	case r < 0.963: // EIP-1822 (band widened slightly so small scaled
		// populations still contain a few; the paper measures 0.12%)
		g.addStandardProxy(year, KindEIP1822Proxy)
	case r < 0.995: // ad-hoc storage proxies, occasionally vulnerable
		g.addAdHocProxy(year)
	default: // diamonds (missed by emulation) and hostile proxies
		if g.rng.Float64() < 0.7 {
			g.addDiamond(year)
		} else {
			g.addHostileProxy(year)
		}
	}
}

func (g *generator) addMinimalClone(year int, logic etypes.Address, template int) {
	t, ok := g.clones[logic]
	if !ok {
		t = gen.MinimalProxy(logic)
		g.clones[logic] = t
	}
	l := &Label{Label: t.Label, Year: year, TemplateID: template}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	l.HasTx = g.txDice(true)
	g.add(l, t.Published)
	g.maybeTransact(l)
}

func (g *generator) addOwnableProxy(year int) {
	t := g.tpl.ownableProxy
	l := &Label{Label: t.Label, Year: year, TemplateID: 3}
	l.Logic = g.ownableLogic
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	l.HasTx = g.txDice(true)
	g.add(l, t.Published)
	g.dep.SetSlot(l.Address, l.ImplSlot, l.Logic)
	g.maybeTransact(l)
}

func (g *generator) addStandardProxy(year int, kind Kind) {
	t := g.tpl.transparent1967
	if kind == KindEIP1822Proxy {
		t = g.tpl.transparent1822
	}
	logic := g.uupsLogics[g.rng.Intn(len(g.uupsLogics))]
	g.templateSeq++
	l := &Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}
	l.Logic = logic
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	l.HasTx = g.txDice(true)
	g.add(l, t.Published)
	g.dep.SetSlot(l.Address, l.ImplSlot, logic)
	g.maybeTransact(l)
	g.maybeScheduleUpgrades(l, year)
}

// addAdHocProxy deploys a non-standard storage proxy; a small fraction are
// the vulnerable honeypot / Audius shapes that seed Table 3's collisions.
func (g *generator) addAdHocProxy(year int) {
	r := g.rng.Float64()
	switch {
	case r < 0.10 && year >= 2018:
		g.addHoneypot(year)
	case r < 0.28 && year >= 2018:
		g.addAudius(year)
	default:
		g.templateSeq++
		fam := g.templateSeq % 7 // a few duplicate families
		t := g.tpl.adHoc[fam]
		l := &Label{Label: t.Label, Year: year, TemplateID: 100 + fam}
		l.Logic = g.adHocLogics[fam%len(g.adHocLogics)]
		l.HasSource, l.CompilerKnown = g.sourceDice(true)
		l.HasTx = g.txDice(true)
		g.add(l, t.Published)
		g.dep.SetSlot(l.Address, l.ImplSlot, l.Logic)
		g.maybeTransact(l)
		g.maybeScheduleUpgrades(l, year)
	}
}

// addHoneypot deploys the Listing 1 function-collision scam as a hidden
// contract: no source, no transactions — invisible to every prior tool.
func (g *generator) addHoneypot(year int) {
	g.templateSeq++
	logic := g.tpl.honeypotLogic
	logicLabel := g.add(&Label{Label: logic.Label, Year: year, TemplateID: g.templateSeq}, logic.Published)

	g.templateSeq++
	t := g.tpl.honeypotProxy
	l := &Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}
	l.Logic = logicLabel.Address
	// Hidden: deliberately no source and no transactions.
	g.add(l, t.Published)
	g.dep.SetSlot(l.Address, l.ImplSlot, l.Logic)
}

// addAudius deploys the Listing 2 exploitable storage collision.
func (g *generator) addAudius(year int) {
	g.templateSeq++
	logic := g.tpl.audiusLogic
	logicLabel := &Label{Label: logic.Label, Year: year, TemplateID: g.templateSeq}
	logicLabel.HasSource, logicLabel.CompilerKnown = g.sourceDice(false)
	g.add(logicLabel, logic.Published)

	g.templateSeq++
	t := g.tpl.audiusProxy
	l := &Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}
	l.Logic = logicLabel.Address
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	// A third of the vulnerable pairs never transact: the hidden collisions
	// only Proxion can reach (Section 6.2).
	l.HasTx = g.rng.Float64() < 0.67
	g.add(l, t.Published)
	g.dep.SetSlot(l.Address, l.ImplSlot, l.Logic)
	g.maybeTransact(l)
}

func (g *generator) addDiamond(year int) {
	g.templateSeq++
	facet := g.tpl.facet
	facetLabel := g.add(&Label{Label: facet.Label, Year: year, TemplateID: g.templateSeq}, facet.Published)

	g.templateSeq++
	t := g.tpl.diamond
	l := &Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}
	l.Logic = facetLabel.Address
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	g.add(l, t.Published)
	g.dep.RegisterFacet(&l.Label, &facetLabel.Label)

	// Most diamonds have been used: a past transaction carrying a
	// registered facet selector, which the history-assisted detection
	// extension mines (Section 8.2).
	if g.rng.Float64() < 0.8 {
		l.HasTx = true
		sel := facet.Source.Selectors()[0]
		g.pop.Chain.Execute(sender, l.Address, abi.EncodeCall(sel), 2_000_000, u256.Zero())
	}
}

func (g *generator) addHostileProxy(year int) {
	logic := g.uupsLogics[g.rng.Intn(len(g.uupsLogics))]
	g.templateSeq++
	t := g.tpl.hostile
	l := &Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}
	l.Logic = logic
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	g.add(l, t.Published)
	g.dep.SetSlot(l.Address, l.ImplSlot, logic)
}

// generateNonProxy deploys plain contracts, tokens, library users, and the
// occasional broken blob.
func (g *generator) generateNonProxy(year int) {
	r := g.rng.Float64()
	switch {
	case r < 0.05:
		// Undecodable/broken blobs: the population behind the paper's 4.9%
		// emulation runtime errors (Section 7.1).
		g.templateSeq++
		t := gen.Broken(g.templateSeq % 251)
		g.add(&Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}, nil)
	case r < 0.13:
		g.addLibraryUser(year)
	case r < 0.155:
		g.addDestroyed(year)
	case r < 0.55:
		g.templateSeq++
		t := g.tpl.plain[g.templateSeq%23]
		l := &Label{Label: t.Label, Year: year, TemplateID: 200 + g.templateSeq%23}
		l.HasSource, l.CompilerKnown = g.sourceDice(false)
		l.HasTx = g.txDice(false)
		g.add(l, t.Published)
		g.maybeTransact(l)
	default:
		g.templateSeq++
		t := g.tpl.token[g.templateSeq%31]
		l := &Label{Label: t.Label, Year: year, TemplateID: 300 + g.templateSeq%31}
		l.HasSource, l.CompilerKnown = g.sourceDice(false)
		l.HasTx = g.txDice(false)
		g.add(l, t.Published)
		g.maybeTransact(l)
	}
}

// addDestroyed deploys a short-lived contract and self-destructs it in a
// follow-up transaction. The paper's population counts only *alive*
// contracts (Section 3.1 excludes destroyed ones); these exercise that
// filter.
func (g *generator) addDestroyed(year int) {
	g.templateSeq++
	t := gen.Destroyed()
	l := g.add(&Label{Label: t.Label, Year: year, TemplateID: g.templateSeq, HasTx: true}, nil)
	killer := etypes.MustAddress("0x00000000000000000000000000000000000edca2")
	g.pop.Chain.Execute(killer, l.Address, nil, 2_000_000, u256.Zero())
}

// addLibraryUser deploys a contract delegatecalling a shared library with
// constructed call data — the CRUSH/Etherscan false-positive bait.
func (g *generator) addLibraryUser(year int) {
	n := g.templateSeq % 5
	g.templateSeq++
	lib := gen.Library(n)
	libLabel := &Label{Label: lib.Label, Year: year, TemplateID: g.templateSeq}
	libLabel.HasSource, libLabel.CompilerKnown = true, true
	g.add(libLabel, lib.Published)

	g.templateSeq++
	t := gen.LibraryUser(n, libLabel.Address)
	l := &Label{Label: t.Label, Year: year, TemplateID: g.templateSeq}
	l.HasSource, l.CompilerKnown = g.sourceDice(false)
	l.HasTx = true // library users transact: that is how CRUSH sees them
	g.add(l, t.Published)
	g.maybeTransact(l)
}

// sender is the externally owned account behind the landscape's
// transactions.
var sender = etypes.MustAddress("0x00000000000000000000000000000000000edca1")

// maybeTransact executes one external transaction against the contract so
// trace-based tools can see it, when the label says it has history.
func (g *generator) maybeTransact(l *Label) {
	if !l.HasTx {
		return
	}
	var input []byte
	switch l.Kind {
	case KindLibraryUser:
		// Hit the fallback so the library delegatecall executes.
		input = []byte{0xde, 0xad, 0xbe, 0xef}
	default:
		// A generic call; proxies forward it, others dispatch or revert.
		input = abi.EncodeCall(abi.SelectorOf("count()"))
	}
	g.pop.Chain.Execute(sender, l.Address, input, 2_000_000, u256.Zero())
}

// maybeScheduleUpgrades rarely performs or schedules logic switches
// (Figure 6: only a tiny share of proxies ever upgrade; most switch once or
// twice, a couple of outliers upgrade dozens of times). Upgrades that would
// land past the final year are applied immediately, a few blocks after the
// proxy's deployment.
func (g *generator) maybeScheduleUpgrades(l *Label, year int) {
	r := g.rng.Float64()
	if r > 0.15 { // upgrades only make sense for the few storage proxies
		return
	}
	count := 1 + g.rng.Intn(2)
	if r < 0.006 {
		count = 20 + g.rng.Intn(60) // the Figure 6 long tail
	}
	if g.keepAlive != nil {
		// The proxy's storage will be rewritten when each scheduled
		// upgrade lands, possibly years after a streaming consumer
		// finished with it — keep it out of retirement's reach.
		g.keepAlive(l.Address)
	}
	for i := 0; i < count; i++ {
		y := year + 1 + g.rng.Intn(3)
		if y > 2023 {
			g.applyUpgrade(l)
			continue
		}
		g.pendingUpgrades[y] = append(g.pendingUpgrades[y], l)
	}
}

// applyUpgrade installs a fresh logic version and points the proxy at it.
// The proxy's label mutates in place: in batch mode every caller still
// holds the pointer; in streaming mode the label may already be emitted,
// so consumers that need post-upgrade ground truth must read labels after
// the stream drains (the documented streaming caveat).
func (g *generator) applyUpgrade(l *Label) {
	g.pop.Chain.AdvanceBlocks(1)
	v := g.deployLogicVersion()
	g.dep.SetSlot(l.Address, l.ImplSlot, v)
	l.Upgrades++
	l.Logic = v
	// Every version is a UUPS logic, a uint256 in slot 0. An ad-hoc proxy
	// keeps its owner address there, so the upgrade opens a storage
	// collision; a transparent proxy's slots are hash-derived and stay
	// clear.
	l.StorageCollision = l.Kind == KindAdHocProxy
}
