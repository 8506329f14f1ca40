package dataset

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etherscan"
	"repro/internal/etypes"
	"repro/internal/solc"
	"repro/internal/u256"
)

// Kind labels a generated contract's ground-truth category.
type Kind int

// Contract kinds in the generated landscape.
const (
	KindPlain Kind = iota
	KindToken
	KindMinimalProxy
	KindOwnableProxy
	KindEIP1967Proxy
	KindEIP1822Proxy
	KindAdHocProxy
	KindHoneypotProxy
	KindAudiusProxy
	KindDiamond
	KindLibraryUser
	KindLibrary
	KindBroken
	KindHostileProxy
	KindLogic
	KindDestroyed
)

// String names the kind.
func (k Kind) String() string {
	names := map[Kind]string{
		KindPlain: "plain", KindToken: "token", KindMinimalProxy: "minimal-proxy",
		KindOwnableProxy: "ownable-proxy", KindEIP1967Proxy: "eip1967-proxy",
		KindEIP1822Proxy: "eip1822-proxy", KindAdHocProxy: "adhoc-proxy",
		KindHoneypotProxy: "honeypot-proxy", KindAudiusProxy: "audius-proxy",
		KindDiamond: "diamond", KindLibraryUser: "library-user",
		KindLibrary: "library", KindBroken: "broken",
		KindHostileProxy: "hostile-proxy", KindLogic: "logic",
		KindDestroyed: "destroyed",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return "unknown"
}

// Label is the ground truth for one generated contract.
type Label struct {
	Address etypes.Address
	Kind    Kind
	// Year is the deployment year (2015–2023).
	Year int
	// IsProxy is the ground-truth proxy classification under the paper's
	// definition (fallback forwards call data via delegatecall).
	IsProxy bool
	// Logic is the current logic contract for proxies.
	Logic etypes.Address
	// HasSource / CompilerKnown / HasTx drive tool availability gates.
	HasSource     bool
	CompilerKnown bool
	HasTx         bool
	// TemplateID groups bytecode-identical deployments (Figure 5).
	TemplateID int
	// TrueFunctionCollision / TrueStorageCollision are pair-level ground
	// truth against Logic.
	TrueFunctionCollision bool
	TrueStorageCollision  bool
	// Upgrades is the number of logic switches performed after deployment.
	Upgrades int
	// ImplSlot is the storage slot holding the logic address, for
	// storage-based proxies.
	ImplSlot etypes.Hash
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

// Population is a generated landscape.
type Population struct {
	Chain    *chain.Chain
	Registry *etherscan.Registry
	Labels   []*Label
	ByAddr   map[etypes.Address]*Label

	cfg      Config
	nextAddr uint64
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
	if cfg.Contracts == 0 {
		cfg.Contracts = 4000
	}
	if cfg.Network.ChainID == 0 {
		cfg.Network = chain.MainnetConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Population{
		Chain:    chain.NewWithConfig(cfg.Network),
		Registry: etherscan.NewRegistry(),
		ByAddr:   make(map[etypes.Address]*Label),
		cfg:      cfg,
		nextAddr: 0x100000,
	}
	g := &generator{pop: p, rng: rng, cfg: cfg, retain: true}
	g.run()
	return p
}

// generator holds generation state.
type generator struct {
	pop *Population
	rng *rand.Rand
	cfg Config

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
	// pendingUpgrades schedules logic switches by year.
	pendingUpgrades map[int][]upgrade
}

// upgrade carries the label itself, not just the address, so a scheduled
// logic switch can update its proxy's ground truth without an index over
// the whole population.
type upgrade struct {
	lbl  *Label
	slot etypes.Hash
}

// newAddr mints a fresh deterministic address.
func (p *Population) newAddr() etypes.Address {
	p.nextAddr++
	var buf [20]byte
	binary.BigEndian.PutUint64(buf[12:], p.nextAddr)
	buf[0] = 0xda // visually distinct from hand-written test addresses
	return etypes.Address(buf)
}

// add installs code, records the label, and registers source if published.
// In streaming mode the label goes to the emit tap instead of (or in
// addition to) the retained slices — at the next flush, not here.
func (g *generator) add(l *Label, code []byte, src *solc.Contract) *Label {
	g.flush()
	if l.Address.IsZero() {
		l.Address = g.pop.newAddr()
	}
	g.pop.Chain.InstallContract(l.Address, code)
	if g.retain {
		g.pop.Labels = append(g.pop.Labels, l)
		g.pop.ByAddr[l.Address] = l
	}
	if l.HasSource && src != nil {
		g.pop.Registry.Publish(l.Address, src, l.CompilerKnown)
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

// compileAndAdd compiles src and installs it.
func (g *generator) compileAndAdd(l *Label, src *solc.Contract) *Label {
	return g.add(l, solc.MustCompile(src), src)
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
	g.pendingUpgrades = make(map[int][]upgrade)
	g.deploySharedLogics()

	total := g.cfg.Contracts
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
	c := g.pop.Chain
	c.AdvanceTo(1)

	install := func(src *solc.Contract) etypes.Address {
		l := &Label{Kind: KindLogic, Year: 2015, HasSource: true, CompilerKnown: true}
		g.templateSeq++
		l.TemplateID = g.templateSeq
		g.compileAndAdd(l, src)
		return l.Address
	}
	g.coinToolLogic = install(cloneLogic("CoinTool_App"))
	g.xenLogic = install(cloneLogic("XENTorrent"))

	_, ownableLogicSrc := ownableDelegateProxy()
	g.ownableLogic = install(ownableLogicSrc)

	for i := 0; i < 12; i++ {
		src := cloneLogic("Fam")
		if i%3 == 0 {
			// A third of the clone families point at unverified logic, so
			// the "no source at all" pair series of Figure 4 is non-empty.
			l := &Label{Kind: KindLogic, Year: 2015}
			g.templateSeq++
			l.TemplateID = g.templateSeq
			g.compileAndAdd(l, src)
			g.cloneLogics = append(g.cloneLogics, l.Address)
			continue
		}
		g.cloneLogics = append(g.cloneLogics, install(src))
	}
	for i := 1; i <= 4; i++ {
		g.uupsLogics = append(g.uupsLogics, install(uupsLogic(i)))
	}
	for i := 0; i < 4; i++ {
		g.adHocLogics = append(g.adHocLogics, install(adHocLogic(i)))
	}
	if g.keepAlive != nil {
		// Shared logic targets are delegated to by proxies deployed across
		// all later years — they must never be retired.
		g.keepAlive(g.coinToolLogic)
		g.keepAlive(g.xenLogic)
		g.keepAlive(g.ownableLogic)
		for _, a := range g.cloneLogics {
			g.keepAlive(a)
		}
		for _, a := range g.uupsLogics {
			g.keepAlive(a)
		}
		for _, a := range g.adHocLogics {
			g.keepAlive(a)
		}
	}
	_ = c
}

// generateYear deploys n contracts into the given year.
func (g *generator) generateYear(year, n int) {
	c := g.pop.Chain
	c.AdvanceTo(g.yearBase(year))

	// Apply upgrades scheduled for this year first.
	for _, up := range g.pendingUpgrades[year] {
		g.applyUpgrade(up)
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
	l := &Label{Kind: KindLogic, HasSource: false, TemplateID: g.templateSeq}
	g.compileAndAdd(l, uupsLogic(g.templateSeq))
	return l.Address
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
	l := &Label{
		Kind: KindMinimalProxy, Year: year, IsProxy: true, Logic: logic,
		TemplateID: template,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	l.HasTx = g.txDice(true)
	src := &solc.Contract{
		Name:     "MinimalProxy",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateHardcoded, Target: logic},
	}
	g.add(l, disasm.MinimalProxyRuntime(logic), src)
	g.maybeTransact(l)
}

func (g *generator) addOwnableProxy(year int) {
	proxySrc, _ := ownableDelegateProxy()
	l := &Label{
		Kind: KindOwnableProxy, Year: year, IsProxy: true, Logic: g.ownableLogic,
		TemplateID:            3,
		TrueFunctionCollision: true, // proxyType()/implementation()/upgradeabilityOwner()
		ImplSlot:              implSlot1,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	l.HasTx = g.txDice(true)
	g.compileAndAdd(l, proxySrc)
	g.pop.Chain.SetStorageDirect(l.Address, implSlot1, etypes.HashFromWord(g.ownableLogic.Word()))
	g.maybeTransact(l)
}

func (g *generator) addStandardProxy(year int, kind Kind) {
	var slot etypes.Hash
	var src *solc.Contract
	switch kind {
	case KindEIP1967Proxy:
		slot = slotEIP1967
		src = transparentProxy1967(slot)
	case KindEIP1822Proxy:
		slot = slotEIP1822
		src = transparentProxy1967(slot)
		src.Name = "UUPSProxy"
	}
	logic := g.uupsLogics[g.rng.Intn(len(g.uupsLogics))]
	g.templateSeq++
	l := &Label{
		Kind: kind, Year: year, IsProxy: true, Logic: logic,
		TemplateID: g.templateSeq, ImplSlot: slot,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	l.HasTx = g.txDice(true)
	g.compileAndAdd(l, src)
	g.pop.Chain.SetStorageDirect(l.Address, slot, etypes.HashFromWord(logic.Word()))
	g.maybeTransact(l)
	g.maybeScheduleUpgrades(l, year, slot)
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
		proxySrc := adHocProxy(fam)
		slot := adHocSlot(fam)
		logic := g.adHocLogics[fam%len(g.adHocLogics)]
		l := &Label{
			Kind: KindAdHocProxy, Year: year, IsProxy: true, Logic: logic,
			TemplateID: 100 + fam, ImplSlot: slot,
		}
		l.HasSource, l.CompilerKnown = g.sourceDice(true)
		l.HasTx = g.txDice(true)
		g.compileAndAdd(l, proxySrc)
		g.pop.Chain.SetStorageDirect(l.Address, slot, etypes.HashFromWord(logic.Word()))
		g.maybeTransact(l)
		g.maybeScheduleUpgrades(l, year, slot)
	}
}

// addHoneypot deploys the Listing 1 function-collision scam as a hidden
// contract: no source, no transactions — invisible to every prior tool.
func (g *generator) addHoneypot(year int) {
	proxySrc, logicSrc := honeypotPair()
	g.templateSeq++
	logicLabel := &Label{Kind: KindLogic, Year: year, TemplateID: g.templateSeq}
	g.compileAndAdd(logicLabel, logicSrc)

	g.templateSeq++
	l := &Label{
		Kind: KindHoneypotProxy, Year: year, IsProxy: true,
		Logic: logicLabel.Address, TemplateID: g.templateSeq,
		TrueFunctionCollision: true, ImplSlot: implSlot1,
	}
	// Hidden: deliberately no source and no transactions.
	g.compileAndAdd(l, proxySrc)
	g.pop.Chain.SetStorageDirect(l.Address, implSlot1, etypes.HashFromWord(logicLabel.Address.Word()))
}

// addAudius deploys the Listing 2 exploitable storage collision.
func (g *generator) addAudius(year int) {
	proxySrc, logicSrc := audiusPair()
	g.templateSeq++
	logicLabel := &Label{Kind: KindLogic, Year: year, TemplateID: g.templateSeq}
	logicLabel.HasSource, logicLabel.CompilerKnown = g.sourceDice(false)
	g.compileAndAdd(logicLabel, logicSrc)

	g.templateSeq++
	l := &Label{
		Kind: KindAudiusProxy, Year: year, IsProxy: true,
		Logic: logicLabel.Address, TemplateID: g.templateSeq,
		TrueStorageCollision: true, ImplSlot: implSlot1,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	// A third of the vulnerable pairs never transact: the hidden collisions
	// only Proxion can reach (Section 6.2).
	l.HasTx = g.rng.Float64() < 0.67
	g.compileAndAdd(l, proxySrc)
	g.pop.Chain.SetStorageDirect(l.Address, implSlot1, etypes.HashFromWord(logicLabel.Address.Word()))
	g.maybeTransact(l)
}

func (g *generator) addDiamond(year int) {
	facetLabel := &Label{Kind: KindLogic, Year: year}
	g.templateSeq++
	facetLabel.TemplateID = g.templateSeq
	facetSrc := diamondFacet()
	g.compileAndAdd(facetLabel, facetSrc)

	src := diamondProxy()
	g.templateSeq++
	l := &Label{
		Kind: KindDiamond, Year: year, IsProxy: true, Logic: facetLabel.Address,
		TemplateID: g.templateSeq,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	g.compileAndAdd(l, src)
	// Register the facet's selector in the diamond mapping.
	sel := facetSrc.Funcs[0].ABI.Selector()
	selWord := u256.FromBytes(sel[:])
	pre := make([]byte, 64)
	sw := selWord.Bytes32()
	copy(pre[:32], sw[:])
	base := src.Fallback.Slot
	copy(pre[32:], base[:])
	g.pop.Chain.SetStorageDirect(l.Address, etypes.Keccak(pre), etypes.HashFromWord(facetLabel.Address.Word()))

	// Most diamonds have been used: a past transaction carrying a
	// registered facet selector, which the history-assisted detection
	// extension mines (Section 8.2).
	if g.rng.Float64() < 0.8 {
		l.HasTx = true
		sender := etypes.MustAddress("0x00000000000000000000000000000000000edca1")
		g.pop.Chain.Execute(sender, l.Address, abi.EncodeCall(sel), 2_000_000, u256.Zero())
	}
}

func (g *generator) addHostileProxy(year int) {
	logic := g.uupsLogics[g.rng.Intn(len(g.uupsLogics))]
	g.templateSeq++
	l := &Label{
		Kind: KindHostileProxy, Year: year, IsProxy: true, Logic: logic,
		TemplateID: g.templateSeq, ImplSlot: implSlot1,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(true)
	g.add(l, hostileProxy(), hostileProxySource())
	g.pop.Chain.SetStorageDirect(l.Address, implSlot1, etypes.HashFromWord(logic.Word()))
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
		l := &Label{Kind: KindBroken, Year: year, TemplateID: g.templateSeq}
		g.add(l, brokenBytecode(g.templateSeq%251), nil)
	case r < 0.13:
		g.addLibraryUser(year)
	case r < 0.155:
		g.addDestroyed(year)
	case r < 0.55:
		g.templateSeq++
		src := plainContract(g.templateSeq % 23)
		l := &Label{Kind: KindPlain, Year: year, TemplateID: 200 + g.templateSeq%23}
		l.HasSource, l.CompilerKnown = g.sourceDice(false)
		l.HasTx = g.txDice(false)
		g.compileAndAdd(l, src)
		g.maybeTransact(l)
	default:
		g.templateSeq++
		src := tokenContract(g.templateSeq % 31)
		l := &Label{Kind: KindToken, Year: year, TemplateID: 300 + g.templateSeq%31}
		l.HasSource, l.CompilerKnown = g.sourceDice(false)
		l.HasTx = g.txDice(false)
		g.compileAndAdd(l, src)
		g.maybeTransact(l)
	}
}

// addDestroyed deploys a short-lived contract and self-destructs it in a
// follow-up transaction. The paper's population counts only *alive*
// contracts (Section 3.1 excludes destroyed ones); these exercise that
// filter.
func (g *generator) addDestroyed(year int) {
	g.templateSeq++
	l := &Label{Kind: KindDestroyed, Year: year, TemplateID: g.templateSeq, HasTx: true}
	g.add(l, suicideBytecode(), nil)
	killer := etypes.MustAddress("0x00000000000000000000000000000000000edca2")
	g.pop.Chain.Execute(killer, l.Address, nil, 2_000_000, u256.Zero())
}

// addLibraryUser deploys a contract delegatecalling a shared library with
// constructed call data — the CRUSH/Etherscan false-positive bait.
func (g *generator) addLibraryUser(year int) {
	userSrc, libSrc := libraryPair(g.templateSeq % 5)
	g.templateSeq++
	libLabel := &Label{Kind: KindLibrary, Year: year, TemplateID: g.templateSeq}
	libLabel.HasSource, libLabel.CompilerKnown = true, true
	g.compileAndAdd(libLabel, libSrc)

	userSrc.Fallback.Target = libLabel.Address
	g.templateSeq++
	l := &Label{
		Kind: KindLibraryUser, Year: year, IsProxy: false, Logic: libLabel.Address,
		TemplateID: g.templateSeq,
	}
	l.HasSource, l.CompilerKnown = g.sourceDice(false)
	l.HasTx = true // library users transact: that is how CRUSH sees them
	g.compileAndAdd(l, userSrc)
	g.maybeTransact(l)
}

// maybeTransact executes one external transaction against the contract so
// trace-based tools can see it, when the label says it has history.
func (g *generator) maybeTransact(l *Label) {
	if !l.HasTx {
		return
	}
	sender := etypes.MustAddress("0x00000000000000000000000000000000000edca1")
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
func (g *generator) maybeScheduleUpgrades(l *Label, year int, slot etypes.Hash) {
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
			g.applyUpgrade(upgrade{lbl: l, slot: slot})
			continue
		}
		g.pendingUpgrades[y] = append(g.pendingUpgrades[y], upgrade{lbl: l, slot: slot})
	}
}

// applyUpgrade installs a fresh logic version and points the proxy at it.
// The proxy's label mutates in place: in batch mode every caller still
// holds the pointer; in streaming mode the label may already be emitted,
// so consumers that need post-upgrade ground truth must read labels after
// the stream drains (the documented streaming caveat).
func (g *generator) applyUpgrade(up upgrade) {
	c := g.pop.Chain
	c.AdvanceBlocks(1)
	v := g.deployLogicVersion()
	c.SetStorageDirect(up.lbl.Address, up.slot, etypes.HashFromWord(v.Word()))
	up.lbl.Upgrades++
	up.lbl.Logic = v
}
