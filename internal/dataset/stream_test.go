package dataset

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
)

// TestStreamMatchesBatchLabels is the streaming generator's parity
// contract: for the same seed and config, the label sequence delivered by
// GenerateStream must be value-identical to Population.Labels from the
// batch Generate — same order, same ground truth (including upgrade
// counts, which finalize only at drain) — and the resulting chains must
// hold the same contracts with the same bytecode.
func TestStreamMatchesBatchLabels(t *testing.T) {
	cfg := Config{Seed: 99, Contracts: 800}
	batch := Generate(cfg)

	s := GenerateStream(StreamConfig{Config: cfg})
	var streamed []*Label
	for l := range s.C {
		streamed = append(streamed, l)
	}

	if len(streamed) != len(batch.Labels) {
		t.Fatalf("streamed %d labels, batch has %d", len(streamed), len(batch.Labels))
	}
	for i := range streamed {
		if !reflect.DeepEqual(*streamed[i], *batch.Labels[i]) {
			t.Fatalf("label %d diverges:\nstream: %+v\nbatch:  %+v", i, *streamed[i], *batch.Labels[i])
		}
	}

	wantContracts := batch.Chain.Contracts()
	gotContracts := s.Chain.Contracts()
	if !reflect.DeepEqual(gotContracts, wantContracts) {
		t.Fatalf("chain contract sets differ: stream %d vs batch %d", len(gotContracts), len(wantContracts))
	}
	for _, addr := range wantContracts {
		if s.Chain.CodeHash(addr) != batch.Chain.CodeHash(addr) {
			t.Fatalf("bytecode at %s differs between streamed and batch chains", addr)
		}
	}
	if s.Registry.Count() != batch.Registry.Count() {
		t.Fatalf("registry sizes differ: stream %d vs batch %d", s.Registry.Count(), batch.Registry.Count())
	}
}

// TestStreamPrefixStableAndClose: a consumer that abandons the stream
// early has still seen, in order, a prefix of exactly the batch corpus
// (on the fields that never mutate after emission), and Close unblocks
// the generator promptly.
func TestStreamPrefixStableAndClose(t *testing.T) {
	cfg := Config{Seed: 4, Contracts: 1000}
	batch := Generate(cfg)

	s := GenerateStream(StreamConfig{Config: cfg})
	const take = 150
	var prefix []*Label
	for l := range s.C {
		prefix = append(prefix, l)
		if len(prefix) == take {
			break
		}
	}
	s.Close()
	for range s.C { // drain whatever was buffered; channel must close
	}

	if len(prefix) != take {
		t.Fatalf("took %d labels, want %d", len(prefix), take)
	}
	for i, l := range prefix {
		b := batch.Labels[i]
		if l.Address != b.Address || l.Kind != b.Kind || l.Year != b.Year || l.TemplateID != b.TemplateID {
			t.Fatalf("prefix label %d diverges from batch: %+v vs %+v", i, *l, *b)
		}
	}
	s.Close() // idempotent
}

// TestStreamRetirement: with Retire on and a consumer advancing as it
// goes, the chain sheds consumed contracts while pinned shared-logic
// targets survive for the proxies that delegate to them. The label
// sequence itself is unaffected by retirement.
func TestStreamRetirement(t *testing.T) {
	cfg := Config{Seed: 99, Contracts: 800}
	batch := Generate(cfg)

	const window = 64
	s := GenerateStream(StreamConfig{Config: cfg, Window: window, Retire: true})
	var streamed []*Label
	i := 0
	for l := range s.C {
		streamed = append(streamed, l)
		i++
		s.Advance(i)
	}
	s.Advance(i) // final advance after drain

	if len(streamed) != len(batch.Labels) {
		t.Fatalf("streamed %d labels, batch has %d", len(streamed), len(batch.Labels))
	}
	for k := range streamed {
		if !reflect.DeepEqual(*streamed[k], *batch.Labels[k]) {
			t.Fatalf("label %d diverges under retirement", k)
		}
	}

	if s.Retired() == 0 {
		t.Fatal("retirement never dropped a contract")
	}
	// Retirement keeps the alive set far below the corpus: the window,
	// the pinned set, and destroyed/no-code labels are all that remain.
	alive := len(s.Chain.Contracts())
	if alive >= len(batch.Chain.Contracts())/2 {
		t.Fatalf("retirement left %d of %d contracts alive", alive, len(batch.Chain.Contracts()))
	}

	// Every shared-logic target a surviving proxy may delegate to is
	// still resolvable.
	pinnedStillAlive := 0
	for addr := range s.keep {
		if len(s.Chain.Code(addr)) > 0 {
			pinnedStillAlive++
		}
	}
	if pinnedStillAlive == 0 {
		t.Fatal("no pinned address survived retirement")
	}

	// The last window of labels is untouched too.
	tail := streamed[len(streamed)-window/2:]
	for _, l := range tail {
		if l.Kind == KindDestroyed {
			continue
		}
		if len(s.Chain.Code(l.Address)) == 0 && l.Kind != KindBroken {
			t.Fatalf("in-window contract %s (%s) was retired early", l.Address, l.Kind)
		}
	}
}

// TestStreamBackpressure: the generator must not run ahead of the
// consumer by more than the channel buffer — a stalled consumer stalls
// generation rather than letting the corpus accumulate.
func TestStreamBackpressure(t *testing.T) {
	// Retire with an unreachable window keeps the pending ledger (our
	// emission counter) without actually retiring anything.
	s := GenerateStream(StreamConfig{Config: Config{Seed: 1, Contracts: 5000}, Window: 1 << 30, Retire: true})
	defer s.Close()

	const take = 10
	for i := 0; i < take; i++ {
		if _, ok := <-s.C; !ok {
			t.Fatal("stream ended after 10 labels")
		}
	}
	// Let the producer run as far ahead as it can get away with.
	time.Sleep(50 * time.Millisecond)
	s.mu.Lock()
	emitted := s.base + len(s.pending)
	s.mu.Unlock()
	// Bound: taken labels + channel buffer + the one label blocked in the
	// producer's select.
	if limit := take + cap(s.ch) + 1; emitted > limit {
		t.Fatalf("generator ran %d labels ahead, bound is %d", emitted, limit)
	}
}

// TestLabelsEmittedInTheirLabelledState taps the generator synchronously:
// at the moment a label is emitted, the chain must already be what the
// label says — a destroyed contract serves no code, a HasTx contract has
// its transaction (the selectors TxSelectors feeds the detector), a storage
// proxy's implementation slot is set. A streaming consumer analyzes on
// receipt, so anything emitted earlier is analyzed in a state no label
// describes (the no_code/filter_rejected split used to move between runs).
func TestLabelsEmittedInTheirLabelledState(t *testing.T) {
	cfg := Config{Seed: 7, Contracts: 1200, Network: chain.MainnetConfig()}
	p := &Population{
		Chain:    chain.NewWithConfig(cfg.Network),
		Registry: etherscan.NewRegistry(),
		cfg:      cfg,
		nextAddr: 0x100000,
	}
	seen := make(map[Kind]int)
	g := &generator{pop: p, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
	g.emit = func(l *Label) {
		seen[l.Kind]++
		if l.Kind == KindDestroyed && len(p.Chain.Code(l.Address)) != 0 {
			t.Errorf("%s emitted as destroyed while still serving code", l.Address)
		}
		if l.HasTx && p.Chain.TxCount(l.Address) == 0 {
			t.Errorf("%s (%s) emitted with HasTx before its transaction ran", l.Address, l.Kind)
		}
		if l.IsProxy && l.ImplSlot != (etypes.Hash{}) && p.Chain.GetState(l.Address, l.ImplSlot) == (etypes.Hash{}) {
			t.Errorf("%s (%s) emitted before its implementation slot was set", l.Address, l.Kind)
		}
	}
	g.run()
	if seen[KindDestroyed] == 0 || seen[KindEIP1967Proxy] == 0 || seen[KindLibraryUser] == 0 {
		t.Fatalf("corpus too small to exercise the ordering: %v", seen)
	}
	if want := len(Generate(cfg).Labels); len(seen) == 0 || sum(seen) != want {
		t.Fatalf("tap saw %d labels, batch generation makes %d", sum(seen), want)
	}
}

func sum(m map[Kind]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}
