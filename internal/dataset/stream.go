package dataset

import (
	"errors"
	"sync"

	"repro/internal/chain"
	"repro/internal/etherscan"
	"repro/internal/etypes"
)

// StreamConfig parameterizes streaming generation. The embedded Config is
// interpreted exactly as Generate interprets it — same seed, same corpus.
type StreamConfig struct {
	Config
	// Window is the retirement lag: a contract becomes eligible for
	// retirement only once the consumer has advanced at least Window
	// labels past it, so logic contracts deployed immediately before
	// their proxies stay readable throughout the proxies' analysis.
	// Default 8192.
	Window int
	// Retire enables dropping fully consumed contracts from the chain and
	// source registry as the consumer advances, bounding the generator
	// side's memory the way the analysis window bounds the engine's.
	// Incompatible with history recovery (retirement trims the event
	// traces Algorithm 1 replays).
	Retire bool
}

// errStreamAborted unwinds the generator goroutine when the stream is
// closed before it drains.
var errStreamAborted = errors.New("dataset: label stream closed")

// LabelStream is a landscape being generated on demand. Labels arrive on
// C in exactly the order Generate would have appended them to
// Population.Labels — the parity contract — and each label is emitted the
// moment its contract is live on Chain, so a consumer can analyze it
// immediately. The channel send is the generator's backpressure: a
// consumer that stops reading stops generation, holding the whole
// producer side at a bounded working set.
//
// Caveat: labels are pointers the generator may still mutate — a proxy's
// Upgrades/Logic fields change when a scheduled upgrade lands, possibly
// long after emission. Ground truth is final only once C closes.
type LabelStream struct {
	// C delivers the labels; closed when generation completes.
	C <-chan *Label
	// Chain and Registry are the live chain and source registry the
	// stream deploys into — hand them to the analysis engine.
	Chain    *chain.Chain
	Registry *etherscan.Registry

	cfg      StreamConfig
	ch       chan *Label
	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	pending []etypes.Address // emitted, not yet retired; index-aligned to base
	keep    map[etypes.Address]struct{}
	base    int // emission index of pending[0]
	retired int
}

// GenerateStream starts generating the cfg landscape on a background
// goroutine and returns the live stream. Call Close when abandoning the
// stream early; a fully drained stream needs no Close.
func GenerateStream(cfg StreamConfig) *LabelStream {
	cfg.Config = cfg.Config.withDefaults()
	if cfg.Window <= 0 {
		cfg.Window = 8192
	}
	s := &LabelStream{
		cfg:  cfg,
		ch:   make(chan *Label, 256),
		stop: make(chan struct{}),
		keep: make(map[etypes.Address]struct{}),
	}
	s.C = s.ch

	g := newGenerator(cfg.Config)
	g.emit, g.keepAlive = s.emitLabel, s.keepAlive
	s.Chain, s.Registry = g.pop.Chain, g.pop.Registry
	go func() {
		defer close(s.ch)
		defer func() {
			if r := recover(); r != nil && r != errStreamAborted {
				panic(r)
			}
		}()
		g.run()
	}()
	return s
}

// emitLabel is the generator's tap: blocks until the consumer takes the
// label or the stream is closed.
func (s *LabelStream) emitLabel(l *Label) {
	select {
	case s.ch <- l:
	case <-s.stop:
		panic(errStreamAborted)
	}
	if s.cfg.Retire {
		s.mu.Lock()
		s.pending = append(s.pending, l.Address)
		s.mu.Unlock()
	}
}

// keepAlive pins an address against retirement.
func (s *LabelStream) keepAlive(addr etypes.Address) {
	s.mu.Lock()
	s.keep[addr] = struct{}{}
	s.mu.Unlock()
}

// Advance tells the stream the consumer has fully finished the first
// `completed` emitted labels (analysis done, results emitted). With
// Retire on, every contract more than Window labels behind that point —
// except pinned shared-logic targets and upgrade-scheduled proxies — is
// dropped from the chain and the registry, and event traces older than
// the retired horizon are trimmed. Calling Advance with a non-increasing
// value is a no-op; calling it with Retire off is always a no-op.
func (s *LabelStream) Advance(completed int) {
	if !s.cfg.Retire {
		return
	}
	s.mu.Lock()
	horizon := completed - s.cfg.Window
	var toRetire []etypes.Address
	for s.base < horizon && len(s.pending) > 0 {
		addr := s.pending[0]
		s.pending = s.pending[1:]
		s.base++
		if _, pinned := s.keep[addr]; pinned {
			continue
		}
		toRetire = append(toRetire, addr)
	}
	s.retired += len(toRetire)
	s.mu.Unlock()

	// Labels are emitted in non-decreasing creation-block order, so every
	// surviving contract was created at or after the newest retired one —
	// trimming events strictly below that block cannot remove anything a
	// later analysis will read.
	var trimBelow uint64
	for _, addr := range toRetire {
		var created uint64
		chain.CaptureReadError(func() { created = s.Chain.CreatedAt(addr) })
		if created > trimBelow {
			trimBelow = created
		}
		s.Chain.Forget(addr)
		s.Registry.Forget(addr)
	}
	if trimBelow > 0 {
		s.Chain.TrimEvents(trimBelow)
	}
}

// Retired returns how many contracts retirement has dropped so far.
func (s *LabelStream) Retired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired
}

// Close abandons the stream: the generator goroutine stops at its next
// emission and the channel closes. Safe to call multiple times and after
// natural completion.
func (s *LabelStream) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}
