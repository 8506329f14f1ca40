package main

import (
	"time"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/proxion"
)

// scan is a scan-* workload: one repetition streams the whole corpus
// through a fresh detector's AnalyzeStream with default options.
type scan struct {
	c *corpus
	// handed[i] is when the source handed contract i out, in ns since the
	// repetition began. The feeder writes it, the sink reads it; the
	// pipeline's channels order the two.
	handed []int64
	// det is the last repetition's detector, caches and all.
	det *proxion.Detector
}

func newScan(c *corpus, err error) (instance, error) {
	if err != nil {
		return nil, err
	}
	return &scan{c: c, handed: make([]int64, len(c.addrs))}, nil
}

func (s *scan) ops() int     { return len(s.c.addrs) }
func (s *scan) start() error { return nil }
func (s *scan) close() error { return nil }

// rep times each contract from the source handing it out to the sink
// receiving its finalized item. The process-global decode cache is emptied
// first: a real run pays one decode per first-seen bytecode, and without
// the reset every repetition after the first would pay none.
func (s *scan) rep(lat []int64) (repOutcome, error) {
	evm.ResetDecodeCache()
	addrs, want := s.c.addrs, s.c.want
	next, emitted, failed := 0, 0, 0
	t0 := time.Now()
	src := proxion.SourceFunc(func() (etypes.Address, bool) {
		if next >= len(addrs) {
			return etypes.Address{}, false
		}
		s.handed[next] = int64(time.Since(t0))
		next++
		return addrs[next-1], true
	})
	sink := proxion.SinkFunc(func(it proxion.Item) {
		lat[it.Index] = int64(time.Since(t0)) - s.handed[it.Index]
		emitted++
		if !want[it.Index].matches(addrs[it.Index], it) {
			failed++
		}
	})
	s.det = proxion.NewDetector(s.c.chain)
	snap := s.det.AnalyzeStream(src, s.c.sources, sink, proxion.AnalyzeOptions{})
	wall := time.Since(t0)
	return repOutcome{
		failed:   failed + len(addrs) - emitted,
		wall:     wall,
		counters: snap.Counters(),
	}, nil
}

// walk times the layers over a sample of the corpus.
func (s *scan) walk(tr *tracer, m layerMetrics) (int, int, error) {
	visited, wrong := layerWalk(tr, m, s.c)
	return visited, wrong, nil
}

// passes measures the streaming engine as a whole over all of the corpus.
func (s *scan) passes(tr *tracer, m layerMetrics) (int, int, error) {
	streamPasses(tr, m, s.c)
	return 0, 0, nil
}
