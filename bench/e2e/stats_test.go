package main

import (
	"reflect"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	upTo := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n        int
		permille int
		want     int64
	}{
		{1, p50, 1},
		{1, p99, 1},
		{2, p50, 1},
		{3, p50, 2},
		{4, p50, 2},
		{100, p50, 50},
		// 0.99*100 overshoots 99 in floating point; the rank must not.
		{100, p99, 99},
		{101, p99, 100},
		{200, p99, 198},
		{1000, p99, 990},
		{1000, 999, 999},
		{1000, 1000, 1000},
		{7, 1, 1},
	}
	for _, c := range cases {
		if got := nearestRank(upTo(c.n), c.permille); got != c.want {
			t.Errorf("nearestRank(1..%d, %d‰) = %d, want %d", c.n, c.permille, got, c.want)
		}
	}
}

func TestTailResolved(t *testing.T) {
	cases := []struct {
		n        int
		permille int
		want     bool
	}{
		{1000, p99, true}, // rank 990, exactly 10 beyond
		{999, p99, false}, // rank 990, 9 beyond
		{8000, p99, true},
		{20, p50, true}, // rank 10, 10 beyond
		{19, p50, false},
		{1, p99, false},
	}
	for _, c := range cases {
		if got := tailResolved(c.n, c.permille); got != c.want {
			t.Errorf("tailResolved(%d, %d‰) = %v, want %v", c.n, c.permille, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its argument: %v became %v", in, c.in)
				break
			}
		}
	}
}

func TestCutWindows(t *testing.T) {
	second := func(n int) []time.Duration {
		walls := make([]time.Duration, n)
		for i := range walls {
			walls[i] = time.Second
		}
		return walls
	}

	// Three repetitions of 600 samples: windows are whole repetitions and
	// hold at least minWindow samples, so one window of two repetitions,
	// with the leftover third folded into it.
	lat := make([]int64, 1800)
	for i := range lat {
		lat[i] = int64(i + 1)
	}
	ws, resolved := cutWindows(lat, second(3), 600)
	if len(ws) != 1 || ws[0] != (window{throughput: 600, p50: 900, p90: 1620, p99: 1782}) || !resolved {
		t.Errorf("3×600: %+v resolved %v", ws, resolved)
	}

	// Eight repetitions of 1,000, one window each, three of them disturbed
	// (fifty times slower): the good-side quartile does not see them.
	lat = make([]int64, 8000)
	walls := second(8)
	for i := range lat {
		lat[i] = int64(i%1000 + 1)
		if r := i / 1000; r == 2 || r == 5 || r == 6 {
			lat[i] *= 50
			walls[r] = 50 * time.Second
		}
	}
	ws, resolved = cutWindows(lat, walls, 1000)
	if len(ws) != 8 || !resolved || ws[2] != (window{throughput: 20, p50: 25000, p90: 45000, p99: 49500}) {
		t.Fatalf("8×1000: %+v resolved %v", ws, resolved)
	}
	if thr, tail := ws.undisturbed(func(w window) float64 { return w.throughput }, true),
		ws.undisturbed(func(w window) float64 { return w.p99 }, false); thr != 1000 || tail != 990 {
		t.Errorf("8×1000: throughput %v p99 %v, want the undisturbed 1000 and 990", thr, tail)
	}

	// The quartiles are nearest-rank, from the good side: of 1..16 the
	// fourth-smallest latency and the fourth-largest throughput.
	ws = nil
	for i := 1; i <= 16; i++ {
		ws = append(ws, window{throughput: float64(i), p50: float64(i)})
	}
	if thr, mid := ws.undisturbed(func(w window) float64 { return w.throughput }, true),
		ws.undisturbed(func(w window) float64 { return w.p50 }, false); thr != 13 || mid != 4 {
		t.Errorf("1..16: upper quartile %v lower %v, want 13 and 4", thr, mid)
	}

	// Many short repetitions: at most maxWindows windows, the leftover
	// repetitions folded into the last.
	if ws, _ = cutWindows(make([]int64, 85*2000), second(85), 2000); len(ws) != 14 {
		t.Errorf("85×2000: %d windows, want 14 of six repetitions", len(ws))
	}

	// Too few samples altogether: still a number, flagged as unresolved.
	if ws, resolved = cutWindows(lat[:300], second(3), 100); len(ws) != 1 || resolved {
		t.Errorf("300 samples: %+v resolved %v", ws, resolved)
	}
}

func TestGoodQuartile(t *testing.T) {
	in := []float64{7, 3, 8, 1, 5, 2, 6, 4}
	if lo, hi := goodQuartile(in, false), goodQuartile(in, true); lo != 2 || hi != 7 {
		t.Errorf("quartiles of 1..8 = %v and %v, want 2 and 7", lo, hi)
	}
	if in[0] != 7 || in[3] != 1 {
		t.Errorf("goodQuartile reordered its argument: %v", in)
	}
	if one := goodQuartile([]float64{9}, true); one != 9 {
		t.Errorf("quartile of one value = %v", one)
	}
}

func TestHostRef(t *testing.T) {
	// The reference work is the same in every run, whatever the seed.
	a, b := newHostRef(e2eProcs), newHostRef(1)
	if !reflect.DeepEqual(a.keys, b.keys) {
		t.Error("two references hold different keys")
	}
	distinct := make(map[int]bool)
	for _, k := range a.keys {
		distinct[k] = true
	}
	if len(distinct) != refKeys {
		t.Errorf("%d distinct keys, want %d", len(distinct), refKeys)
	}
	if len(a.lanes) != e2eProcs || len(b.lanes) != 1 {
		t.Errorf("%d and %d lanes, want %d and 1", len(a.lanes), len(b.lanes), e2eProcs)
	}
	if two, one := a.sample(), b.sample(); two <= 0 || one <= 0 {
		t.Errorf("samples = %v and %v ns", two, one)
	}
	// A host reading twice the nominal time is half as fast: its timings
	// are halved, its rates doubled.
	if one, half := hostScale(refNominalNs), hostScale(2*refNominalNs); one != 1 || half != 0.5 {
		t.Errorf("hostScale: %v at nominal, %v at twice nominal", one, half)
	}
}
