package main

import (
	"math"
	"sort"
	"time"
)

// The reference host is a few cores of a shared machine, and what its other
// tenants do to it comes and goes over minutes: for minutes at a stretch
// every workload runs a fifth to a third slower, whole runs long, so no
// statistic taken inside a run can tell that from a regression. A serial
// chain of register arithmetic keeps its speed to 2 % through such a
// stretch, while independent chains, a sort and a map fill slow down with
// the workloads: the neighbours take execution units and cache, not clock.
//
// So every run times, between repetitions and outside every timed region, a
// fixed piece of work of the harness's own that is made like the program's
// (compare-and-branch over a slice, hashing and allocation into a map), and
// reports its timings as they would read at the speed the host has when
// quiet: measured × refNominalNs ÷ this run's reference time. The work
// belongs to the harness and calls nothing of the program under test, so no
// change to the program can move it; the scale is printed beside the
// metrics. Across sixteen runs spanning a slow stretch this brought the
// throughputs' quartile spread from 22–27 % to 6–7 %, and in quieter rounds
// it halved it (RESULTS.md).
const (
	refKeys   = 4096
	refTrials = 5
	// refNominalNs is what sample reads on the reference host when quiet.
	refNominalNs = 220_000
)

// hostRef holds the reference work's inputs, the same in every run, and one
// lane per processor of the run: the workloads keep every processor busy
// and a neighbour may sit beside any of them, so the reference runs on all
// of them at once. One lane alone left half as much again of the spread.
type hostRef struct {
	keys  []int
	lanes []*refLane
}

// refLane is what one processor's copy of the reference work writes to.
type refLane struct {
	tmp  []int
	sink int
}

func newHostRef(procs int) *hostRef {
	h := &hostRef{keys: make([]int, refKeys)}
	x := uint64(0x139408dcbbf7a44)
	for i := range h.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.keys[i] = int(x >> 1)
	}
	for i := 0; i < procs; i++ {
		h.lanes = append(h.lanes, &refLane{tmp: make([]int, refKeys)})
	}
	return h
}

func (l *refLane) sortPass(keys []int) {
	copy(l.tmp, keys)
	sort.Ints(l.tmp)
	l.sink += l.tmp[refKeys/2]
}

func (l *refLane) mapPass(keys []int) {
	m := make(map[int]int, refKeys/4)
	for i, k := range keys {
		m[k] = i
	}
	for _, k := range keys {
		l.sink += m[k]
	}
}

// reading is one lane's time in ns: the geometric mean of the median sort
// pass and the median map pass of refTrials each. Neither alone tracks
// every workload (the follower goes with the sort, the services with the
// map); their mean does.
func (l *refLane) reading(keys []int) float64 {
	trials := func(pass func([]int)) float64 {
		ns := make([]float64, refTrials)
		for i := range ns {
			t0 := time.Now()
			pass(keys)
			ns[i] = float64(time.Since(t0))
		}
		return median(ns)
	}
	return math.Sqrt(trials(l.sortPass) * trials(l.mapPass))
}

// sample is one reading of the host's speed, in ns: the geometric mean of
// the lanes' readings, taken at the same time.
func (h *hostRef) sample() float64 {
	readings := make(chan float64, len(h.lanes))
	for _, l := range h.lanes {
		go func() { readings <- l.reading(h.keys) }()
	}
	product := 1.0
	for range h.lanes {
		product *= <-readings
	}
	return math.Pow(product, 1/float64(len(h.lanes)))
}

// hostScale is the factor that takes a timing measured while the reference
// read refNs to the quiet host's speed; a rate is divided by it.
func hostScale(refNs float64) float64 {
	return refNominalNs / refNs
}
