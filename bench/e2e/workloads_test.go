package main

import (
	"math"
	"testing"

	"repro/internal/etypes"
	"repro/internal/gen"
)

// smokeScale shrinks every corpus fifty-fold, so the whole catalogue runs
// in seconds under go test ./... and -short.
const smokeScale = 50

// digest hashes everything a workload's program sees of a corpus: every
// address, every byte of code, every expected verdict, in stream order.
func digest(c *corpus) etypes.Hash {
	var buf []byte
	for i, a := range c.addrs {
		buf = append(buf, a[:]...)
		buf = append(buf, c.chain.Code(a)...)
		if c.want[i].isProxy {
			buf = append(buf, 1)
			buf = append(buf, c.want[i].logic[:]...)
		}
	}
	return etypes.Keccak(buf)
}

func TestCorporaFollowTheSeed(t *testing.T) {
	builders := map[string]func(seed int64) (*corpus, error){
		"landscape": func(seed int64) (*corpus, error) { return landscapeCorpus(seed, smokeScale) },
		"gen":       func(seed int64) (*corpus, error) { return genCorpus(seed, 40) },
		"nearclone": func(seed int64) (*corpus, error) { return nearCloneCorpus(seed, smokeScale) },
	}
	for name, build := range builders {
		var digests [3]etypes.Hash
		for i, seed := range []int64{5, 5, 6} {
			c, err := build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(c.addrs) == 0 || len(c.addrs) != len(c.want) {
				t.Fatalf("%s seed %d: %d addresses, %d verdicts", name, seed, len(c.addrs), len(c.want))
			}
			digests[i] = digest(c)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: two builds from seed 5 differ", name)
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 5 and 6 built the same corpus", name)
		}
	}
}

func TestTimelineFollowsTheSeed(t *testing.T) {
	events := func(seed int64) []gen.TimelineEvent {
		inst, err := newFollow(seed, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		return inst.(*follow).tl.Events
	}
	a, b, c := events(5), events(5), events(6)
	same := func(x, y []gen.TimelineEvent) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("two timelines from seed 5 differ")
	}
	if same(a, c) {
		t.Error("seeds 5 and 6 scripted the same timeline")
	}
}

func TestHotPlanFollowsTheSeed(t *testing.T) {
	plan := func(seed int64, draw int) []int {
		b := &serveBench{seed: seed, c: &corpus{addrs: make([]etypes.Address, 320)}, plan: make([]int, 2000)}
		var p []int
		for i := 0; i <= draw; i++ {
			p = append([]int(nil), b.nextPlan()...)
		}
		return p
	}
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(plan(5, 0), plan(5, 0)) {
		t.Error("two plans from seed 5 differ")
	}
	if same(plan(5, 0), plan(6, 0)) || same(plan(5, 0), plan(5, 1)) {
		t.Error("plans do not change with the seed and the repetition")
	}
	hot := 0
	for _, i := range plan(5, 0) {
		if i < 320/16 {
			hot++
		}
	}
	// hotShare aimed at the hot sixteenth, plus a sixteenth of the rest.
	if share := float64(hot) / 2000; share < 0.76 || share > 0.86 {
		t.Errorf("hot sixteenth drew %.2f of the requests, want about 0.81", share)
	}
}

// TestSmoke runs every workload end to end and traced at 1/50 scale: every
// operation must answer correctly and every metric must be a number.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, sp := range workloads {
		res, err := measureE2E(sp, 3, 0, smokeScale, out)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.failed != 0 || res.attempted == 0 || res.reps < minReps {
			t.Errorf("%s: %d of %d operations failed over %d reps", sp.name, res.failed, res.attempted, res.reps)
		}
		for _, d := range endToEnd {
			v, ok := res.metrics[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present: %v)", sp.name, d.name, v, ok)
			}
		}
		for _, name := range []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "allocs_per_op"} {
			if res.metrics[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, res.metrics[name])
			}
		}

		tr, err := measureTrace(sp, 3, smokeScale, out)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if tr.failed != 0 || tr.attempted == 0 {
			t.Errorf("%s traced: %d of %d operations answered wrongly", sp.name, tr.failed, tr.attempted)
		}
		known := make(map[string]bool, len(perLayer))
		for _, d := range perLayer {
			known[d.name] = true
			if v := tr.metrics[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced: %s = %v", sp.name, d.name, v)
			}
		}
		for name := range tr.metrics {
			if !known[name] {
				t.Errorf("%s traced: metric %q is not in the per-layer list", sp.name, name)
			}
		}
	}
}
