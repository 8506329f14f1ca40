package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var (
	throughput = metric{Name: "throughput_ops_s", Better: "higher", Bound: 0.25}
	allocs     = metric{Name: "allocs_per_op", Better: "lower", Bound: 0.12}
)

// e2eOutput renders what bench/e2e prints for one workload: a header, its
// metric lines and the report object.
func e2eOutput(workload string, metrics map[string]float64) string {
	var b strings.Builder
	b.WriteString("# host num_cpu=2\n")
	var fields []string
	for name, v := range metrics {
		fmt.Fprintf(&b, "%s %s %v unit\n", workload, name, v)
		fields = append(fields, fmt.Sprintf("%q:{\"value\":%v,\"unit\":\"unit\"}", name, v))
	}
	fmt.Fprintf(&b, "%s # a note\n", workload)
	fmt.Fprintf(&b, "{\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{%s}}\n", strings.Join(fields, ","))
	return b.String()
}

// fakeRunner serves pair i's value of one metric per side, in the order the
// pairs run, and records every call.
type fakeRunner struct {
	metric         string
	parent, change []float64
	calls          []fakeCall
}

type fakeCall struct {
	side Side
	pair int
}

func (f *fakeRunner) run(_ context.Context, side Side, seed int64) ([]byte, error) {
	pair := 0
	for _, c := range f.calls {
		if c.side == side {
			pair++
		}
	}
	f.calls = append(f.calls, fakeCall{side, pair})
	v := f.parent[pair]
	if side == Change {
		v = f.change[pair]
	}
	return []byte(e2eOutput("scan-unique", map[string]float64{f.metric: v})), nil
}

func runFake(t *testing.T, m metric, parent, change []float64) *ABResult {
	t.Helper()
	f := &fakeRunner{metric: m.Name, parent: parent, change: change}
	res, err := runPairs(context.Background(), f.run, "abc123", len(parent), []metric{m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(res.Rows))
	}
	return res
}

func shifted(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// ten runs of a host with a quartile spread of 5 % around 104.
var steady = []float64{103, 100, 108, 101, 106, 104, 109, 102, 105, 107}

// TestABVerdicts holds each verdict rule to one case.
func TestABVerdicts(t *testing.T) {
	wide := []float64{60, 140, 80, 120, 100, 60, 140, 80, 120, 100} // quartiles 80–120 around 100
	for _, tc := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           Verdict
		wins           int
	}{
		{"identical distributions are flat", throughput, steady, steady, Flat, 0},
		{"10/10 wins beyond the parent's quartile spread are a gain", throughput, steady, shifted(steady, 20), Gain, 10},
		{"10/10 wins inside the parent's quartile spread are not a gain", throughput, steady, shifted(steady, 3), Flat, 10},
		{"8/10 wins are not a gain", throughput, steady,
			append(shifted(steady[:8], 20), steady[8]-1, steady[9]-1), Flat, 8},
		{"9/10 wins and a tie are a gain", throughput, steady,
			append(shifted(steady[:9], 20), steady[9]), Gain, 9},
		{"a tight spread with the median past the bound is worse", throughput, steady, scaled(steady, 0.6), Worse, 0},
		{"the same bound holds for a lower-is-better metric", allocs, steady, scaled(steady, 1.2), Worse, 0},
		{"a multiplied lower-is-better metric is worse, not unresolved", allocs, steady, scaled(steady, 5), Worse, 0},
		{"a tenfold regression over three pairs is worse", allocs, []float64{41, 41.5, 42}, []float64{410, 415, 420}, Worse, 0},
		{"every change run below every parent run is worse despite the spread", throughput, wide, scaled(wide, 0.3), Worse, 0},
		{"a spread past the bound is unresolved", throughput, wide, scaled(wide, 0.7), Unresolved, 0},
		{"unless every change run beats every parent run", throughput, wide[:4], shifted(wide[:4], 100), Flat, 4},
		{"a gain needs ten pairs", throughput, steady[:3], shifted(steady[:3], 20), Flat, 3},
		{"ties count for neither side", allocs, steady, append(append([]float64(nil), steady[:9]...), steady[9]-1), Flat, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runFake(t, tc.m, tc.parent, tc.change)
			row := res.Rows[0]
			if row.Verdict != tc.want || row.Wins != tc.wins {
				t.Errorf("verdict %s with %d wins, want %s with %d\n%s", row.Verdict, row.Wins, tc.want, tc.wins, res.Render())
			}
			if res.OK() != (tc.want != Worse) {
				t.Errorf("OK() = %v with a %s row", res.OK(), row.Verdict)
			}
		})
	}
}

// TestABTableShape: the medians, quartiles and change of a row as the
// table prints them.
func TestABTableShape(t *testing.T) {
	res := runFake(t, throughput, steady, shifted(steady, 20))
	row := res.Rows[0]
	if row.ParentMedian != 104.5 || row.ParentQ1 != 102 || row.ParentQ3 != 107 || row.ChangeMedian != 124.5 {
		t.Errorf("row = %+v", row)
	}
	want := "| `scan-unique` | `throughput_ops_s` | 104.5 | 102–107 | 124.5 | 122–127 | 10/10 | +19.1 % | gain |"
	if !strings.Contains(res.Render(), want) {
		t.Errorf("table lacks %q:\n%s", want, res.Render())
	}
}

// TestABPairOrderAndSeeds: odd pairs run the parent first, even pairs the
// change, both sides of a pair get one seed, and the seed follows from the
// parent's hash and the pair's index alone.
func TestABPairOrderAndSeeds(t *testing.T) {
	var sides []Side
	var seeds []int64
	run := func(_ context.Context, side Side, seed int64) ([]byte, error) {
		sides, seeds = append(sides, side), append(seeds, seed)
		return []byte(e2eOutput("scan-unique", map[string]float64{"throughput_ops_s": 1})), nil
	}
	res, err := runPairs(context.Background(), run, "abc123", 4, []metric{throughput}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSides := []Side{Parent, Change, Change, Parent, Parent, Change, Change, Parent}
	if fmt.Sprint(sides) != fmt.Sprint(wantSides) {
		t.Errorf("run order %v, want %v", sides, wantSides)
	}
	for i := 0; i < 4; i++ {
		if seeds[2*i] != seeds[2*i+1] || seeds[2*i] != pairSeed("abc123", i) || res.Seeds[i] != seeds[2*i] {
			t.Errorf("pair %d: seeds %d and %d, recorded %d, want %d", i+1, seeds[2*i], seeds[2*i+1], res.Seeds[i], pairSeed("abc123", i))
		}
	}
	if pairSeed("abc123", 0) == pairSeed("abc123", 1) || pairSeed("abc123", 0) == pairSeed("def456", 0) {
		t.Error("seeds do not depend on the pair and the parent")
	}
}

// TestABMissingMetricHasNoRow: a metric one side does not report (a
// benchmark that gained it after the parent) is listed, not compared.
func TestABMissingMetricHasNoRow(t *testing.T) {
	f := &fakeRunner{metric: throughput.Name, parent: steady[:2], change: steady[:2]}
	res, err := runPairs(context.Background(), f.run, "abc123", 2, []metric{throughput, allocs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || fmt.Sprint(res.Unmeasured) != "[scan-unique allocs_per_op]" || !res.OK() {
		t.Errorf("rows %d, unmeasured %q, OK %v", len(res.Rows), res.Unmeasured, res.OK())
	}
}

// TestABRunErrorStops: a run that cannot complete ends the comparison with
// its error. That is how a wrong answer or a failed operation, on either
// side, fails the comparison: bench/e2e exits non-zero for it.
func TestABRunErrorStops(t *testing.T) {
	boom := errors.New("exit status 1")
	run := func(context.Context, Side, int64) ([]byte, error) { return nil, boom }
	if _, err := runPairs(context.Background(), run, "abc123", 3, []metric{throughput}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestLoadMetricsReadsTheBenchmark: the repository's BENCHMARK.json
// declares the bounds ab judges by.
func TestLoadMetricsReadsTheBenchmark(t *testing.T) {
	ms, err := loadMetrics(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Name == "allocs_per_op" && m.Better == "lower" && m.Bound > 0 {
			return
		}
	}
	t.Fatalf("allocs_per_op missing from %+v", ms)
}

// gitRepo makes a one-commit repository and returns its directory and the
// commit's hash.
func gitRepo(t *testing.T) (string, string) {
	t.Helper()
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git unavailable")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"init", "-q"},
		{"add", "f"},
		{"-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one"},
	} {
		if _, err := git(context.Background(), dir, args...); err != nil {
			t.Fatal(err)
		}
	}
	head, err := git(context.Background(), dir, "rev-parse", "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	return dir, head
}

func worktrees(t *testing.T, dir string) int {
	t.Helper()
	out, err := git(context.Background(), dir, "worktree", "list", "--porcelain")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(out, "worktree ")
}

// TestABWorktreeRemoved: the parent's worktree is gone after a failing
// build and after a comparison that ran, and the runner hands bench/e2e
// the caller's flags followed by the pair's seed and a scratch -out.
func TestABWorktreeRemoved(t *testing.T) {
	dir, head := gitRepo(t)

	var built []string
	failing := func(_ context.Context, tree, _ string) error {
		built = append(built, tree)
		return errors.New("build failed")
	}
	if _, _, err := prepareAB(context.Background(), dir, head, nil, failing); err == nil {
		t.Fatal("a failing build did not fail")
	}
	if n := worktrees(t, dir); n != 1 || len(built) != 1 {
		t.Fatalf("after a failing build: %d worktrees, %d builds; want 1 and 1", n, len(built))
	}
	if _, err := os.Stat(built[0]); !os.IsNotExist(err) {
		t.Fatalf("the parent's tree %s survived: %v", built[0], err)
	}

	// A "binary" that echoes its arguments the way bench/e2e reports.
	script := func(_ context.Context, _, bin string) error {
		return os.WriteFile(bin, []byte("#!/bin/sh\necho \"scan-unique args $*\"\necho '{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}'\n"), 0o755)
	}
	run, cleanup, err := prepareAB(context.Background(), dir, head, []string{"-seconds", "2"}, script)
	if err != nil {
		t.Fatal(err)
	}
	if n := worktrees(t, dir); n != 2 {
		t.Fatalf("%d worktrees while comparing, want 2", n)
	}
	out, err := run(context.Background(), Change, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "args -seconds 2 -seed 42 -out ") || !strings.Contains(string(out), "out-change") {
		t.Errorf("bench/e2e got %q", out)
	}
	cleanup()
	if n := worktrees(t, dir); n != 1 {
		t.Fatalf("%d worktrees after cleanup, want 1", n)
	}
}
