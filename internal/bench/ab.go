package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// metric is one end-to-end metric as BENCHMARK.json declares it: which
// direction is better, and the share of the parent's median by which the
// change may worsen it before the change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadMetrics reads the end_to_end list of a BENCHMARK.json.
func loadMetrics(path string) ([]metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("bench: %s declares no end_to_end metrics", path)
	}
	for _, m := range doc.EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 {
			return nil, fmt.Errorf("bench: %s: metric %q needs better \"higher\" or \"lower\" and a positive bound", path, m.Name)
		}
	}
	return doc.EndToEnd, nil
}

// Side is one side of a pair: the parent revision or the working tree.
type Side string

const (
	Parent Side = "parent"
	Change Side = "change"
)

// runner runs bench/e2e once for one side with the given seed and returns
// its standard output.
type runner func(ctx context.Context, side Side, seed int64) ([]byte, error)

// Verdict is what a row of a paired comparison says about the change.
type Verdict string

const (
	// Gain: at least minClaimPairs pairs, the change better in at least nine
	// tenths of them (ties count for neither side), and its median better
	// than the parent's by more than the distance between the parent's
	// quartiles.
	Gain Verdict = "gain"
	// Worse: the change's median worse than the parent's by more than the
	// metric's bound, with each side's spread inside the bound or every run
	// of the parent better than every run of the change. A side's spread is
	// its quartile distance as a share of its own median.
	Worse Verdict = "worse"
	// Unresolved: a side's runs spread wider than the bound, so a move
	// inside the spread cannot be told from the host, unless every run of
	// the change reads better than every run of the parent.
	Unresolved Verdict = "unresolved"
	// Flat: none of the above.
	Flat Verdict = "flat"
)

// minClaimPairs is the fewest pairs a gain may rest on.
const minClaimPairs = 10

// ABRow is one workload × end-to-end metric of a paired comparison.
// Parent and Change hold one value per pair, in pair order; the quartiles
// are nearest-rank, the median is the mean of the middle two when even.
type ABRow struct {
	Workload     string    `json:"workload"`
	Metric       string    `json:"metric"`
	Parent       []float64 `json:"parent"`
	Change       []float64 `json:"change"`
	ParentMedian float64   `json:"parent_median"`
	ParentQ1     float64   `json:"parent_q1"`
	ParentQ3     float64   `json:"parent_q3"`
	ChangeMedian float64   `json:"change_median"`
	ChangeQ1     float64   `json:"change_q1"`
	ChangeQ3     float64   `json:"change_q3"`
	// Wins counts the pairs in which the change read better.
	Wins int `json:"wins"`
	// ChangePct is the move of the median as a percentage of the parent's,
	// positive when better.
	ChangePct float64 `json:"change_pct"`
	Verdict   Verdict `json:"verdict"`
}

// ABResult is a paired comparison of a parent revision against a change.
type ABResult struct {
	Parent string   `json:"parent"`
	Args   []string `json:"args"`
	// Seeds holds the seed both sides of each pair ran with.
	Seeds []int64 `json:"seeds"`
	Rows  []ABRow `json:"rows"`
	// Unmeasured lists the workload/metric pairs some run did not report
	// (a workload or metric one side's benchmark lacks); they get no row.
	Unmeasured []string `json:"unmeasured,omitempty"`
}

// OK reports whether the comparison passes: no row is worse. A run that
// answered wrongly or failed an operation never reaches a row: bench/e2e
// exits non-zero for it, and that error ends the comparison.
func (r *ABResult) OK() bool {
	for _, row := range r.Rows {
		if row.Verdict == Worse {
			return false
		}
	}
	return true
}

// WriteFile writes the comparison as indented JSON.
func (r *ABResult) WriteFile(path string) error { return writeJSON(path, r) }

// Render formats the comparison as the markdown table EXPERIMENTS.md uses.
func (r *ABResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "parent %s, %d pairs, bench/e2e %s\n\n", r.Parent, len(r.Seeds), strings.Join(r.Args, " "))
	b.WriteString("| workload | metric | parent median | parent quartiles | change median | change quartiles | wins | change | verdict |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| `%s` | `%s` | %.4g | %.4g–%.4g | %.4g | %.4g–%.4g | %d/%d | %+.1f %% | %s |\n",
			row.Workload, row.Metric, row.ParentMedian, row.ParentQ1, row.ParentQ3,
			row.ChangeMedian, row.ChangeQ1, row.ChangeQ3, row.Wins, len(row.Parent), row.ChangePct, row.Verdict)
	}
	for _, u := range r.Unmeasured {
		fmt.Fprintf(&b, "unmeasured: %s\n", u)
	}
	return b.String()
}

// e2eReport is the JSON object bench/e2e prints after each workload's
// metric lines.
type e2eReport struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseRun splits one bench/e2e output into its workloads' reports, named
// in output order. Every metric line is "workload metric value unit"; the
// JSON line that follows a workload's metric lines is its report, and a
// later one replaces an earlier one.
func parseRun(out []byte) ([]string, map[string]e2eReport, error) {
	var names []string
	reps := make(map[string]e2eReport)
	workload := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "{"):
			if workload == "" {
				return nil, nil, fmt.Errorf("bench/e2e report line before any metric line: %s", line)
			}
			var rep e2eReport
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return nil, nil, fmt.Errorf("bench/e2e report of %s: %w", workload, err)
			}
			if _, seen := reps[workload]; !seen {
				names = append(names, workload)
			}
			reps[workload] = rep
		default:
			workload = strings.Fields(line)[0]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, errors.New("bench/e2e printed no report")
	}
	return names, reps, nil
}

// pairSeed is the seed both sides of pair i run with. It is derived from
// the parent's commit hash, so whoever runs a comparison does not choose
// its corpora.
func pairSeed(parent string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", parent, i)
	return int64(h.Sum64()%(1<<31)) + 1
}

// runPairs runs pairs alternated pairs, the parent first in odd pairs (the
// first, third, …) and the change first in even ones, both sides of a pair
// with one seed, and compares every workload × metric the runs report.
// progress, when non-nil, gets a line per run.
func runPairs(ctx context.Context, run runner, parent string, pairs int, metrics []metric, progress io.Writer) (*ABResult, error) {
	if progress == nil {
		progress = io.Discard
	}
	res := &ABResult{Parent: parent}
	var workloads []string
	runs := make(map[Side][]map[string]e2eReport)
	for i := 0; i < pairs; i++ {
		seed := pairSeed(parent, i)
		res.Seeds = append(res.Seeds, seed)
		order := []Side{Parent, Change}
		if i%2 == 1 {
			order = []Side{Change, Parent}
		}
		for _, side := range order {
			fmt.Fprintf(progress, "pair %d/%d: %s, seed %d\n", i+1, pairs, side, seed)
			out, err := run(ctx, side, seed)
			if err != nil {
				return nil, fmt.Errorf("pair %d, %s: %w", i+1, side, err)
			}
			names, reps, err := parseRun(out)
			if err != nil {
				return nil, fmt.Errorf("pair %d, %s: %w", i+1, side, err)
			}
			for _, w := range names {
				if !slices.Contains(workloads, w) {
					workloads = append(workloads, w)
				}
			}
			runs[side] = append(runs[side], reps)
		}
	}
	for _, w := range workloads {
		for _, m := range metrics {
			p, okP := values(runs[Parent], w, m.Name)
			c, okC := values(runs[Change], w, m.Name)
			if !okP || !okC {
				res.Unmeasured = append(res.Unmeasured, w+" "+m.Name)
				continue
			}
			res.Rows = append(res.Rows, compareRow(w, m, p, c))
		}
	}
	return res, nil
}

// values collects one metric of one workload across runs, in run order;
// false if some run did not report it.
func values(runs []map[string]e2eReport, workload, name string) ([]float64, bool) {
	out := make([]float64, 0, len(runs))
	for _, reps := range runs {
		rep, ok := reps[workload]
		if !ok {
			return nil, false
		}
		v, ok := rep.Metrics[name]
		if !ok {
			return nil, false
		}
		out = append(out, v.Value)
	}
	return out, true
}

// compareRow applies the verdict rules to one metric's per-pair values.
func compareRow(workload string, m metric, parent, change []float64) ABRow {
	higher := m.Better == "higher"
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	ps, cs := sorted(parent), sorted(change)
	row := ABRow{
		Workload: workload, Metric: m.Name, Parent: parent, Change: change,
		ParentMedian: median(ps), ParentQ1: nearestRank(ps, 250), ParentQ3: nearestRank(ps, 750),
		ChangeMedian: median(cs), ChangeQ1: nearestRank(cs, 250), ChangeQ3: nearestRank(cs, 750),
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			row.Wins++
		}
	}
	// gain is how far the change's median is better than the parent's.
	gain := row.ChangeMedian - row.ParentMedian
	// Every run of one side beats every run of the other when its worst run
	// beats the other's best.
	bestChange, worstChange := cs[len(cs)-1], cs[0]
	bestParent, worstParent := ps[len(ps)-1], ps[0]
	if !higher {
		gain = -gain
		bestChange, worstChange = worstChange, bestChange
		bestParent, worstParent = worstParent, bestParent
	}
	row.ChangePct = 100 * relative(gain, row.ParentMedian)
	parentIQR := row.ParentQ3 - row.ParentQ1
	// Each side's spread is its quartile distance as a share of its own
	// median, so a change that multiplies a metric does not widen its
	// spread by the same factor and read unresolved.
	spread := math.Max(relative(parentIQR, row.ParentMedian), relative(row.ChangeQ3-row.ChangeQ1, row.ChangeMedian))
	n := len(parent)
	switch {
	case n >= minClaimPairs && 10*row.Wins >= 9*n && gain > parentIQR:
		row.Verdict = Gain
	case -relative(gain, row.ParentMedian) > m.Bound && (spread <= m.Bound || better(worstParent, bestChange)):
		row.Verdict = Worse
	case spread > m.Bound && !better(worstChange, bestParent):
		row.Verdict = Unresolved
	default:
		row.Verdict = Flat
	}
	return row
}

// relative is d as a share of base; 0 when base is 0.
func relative(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank reads a per-mille percentile from a non-empty ascending
// sample: the smallest value with at least that share of the sample at or
// below it (no interpolation, so every reported value was observed).
// Per-mille keeps the rank arithmetic in integers.
func nearestRank(sorted []float64, permille int) float64 {
	r := (len(sorted)*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// median of an ascending sample, the mean of the middle two when even.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ABOptions configures AB.
type ABOptions struct {
	// Parent is the revision the working tree is measured against.
	Parent string
	// Pairs is the number of alternated pairs.
	Pairs int
	// Args go to bench/e2e unchanged; AB appends each run's -seed and -out.
	Args []string
	// Progress, when non-nil, gets a line per build and run.
	Progress io.Writer
}

// AB measures the working tree that holds the current directory against a
// parent revision: it adds a temporary git worktree at the parent, builds
// ./bench/e2e there and in the working tree once each, runs runPairs over
// the two binaries with the bounds of the working tree's BENCHMARK.json,
// and removes the worktree however it returns.
func AB(ctx context.Context, o ABOptions) (*ABResult, error) {
	top, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	metrics, err := loadMetrics(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	parent, err := git(ctx, top, "rev-parse", "--verify", o.Parent+"^{commit}")
	if err != nil {
		return nil, err
	}
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, "building bench/e2e at %s and in the working tree\n", parent)
	}
	run, cleanup, err := prepareAB(ctx, top, parent, o.Args, goBuild)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res, err := runPairs(ctx, run, parent, o.Pairs, metrics, o.Progress)
	if err != nil {
		return nil, err
	}
	res.Args = o.Args
	return res, nil
}

// buildFunc builds ./bench/e2e of the tree rooted at dir into bin.
type buildFunc func(ctx context.Context, dir, bin string) error

func goBuild(ctx context.Context, dir, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./bench/e2e")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./bench/e2e in %s: %v\n%s", dir, err, out)
	}
	return nil
}

// prepareAB adds a worktree of the repository at top, checked out at
// parent, builds both sides and returns the runner of the two binaries and
// the cleanup that removes the worktree and every scratch file. On error
// it has cleaned up already.
func prepareAB(ctx context.Context, top, parent string, args []string, build buildFunc) (runner, func(), error) {
	scratch, err := os.MkdirTemp("", "proxbench-ab-")
	if err != nil {
		return nil, nil, err
	}
	tree := filepath.Join(scratch, "parent")
	cleanup := func() {
		// Not ctx: the cleanup runs after an interrupt too. When remove
		// fails (the worktree was never added, or is half-made), prune
		// drops whatever administrative entry is left; there is nothing
		// more to do if that fails as well.
		if _, err := git(context.Background(), top, "worktree", "remove", "--force", tree); err != nil {
			os.RemoveAll(tree)
			_, _ = git(context.Background(), top, "worktree", "prune")
		}
		os.RemoveAll(scratch)
	}
	bins := map[Side]string{Parent: filepath.Join(scratch, "e2e-parent"), Change: filepath.Join(scratch, "e2e-change")}
	err = func() error {
		if _, err := git(ctx, top, "worktree", "add", "--detach", tree, parent); err != nil {
			return err
		}
		if err := build(ctx, tree, bins[Parent]); err != nil {
			return err
		}
		return build(ctx, top, bins[Change])
	}()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	run := func(ctx context.Context, side Side, seed int64) ([]byte, error) {
		argv := append(append([]string(nil), args...),
			"-seed", strconv.FormatInt(seed, 10), "-out", filepath.Join(scratch, "out-"+string(side)))
		cmd := exec.CommandContext(ctx, bins[side], argv...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		if err != nil {
			return out, fmt.Errorf("bench/e2e %s: %v: %s", strings.Join(argv, " "), err, bytes.TrimSpace(stderr.Bytes()))
		}
		return out, nil
	}
	return run, cleanup, nil
}

// git runs a git command in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(ee.Stderr))
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
