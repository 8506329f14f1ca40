// Package oracle is the differential harness over generated corpora: every
// gen.Corpus carries ground truth by construction, so the package can
// compare (1) detector verdicts against labels, (2) the cached streaming
// engine against an uncached sequential reference, (3) a warm restart and
// single calls against the stream, and report each disagreement as a
// Mismatch pinpointing the address, the layer, and the difference.
//
// Every mismatch message embeds the corpus' Config.Repro() string, so a
// failing randomized sweep is reproducible (and minimizable with
// gen.Minimize) from the test log alone.
package oracle

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/proxion"
)

// Mismatch is one disagreement between a verdict source and its reference.
type Mismatch struct {
	// Addr is the contract the disagreement is about.
	Addr etypes.Address
	// Layer names the comparison that failed: "detector", "pair",
	// "streaming", "store", "single-call", "metamorphic".
	Layer string
	// Detail is the human-readable difference.
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("[%s] %v: %s", m.Layer, m.Addr.Hex(), m.Detail)
}

// Format renders mismatches for a test failure, prefixed with the corpus'
// reproduction hint.
func Format(c *gen.Corpus, ms []Mismatch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d mismatch(es) on %s:\n", len(ms), c.Config.Repro())
	for _, m := range ms {
		b.WriteString("  " + m.String() + "\n")
	}
	return b.String()
}

// Reference is the trusted baseline: a fresh detector driven sequentially,
// one Check per contract in deterministic chain order and one AnalyzePair
// per detected proxy. It exercises none of the streaming machinery and
// none of the verdict-dedup cache.
type Reference struct {
	Reports []proxion.Report
	Pairs   []proxion.PairAnalysis
}

// SequentialReference computes the baseline for a corpus.
func SequentialReference(c *gen.Corpus) *Reference {
	d := proxion.NewDetector(c.Chain)
	ref := &Reference{}
	for _, addr := range c.Chain.Contracts() {
		rep := d.Check(addr)
		ref.Reports = append(ref.Reports, rep)
		if rep.IsProxy {
			ref.Pairs = append(ref.Pairs, d.AnalyzePair(addr, rep.Logic, c.Registry))
		}
	}
	return ref
}

// CheckDetector compares detection reports against the corpus labels.
func CheckDetector(c *gen.Corpus, reports []proxion.Report) []Mismatch {
	var out []Mismatch
	if len(reports) != len(c.Labels) {
		out = append(out, Mismatch{Layer: "detector",
			Detail: fmt.Sprintf("%d reports for %d labeled contracts", len(reports), len(c.Labels))})
	}
	for _, rep := range reports {
		l, ok := c.ByAddr[rep.Address]
		if !ok {
			out = append(out, Mismatch{Addr: rep.Address, Layer: "detector", Detail: "report for unlabeled address"})
			continue
		}
		out = append(out, checkReport(l, rep)...)
	}
	return out
}

// checkReport compares one report with its ground-truth label.
func checkReport(l *gen.Label, rep proxion.Report) []Mismatch {
	var out []Mismatch
	bad := func(format string, args ...any) {
		out = append(out, Mismatch{Addr: l.Address, Layer: "detector",
			Detail: fmt.Sprintf("%v: ", l.Kind) + fmt.Sprintf(format, args...)})
	}
	if rep.HasDelegateCall != l.HasDelegateCall {
		bad("HasDelegateCall=%v, label says %v", rep.HasDelegateCall, l.HasDelegateCall)
	}
	if (rep.EmulationErr != nil) != l.EmulationFails {
		bad("emulation error %v, label EmulationFails=%v", rep.EmulationErr, l.EmulationFails)
	}
	if rep.IsProxy != l.Detectable {
		bad("IsProxy=%v, label Detectable=%v (reason: %s)", rep.IsProxy, l.Detectable, rep.Reason)
		return out
	}
	if !l.Detectable {
		return out
	}
	if rep.Logic != l.Logic {
		bad("logic %v, label %v", rep.Logic.Hex(), l.Logic.Hex())
	}
	wantTarget := proxion.TargetHardcoded
	if l.TargetStorage {
		wantTarget = proxion.TargetStorage
	}
	if rep.Target != wantTarget {
		bad("target source %v, label %v", rep.Target, wantTarget)
	}
	if l.TargetStorage && rep.ImplSlot != l.ImplSlot {
		bad("impl slot %x, label %x", rep.ImplSlot, l.ImplSlot)
	}
	if got := rep.Standard.String(); got != l.Standard {
		bad("standard %q, label %q", got, l.Standard)
	}
	return out
}

// CheckPairs compares pair analyses of detected proxies against the
// injected collision ground truth.
func CheckPairs(c *gen.Corpus, pairs []proxion.PairAnalysis) []Mismatch {
	var out []Mismatch
	analyzed := make(map[etypes.Address]bool)
	for _, pa := range pairs {
		l, ok := c.ByAddr[pa.Proxy]
		if !ok {
			out = append(out, Mismatch{Addr: pa.Proxy, Layer: "pair", Detail: "pair for unlabeled proxy"})
			continue
		}
		analyzed[pa.Proxy] = true
		bad := func(format string, args ...any) {
			out = append(out, Mismatch{Addr: pa.Proxy, Layer: "pair",
				Detail: fmt.Sprintf("%v: ", l.Kind) + fmt.Sprintf(format, args...)})
		}
		if pa.Logic != l.Logic {
			bad("pair logic %v, label %v", pa.Logic.Hex(), l.Logic.Hex())
		}
		if got, want := selectorSet(pa.Functions), selectorKey(l.FuncCollisions); got != want {
			bad("function collisions [%s], injected [%s]", got, want)
		}
		if got := len(pa.Storage) > 0; got != l.StorageCollision {
			bad("storage collision detected=%v, injected=%v (%d slots)", got, l.StorageCollision, len(pa.Storage))
		}
	}
	for _, l := range c.Labels {
		if l.Detectable && !analyzed[l.Address] {
			out = append(out, Mismatch{Addr: l.Address, Layer: "pair",
				Detail: fmt.Sprintf("%v: detectable proxy missing from pair analyses", l.Kind)})
		}
	}
	return out
}

func selectorSet(fcs []proxion.FunctionCollision) string {
	sels := make([][4]byte, len(fcs))
	for i, fc := range fcs {
		sels[i] = fc.Selector
	}
	return selectorKey(sels)
}

func selectorKey(sels [][4]byte) string {
	hex := make([]string, len(sels))
	for i, s := range sels {
		hex[i] = fmt.Sprintf("%x", s)
	}
	sort.Strings(hex)
	return strings.Join(hex, ",")
}

// formatReport renders every observable field of a report, so differential
// comparisons collapse to string equality with readable diffs.
func formatReport(rep proxion.Report) string {
	err := "<nil>"
	if rep.EmulationErr != nil {
		err = rep.EmulationErr.Error()
	}
	resolveErr := "<nil>"
	if rep.ResolveErr != nil {
		resolveErr = rep.ResolveErr.Error()
	}
	return fmt.Sprintf("proxy=%v logic=%v target=%v slot=%x std=%v dc=%v err=%s unresolved=%v rerr=%s reason=%q",
		rep.IsProxy, rep.Logic.Hex(), rep.Target, rep.ImplSlot, rep.Standard,
		rep.HasDelegateCall, err, rep.Unresolved, resolveErr, rep.Reason)
}

// formatPair renders every observable field of a pair analysis.
func formatPair(pa proxion.PairAnalysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "logic=%v psrc=%v lsrc=%v verified=%v", pa.Logic.Hex(),
		pa.ProxyHasSource, pa.LogicHasSource, pa.ExploitVerified)
	for _, fc := range pa.Functions {
		fmt.Fprintf(&b, " fn{%x %q %q}", fc.Selector, fc.ProxyProto, fc.LogicProto)
	}
	for _, sc := range pa.Storage {
		fmt.Fprintf(&b, " slot{%x p=%d+%d l=%d+%d guard=%v expl=%v ver=%v}",
			sc.Slot, sc.ProxyOffset, sc.ProxySize, sc.LogicOffset, sc.LogicSize,
			sc.GuardInvolved, sc.Exploitable, sc.Verified)
	}
	return b.String()
}

// diffReports compares two report sets index-by-index (both are in chain
// order).
func diffReports(layer string, a, b []proxion.Report) []Mismatch {
	var out []Mismatch
	if len(a) != len(b) {
		out = append(out, Mismatch{Layer: layer,
			Detail: fmt.Sprintf("report counts differ: %d vs %d", len(a), len(b))})
		return out
	}
	for i := range a {
		if a[i].Address != b[i].Address {
			out = append(out, Mismatch{Addr: a[i].Address, Layer: layer,
				Detail: fmt.Sprintf("report order diverges at %d: %v vs %v", i, a[i].Address.Hex(), b[i].Address.Hex())})
			continue
		}
		if fa, fb := formatReport(a[i]), formatReport(b[i]); fa != fb {
			out = append(out, Mismatch{Addr: a[i].Address, Layer: layer,
				Detail: fmt.Sprintf("reports differ:\n    a: %s\n    b: %s", fa, fb)})
		}
	}
	return out
}

// diffPairs compares two pair-analysis sets keyed by proxy address (stage
// concurrency may reorder them).
func diffPairs(layer string, a, b []proxion.PairAnalysis) []Mismatch {
	var out []Mismatch
	am := make(map[etypes.Address]proxion.PairAnalysis, len(a))
	for _, pa := range a {
		am[pa.Proxy] = pa
	}
	seen := make(map[etypes.Address]bool, len(b))
	for _, pb := range b {
		seen[pb.Proxy] = true
		pa, ok := am[pb.Proxy]
		if !ok {
			out = append(out, Mismatch{Addr: pb.Proxy, Layer: layer, Detail: "pair only in second run"})
			continue
		}
		if fa, fb := formatPair(pa), formatPair(pb); fa != fb {
			out = append(out, Mismatch{Addr: pb.Proxy, Layer: layer,
				Detail: fmt.Sprintf("pairs differ:\n    a: %s\n    b: %s", fa, fb)})
		}
	}
	for _, pa := range a {
		if !seen[pa.Proxy] {
			out = append(out, Mismatch{Addr: pa.Proxy, Layer: layer, Detail: "pair only in first run"})
		}
	}
	return out
}

// CheckStreaming runs the streaming engine with the given options and
// compares it against the sequential reference.
func CheckStreaming(c *gen.Corpus, ref *Reference, opts proxion.AnalyzeOptions) []Mismatch {
	res := proxion.NewDetector(c.Chain).AnalyzeAllWithOptions(c.Registry, opts)
	out := diffReports("streaming", ref.Reports, res.Reports)
	out = append(out, diffPairs("streaming", ref.Pairs, res.Pairs)...)
	return out
}

// CheckStoreParity proves warm-start equivalence — the property the
// proxiond verdict store leans on. It runs the engine cold, exports the
// verdict cache, round-trips every entry through its binary wire encoding
// (the exact bytes the disk store persists), imports the decoded entries
// into a fresh detector, and requires the warm run to produce identical
// reports and pairs with zero additional emulations: every verdict must
// come from the restored cache, never from re-analysis.
func CheckStoreParity(c *gen.Corpus, opts proxion.AnalyzeOptions) []Mismatch {
	var coldStats pipeline.Stats
	cold := opts
	cold.Stats = &coldStats
	dcold := proxion.NewDetector(c.Chain)
	rcold := dcold.AnalyzeAllWithOptions(c.Registry, cold)

	var out []Mismatch
	entries := dcold.ExportVerdicts()
	restored := make([]proxion.CacheEntry, 0, len(entries))
	for _, e := range entries {
		blob, err := e.MarshalBinary()
		if err != nil {
			out = append(out, Mismatch{Layer: "store",
				Detail: fmt.Sprintf("entry %x does not marshal: %v", e.CodeHash[:4], err)})
			continue
		}
		var back proxion.CacheEntry
		if err := back.UnmarshalBinary(blob); err != nil {
			out = append(out, Mismatch{Layer: "store",
				Detail: fmt.Sprintf("entry %x does not round-trip: %v", e.CodeHash[:4], err)})
			continue
		}
		restored = append(restored, back)
	}
	if len(out) > 0 {
		return out
	}

	var warmStats pipeline.Stats
	warm := opts
	warm.Stats = &warmStats
	dwarm := proxion.NewDetector(c.Chain)
	dwarm.ImportVerdicts(restored)
	rwarm := dwarm.AnalyzeAllWithOptions(c.Registry, warm)

	out = diffReports("store", rcold.Reports, rwarm.Reports)
	out = append(out, diffPairs("store", rcold.Pairs, rwarm.Pairs)...)
	if w := warmStats.Emulations.Load(); w != 0 {
		out = append(out, Mismatch{Layer: "store",
			Detail: fmt.Sprintf("warm run re-emulated %d contracts (cold ran %d); restored cache did not cover the corpus",
				w, coldStats.Emulations.Load())})
	}
	return out
}

// CheckSingleCallParity holds the one analysis entry point to its two
// kinds of caller: a loop of Detector.AnalyzeAddress calls on a fresh
// detector (the query service, the follower) against AnalyzeStream at
// Workers: 1 on another (the scans). Reports, pairs and — when opts asks
// for them — histories must be equal, and so must the deterministic
// counters, stage rows aside: only a stream has stages.
func CheckSingleCallParity(c *gen.Corpus, opts proxion.AnalyzeOptions) []Mismatch {
	opts.Workers, opts.Stats = 1, nil
	want := proxion.NewDetector(c.Chain).AnalyzeAllWithOptions(c.Registry, opts)

	var stats pipeline.Stats
	opts.Stats = &stats
	d := proxion.NewDetector(c.Chain)
	base := d.ReaderCounters()
	sink := proxion.NewCollectSink()
	for _, addr := range c.Chain.Contracts() {
		sink.Emit(d.AnalyzeAddress(addr, c.Registry, opts))
	}
	got := sink.Result()
	out := diffReports("single-call", want.Reports, got.Reports)
	out = append(out, diffPairs("single-call", want.Pairs, got.Pairs)...)
	if !reflect.DeepEqual(want.Histories, got.Histories) {
		out = append(out, Mismatch{Layer: "single-call", Detail: "recovered histories differ"})
	}
	snap := stats.Snapshot()
	d.CountReads(snap, base)
	wantCounters := want.Stats.Counters()
	for k, v := range snap.Counters() {
		if wantCounters[k] != v {
			out = append(out, Mismatch{Layer: "single-call",
				Detail: fmt.Sprintf("counter %s: stream %d, single calls %d", k, wantCounters[k], v)})
		}
	}
	return out
}

// Run executes every differential layer on one corpus: labels vs the
// sequential reference, streaming vs sequential, warm-store vs cold
// analysis, single calls vs the stream (with and without the history step),
// the static analyzer vs the labels, and block-by-block following vs cold
// end-state analysis. The fast interpreter vs the reference loop is not a
// layer here: the reference loop is test code of internal/evm, whose
// corpus parity tests (TestInterpParityFixedSeeds, TestInterpParitySweep,
// FuzzGeneratorInterpParity) diff the same generated corpora.
func Run(c *gen.Corpus) []Mismatch {
	ref := SequentialReference(c)
	out := CheckDetector(c, ref.Reports)
	out = append(out, CheckPairs(c, ref.Pairs)...)
	out = append(out, CheckStreaming(c, ref, proxion.AnalyzeOptions{})...)
	out = append(out, CheckStoreParity(c, proxion.AnalyzeOptions{})...)
	out = append(out, CheckSingleCallParity(c, proxion.AnalyzeOptions{})...)
	out = append(out, CheckSingleCallParity(c, proxion.AnalyzeOptions{WithHistory: true})...)
	out = append(out, CheckStaticParity(c)...)
	out = append(out, CheckWatchParity(c)...)
	return out
}
