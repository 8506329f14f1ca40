package proxion

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/faultchain"
	"repro/internal/pipeline"
	"repro/internal/solc"
)

// installStamps installs an EIP-1167 stamp at structAddr(first+i) for each
// i < n, each of its own logic: n members of one structural family.
func installStamps(c *chain.Chain, first byte, n int) []etypes.Address {
	stamps := make([]etypes.Address, n)
	for i := range stamps {
		stamps[i] = structAddr(first + byte(i))
		c.InstallContract(stamps[i], disasm.MinimalProxyRuntime(structAddr(0x20+first+byte(i))))
	}
	return stamps
}

// emulatedReport is addr's report from a detector without the structural
// tier: what every structural answer must equal.
func emulatedReport(c chain.Reader, addr etypes.Address) Report {
	plain := NewDetector(c)
	plain.configure(AnalyzeOptions{DisableStructural: true})
	rep, _ := plain.checkDeduped(addr, c.Code(addr))
	return rep
}

// TestStructuralLoneLeaderNeverSummarizes: a clean proxy whose family never
// gets a follower costs its emulation and nothing else — the exemplar's
// cross-check waits for a follower that never comes.
func TestStructuralLoneLeaderNeverSummarizes(t *testing.T) {
	c := chain.New()
	installStamps(c, 0x40, 1)
	proxy, slot := structAddr(0x50), etypes.Keccak([]byte("lone.slot"))
	c.InstallContract(proxy, solc.MustCompile(&solc.Contract{
		Name: "Lone", Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot}}))
	c.SetStorageDirect(proxy, slot, etypes.HashFromWord(structAddr(0x01).Word()))

	d := NewDetector(c)
	res := d.AnalyzeAll(nil)
	if res.Stats.StaticSummaries != 0 || res.Stats.StructuralRejects != 0 || res.Stats.Emulations != 2 {
		t.Fatalf("static summaries = %d, rejects = %d, emulations = %d, want 0, 0 and 2",
			res.Stats.StaticSummaries, res.Stats.StructuralRejects, res.Stats.Emulations)
	}
	if d.StructuralFamilies() != 2 {
		t.Fatalf("%d families, want the 2 provisional ones", d.StructuralFamilies())
	}
	off := NewDetector(c).AnalyzeAllWithOptions(nil, AnalyzeOptions{DisableStructural: true})
	if !reflect.DeepEqual(res.Reports, off.Reports) {
		t.Fatalf("reports %+v, want the emulated %+v", res.Reports, off.Reports)
	}
}

// TestStructuralLeaderGoneOrChangedRefuses: the cross-check re-reads the
// leader's code when the first follower arrives. If the leader has
// self-destructed, or now holds other code — another member of the same
// family, or code with the same target whose summary alone would pass —
// the check refuses: the first follower counts the refusal, and every
// follower emulates.
func TestStructuralLeaderGoneOrChangedRefuses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *chain.Chain, leader etypes.Address)
	}{
		{"gone", func(c *chain.Chain, leader etypes.Address) { c.SelfDestruct(leader, structAddr(0xff)) }},
		{"family member", func(c *chain.Chain, leader etypes.Address) {
			c.InstallContract(leader, disasm.MinimalProxyRuntime(structAddr(0xfe)))
		}},
		{"same target", func(c *chain.Chain, leader etypes.Address) {
			c.InstallContract(leader, append(slices.Clone(c.Code(leader)), 0x00))
		}},
	} {
		c := chain.New()
		stamps := installStamps(c, 0x60, 4)
		leader, followers := stamps[0], stamps[1:]
		d := NewDetector(c)
		if _, tr := d.checkDeduped(leader, c.Code(leader)); tr != (probeTrace{source: sourceEmulated}) {
			t.Fatalf("%s: leader trace = %+v, want a plain emulation", tc.name, tr)
		}
		tc.mutate(c, leader)
		for i, f := range followers {
			rep, tr := d.checkDeduped(f, c.Code(f))
			want := probeTrace{source: sourceEmulated, rejected: i == 0}
			if tr != want {
				t.Fatalf("%s: follower %d trace = %+v, want %+v", tc.name, i, tr, want)
			}
			if wantRep := emulatedReport(c, f); !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("%s: follower %d report %+v, want %+v", tc.name, i, rep, wantRep)
			}
		}
	}
}

// leaderCodeFault is a fault hook under which reads of one account's code
// fail once armed. The failing reads wait until release is closed, so a
// test can gather the other followers behind the cross-check the first one
// is inside; arrived receives each other account whose code hash is read
// while armed — a follower entering the dedup tiers.
type leaderCodeFault struct {
	leader  etypes.Address
	armed   atomic.Bool
	entered chan struct{}
	arrived chan etypes.Address
	release chan struct{}
}

func (b *leaderCodeFault) fault(_ context.Context, r faultchain.Read) error {
	if r.Op == "code" && r.Addr == b.leader && b.armed.Load() {
		select {
		case b.entered <- struct{}{}:
		default:
		}
		<-b.release
		return faultchain.ErrTransient
	}
	if r.Op == "code-hash" && r.Addr != b.leader && b.armed.Load() {
		select {
		case b.arrived <- r.Addr:
		default:
		}
	}
	return nil
}

// TestStructuralLeaderReadFailureReleasesWaiters: a terminal read failure
// (the resilient client's retry budget spent) while the first follower
// re-reads its leader's code refuses the family. The follower that asked
// and every follower waiting on the check go on to emulate, none of them
// Unresolved, and the family stays refused once the node heals.
func TestStructuralLeaderReadFailureReleasesWaiters(t *testing.T) {
	c := chain.New()
	stamps := installStamps(c, 0x80, 7)
	leader, followers := stamps[0], stamps[1:6]
	hook := &leaderCodeFault{
		leader:  leader,
		entered: make(chan struct{}, 1),
		arrived: make(chan etypes.Address, len(followers)),
		release: make(chan struct{}),
	}
	d := NewDetector(faultchain.NewClient(c, hook.fault, faultchain.Options{MaxRetries: 1}))
	if _, tr := d.checkDeduped(leader, c.Code(leader)); tr != (probeTrace{source: sourceEmulated}) {
		t.Fatalf("leader trace = %+v, want a plain emulation", tr)
	}
	hook.armed.Store(true)

	reps, trs := make([]Report, len(followers)), make([]probeTrace, len(followers))
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		reps[i], trs[i] = d.checkDeduped(followers[i], c.Code(followers[i]))
	}
	wg.Add(1)
	go run(0)
	<-hook.entered // follower 0 is inside the cross-check
	for i := 1; i < len(followers); i++ {
		wg.Add(1)
		go run(i)
	}
	for range followers { // every follower is past its own reads, bound for the check
		<-hook.arrived
	}
	close(hook.release)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("followers still blocked after the failed cross-check")
	}

	for i, f := range followers {
		want := probeTrace{source: sourceEmulated, rejected: i == 0}
		if trs[i] != want {
			t.Errorf("follower %d trace = %+v, want %+v", i, trs[i], want)
		}
		if wantRep := emulatedReport(c, f); !reflect.DeepEqual(reps[i], wantRep) {
			t.Errorf("follower %d report %+v, want %+v", i, reps[i], wantRep)
		}
	}
	hook.armed.Store(false)
	late := stamps[6]
	if _, tr := d.checkDeduped(late, c.Code(late)); tr != (probeTrace{source: sourceEmulated}) {
		t.Errorf("follower after the node healed: trace = %+v, want a plain emulation of the refused family", tr)
	}
}

// TestStructuralConcurrentFollowersOneLeaderCheck starts a fresh family's
// leader and n followers at once: whoever leads emulates, exactly one
// follower runs the leader's cross-check, and all n promote from its
// template — one static summary, one emulation — with the reports
// emulation gives.
func TestStructuralConcurrentFollowersOneLeaderCheck(t *testing.T) {
	const n = 8
	c := chain.New()
	stamps := installStamps(c, 0xa0, n+1)
	d := NewDetector(c)
	stats := new(pipeline.Stats)
	items := make([]Item, len(stamps))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range stamps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			items[i] = d.AnalyzeAddress(s, nil, AnalyzeOptions{Stats: stats})
		}()
	}
	close(start)
	wg.Wait()

	if got := stats.StaticSummaries.Load(); got != 1 {
		t.Errorf("static summaries = %d, want 1 (the leader check; %d promotions from its template)", got, n)
	}
	if hits, emu := stats.StructuralHits.Load(), stats.Emulations.Load(); hits != n || emu != 1 {
		t.Errorf("structural hits = %d, emulations = %d, want %d and 1", hits, emu, n)
	}
	plain := NewDetector(c)
	for i, s := range stamps {
		want := plain.AnalyzeAddress(s, nil, AnalyzeOptions{DisableStructural: true})
		if !reflect.DeepEqual(items[i], want) {
			t.Errorf("%s: item %+v, want %+v", s, items[i], want)
		}
	}
}
