package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
)

// These tests prove the service's persistence contract end to end: a
// server that analyzed a corpus, died (even mid-write), and came back
// answers the same queries with identical verdicts and ZERO re-emulations
// — the verdict store, not the engine, carries the knowledge across the
// restart.

// queryAllVerdicts looks up every corpus address and returns the verdicts
// serialized per address, plus the servers' total emulation count.
func queryAllVerdicts(t *testing.T, srv *Server, c *gen.Corpus) (map[string]string, int64) {
	t.Helper()
	out := make(map[string]string)
	for _, a := range c.Chain.Contracts() {
		it, err := srv.Lookup(a)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", a.Hex(), err)
		}
		b, err := json.Marshal(verdictOf(it.Report))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out[a.Hex()] = string(b)
	}
	return out, srv.stats.Emulations.Load()
}

func TestRestartServesWithoutReanalysis(t *testing.T) {
	c := testCorpus(t, 59, 64)
	dir := t.TempDir()

	// Cold server: analyze everything, persist as we go.
	cold, err := New(Config{Reader: c.Chain, Sources: c.Registry, Shards: 4, StoreDir: dir})
	if err != nil {
		t.Fatalf("New(cold): %v", err)
	}
	coldVerdicts, coldEmulations := queryAllVerdicts(t, cold, c)
	if coldEmulations == 0 {
		t.Fatalf("cold run performed no emulations; the warm assertion would be vacuous")
	}
	coldStore := cold.StoreStats()
	if coldStore.Entries == 0 || coldStore.Appended == 0 {
		t.Fatalf("cold run persisted nothing: %+v", coldStore)
	}
	if err := cold.Close(); err != nil {
		t.Fatalf("Close(cold): %v", err)
	}

	// Warm server over the same directory: every verdict identical, not a
	// single fresh emulation — the acceptance criterion.
	warm, err := New(Config{Reader: c.Chain, Sources: c.Registry, Shards: 4, StoreDir: dir})
	if err != nil {
		t.Fatalf("New(warm): %v", err)
	}
	defer warm.Close()
	warmVerdicts, warmEmulations := queryAllVerdicts(t, warm, c)
	if warmEmulations != 0 {
		t.Fatalf("warm server re-emulated %d times; the store should have answered everything", warmEmulations)
	}
	if len(warmVerdicts) != len(coldVerdicts) {
		t.Fatalf("warm served %d verdicts, cold served %d", len(warmVerdicts), len(coldVerdicts))
	}
	for addr, want := range coldVerdicts {
		if got := warmVerdicts[addr]; got != want {
			t.Fatalf("verdict for %s changed across restart:\n cold: %s\n warm: %s", addr, want, got)
		}
	}
	// Warm-side persistence re-exports byte-identical entries; the store
	// skips every one instead of growing the log.
	warmStore := warm.StoreStats()
	if warmStore.Appended != 0 {
		t.Fatalf("warm run appended %d records; identical entries must be skipped", warmStore.Appended)
	}
	if warmStore.Entries != coldStore.Entries {
		t.Fatalf("entry count changed across restart: %d -> %d", coldStore.Entries, warmStore.Entries)
	}
}

// TestKillMidWriteRestartLosesNothing is the crash variant: the server
// dies mid-append (simulated by torn bytes at the log tail), and the
// restarted server still serves every previously persisted verdict with
// zero re-emulation — the store's checksummed recovery feeding the
// service's warm start.
func TestKillMidWriteRestartLosesNothing(t *testing.T) {
	c := testCorpus(t, 61, 48)
	dir := t.TempDir()

	cold, err := New(Config{Reader: c.Chain, Sources: c.Registry, Shards: 2, StoreDir: dir})
	if err != nil {
		t.Fatalf("New(cold): %v", err)
	}
	coldVerdicts, _ := queryAllVerdicts(t, cold, c)
	coldEntries := cold.StoreStats().Entries
	if err := cold.Close(); err != nil {
		t.Fatalf("Close(cold): %v", err)
	}

	// The kill: a half-written record at the tail of the last segment.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	torn := []byte{0x00, 0x00, 0x00, 0x40, 0xde, 0xad, 0xbe} // claims 64 bytes, delivers 3
	if _, err := f.Write(torn); err != nil {
		t.Fatalf("append torn record: %v", err)
	}
	f.Close()

	warm, err := New(Config{Reader: c.Chain, Sources: c.Registry, Shards: 2, StoreDir: dir})
	if err != nil {
		t.Fatalf("New(warm) after torn write: %v", err)
	}
	defer warm.Close()
	st := warm.StoreStats()
	if st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes=%d, want %d", st.TruncatedBytes, len(torn))
	}
	if st.Entries != coldEntries {
		t.Fatalf("verdicts lost to the torn write: %d -> %d entries", coldEntries, st.Entries)
	}

	warmVerdicts, warmEmulations := queryAllVerdicts(t, warm, c)
	if warmEmulations != 0 {
		t.Fatalf("post-crash warm server re-emulated %d times, want 0", warmEmulations)
	}
	for addr, want := range coldVerdicts {
		if got := warmVerdicts[addr]; got != want {
			t.Fatalf("verdict for %s changed across crash recovery:\n cold: %s\n warm: %s", addr, want, got)
		}
	}
}

// TestPersistenceOffStillServes pins that StoreDir is genuinely optional:
// an ephemeral server works identically, it just starts cold every time.
func TestPersistenceOffStillServes(t *testing.T) {
	c := testCorpus(t, 67, 16)
	srv, err := New(Config{Reader: c.Chain, Sources: c.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if _, err := srv.Lookup(c.Chain.Contracts()[0]); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if st := srv.StoreStats(); st.Entries != 0 || st.Appended != 0 {
		t.Fatalf("ephemeral server reported store activity: %+v", st)
	}
}
