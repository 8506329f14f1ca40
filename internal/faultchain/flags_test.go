package faultchain_test

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/faultchain"
)

// TestReaderFlags: the node-reader flags choose the chain itself, a
// resilient client, or one injecting a profile's faults (announced once);
// an unknown profile is an error naming the known ones.
func TestReaderFlags(t *testing.T) {
	base, _ := testChain(1)
	readers := func(args ...string) (func(chain.Reader, int64) chain.Reader, string, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		rf := faultchain.RegisterReaderFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		newReader, err := rf.Readers(&log)
		return newReader, log.String(), err
	}

	off, log, err := readers()
	if err != nil || log != "" || off(base, 0) != chain.Reader(base) {
		t.Errorf("no flags: err %v, log %q; want the chain itself, silently", err, log)
	}
	resilient, log, err := readers("-resilient")
	if _, ok := resilient(base, 0).(*faultchain.Client); err != nil || log != "" || !ok {
		t.Errorf("-resilient: err %v, log %q, client %v", err, log, ok)
	}
	faulty, log, err := readers("-faults", "mixed", "-fault-seed", "3", "-fault-depth", "2")
	if err != nil || log != "injecting faults: profile mixed, seed 3, depth 2\n" {
		t.Errorf("-faults mixed: err %v, log %q", err, log)
	}
	if a, b := faulty(base, 0), faulty(base, 1); a == b {
		t.Error("readers 0 and 1 share one client")
	}
	if _, _, err := readers("-faults", "bogus"); err == nil || !strings.Contains(err.Error(), `unknown fault profile "bogus" (have: off, `) {
		t.Errorf("-faults bogus: err %v", err)
	}
}
