package faultchain

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/chain"
)

// ReaderFlags are the command-line flags that choose a command's node
// surface: the chain itself, or the resilient client over it, optionally
// injecting one of the fault profiles.
type ReaderFlags struct {
	resilient  bool
	faults     string
	faultSeed  int64
	faultDepth int
	opts       Options
}

// RegisterReaderFlags adds -resilient, -faults, -fault-seed, -fault-depth,
// -retries, -rpc-timeout, -backoff and -inflight to fs.
func RegisterReaderFlags(fs *flag.FlagSet) *ReaderFlags {
	f := &ReaderFlags{}
	fs.BoolVar(&f.resilient, "resilient", false, "route node reads through the resilient client even with faults off")
	fs.StringVar(&f.faults, "faults", "off", "fault-injection profile: off, "+profileNames())
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "fault schedule seed")
	fs.IntVar(&f.faultDepth, "fault-depth", 0, "override the profile's fault depth (0 keeps the profile default)")
	fs.IntVar(&f.opts.MaxRetries, "retries", 0, "max retries per node read (0 = client default)")
	fs.DurationVar(&f.opts.Timeout, "rpc-timeout", 0, "per-read timeout (0 = client default)")
	fs.DurationVar(&f.opts.BackoffBase, "backoff", 0, "base retry backoff (0 = client default)")
	fs.IntVar(&f.opts.MaxInFlight, "inflight", 0, "max concurrent node reads (0 = client default)")
	return f
}

// profileNames lists the -faults values other than off.
func profileNames() string {
	var names []string
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	return strings.Join(append(names, Outage().Name), ", ")
}

// Readers resolves the parsed flags once — an unknown -faults profile is an
// error, a known one is announced on log — and returns the constructor of
// the command's readers. Reader n over base is base itself when neither
// -resilient nor -faults is set; otherwise it is a resilient client of its
// own, whose fault schedule, if any, is seeded fault-seed + n so that the
// readers of one process fail independently.
func (f *ReaderFlags) Readers(log io.Writer) (func(base chain.Reader, n int64) chain.Reader, error) {
	if f.faults == "off" && !f.resilient {
		return func(base chain.Reader, _ int64) chain.Reader { return base }, nil
	}
	var prof *Profile
	if f.faults != "off" {
		p, ok := ProfileByName(f.faults)
		if !ok {
			return nil, fmt.Errorf("unknown fault profile %q (have: off, %s)", f.faults, profileNames())
		}
		if f.faultDepth > 0 {
			p.Depth = f.faultDepth
		}
		prof = &p
		fmt.Fprintf(log, "injecting faults: profile %s, seed %d, depth %d\n", p.Name, f.faultSeed, p.Depth)
	}
	opts, seed := f.opts, f.faultSeed
	return func(base chain.Reader, n int64) chain.Reader {
		var sched *Schedule
		if prof != nil {
			s := NewSchedule(*prof, seed+n)
			sched = &s
		}
		client, _ := NewResilientReader(base, sched, opts)
		return client
	}, nil
}
