// Command proxwatch replays a scripted upgrade timeline through the
// chain follower and prints every upgrade event as it is detected — a
// self-contained demo and debugging driver for the live-following path.
//
// Usage:
//
//	proxwatch [-seed S] [-proxies N] [-checkpoint FILE] [-json] [-v]
//
// The generated timeline interleaves proxy deployments and upgrades
// (EIP-1967, EIP-1822, ad-hoc slots, and beacon indirection) across
// consecutive blocks. proxwatch reveals the chain one block at a time,
// polls the follower after each, and reports what it saw; a final audit
// (the full enumerate-and-read-every-cell scan) must find nothing the
// block-delta path missed. With -json the final follower stats — cursor,
// head and lag, delta reads and cells checked, audit results — print as a
// machine-readable snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/watch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "proxwatch:", err)
		os.Exit(1)
	}
}

// run is the whole command over its arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("proxwatch", flag.ExitOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "timeline generation seed")
	proxies := fs.Int("proxies", 4, "number of upgradeable proxies in the timeline")
	checkpoint := fs.String("checkpoint", "", "cursor checkpoint file (empty = none)")
	asJSON := fs.Bool("json", false, "print final follower stats as JSON")
	verbose := fs.Bool("v", false, "also log deployments as they stream in")
	fs.Parse(args)

	tl := gen.GenerateTimeline(gen.TimelineConfig{Seed: *seed, Proxies: *proxies})
	replay := faultchain.NewReplayReader(tl.Chain)
	det := proxion.NewDetector(replay)
	an := watch.NewDetectorAnalyzer(det, tl.Registry, nil)

	events := 0
	cfg := watch.Config{
		Reader:         replay,
		Analyzer:       an,
		CheckpointPath: *checkpoint,
		OnUpgrade: func(ev watch.UpgradeEvent) {
			events++
			collides := ""
			if ev.Item != nil && ev.Item.Pair != nil &&
				(len(ev.Item.Pair.Functions) > 0 || len(ev.Item.Pair.Storage) > 0) {
				collides = "  [COLLISION WINDOW OPEN]"
			}
			fmt.Fprintf(stdout, "block %3d  upgrade  proxy %s  slot %s -> logic %s%s\n",
				ev.Block, ev.Proxy.Hex(), ev.Slot.Hex()[:10], ev.NewValue.Hex()[26:], collides)
		},
	}
	if *verbose {
		cfg.OnDeploy = func(it proxion.Item) {
			kind := "contract"
			if it.Report.IsProxy {
				kind = "proxy"
			}
			fmt.Fprintf(stdout, "block %3d  deploy   %s %s\n",
				replay.CurrentBlock(), kind, it.Report.Address.Hex())
		}
	}
	f, err := watch.New(cfg)
	if err != nil {
		return err
	}

	end := tl.End()
	start := f.Cursor()
	for b := start + 1; b <= end; b++ {
		replay.SetHead(b)
		if err := f.Poll(); err != nil {
			return fmt.Errorf("poll at block %d: %w", b, err)
		}
	}

	missed, err := f.Audit()
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}

	scripted := 0
	for _, ev := range tl.Events {
		if !ev.Deploy {
			scripted++
		}
	}
	st := f.Stats()
	if *asJSON {
		blob, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(blob))
	} else {
		fmt.Fprintf(stdout, "followed %d blocks: %d deployments, %d/%d scripted upgrades detected, %d cache entries invalidated\n",
			st.BlocksFollowed, st.DeploymentsSeen, st.UpgradesDetected, scripted, st.Invalidations)
	}
	if missed != 0 {
		return fmt.Errorf("audit found %d change(s) the delta path missed", missed)
	}
	// Only a cold run sees every scripted upgrade; a checkpoint resume
	// starts past the ones already applied.
	if start == 0 && int(st.UpgradesDetected) != scripted {
		return fmt.Errorf("detected %d upgrades, timeline scripted %d", st.UpgradesDetected, scripted)
	}
	return nil
}
