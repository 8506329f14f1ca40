// Command proxiond runs the analysis as a long-lived service: a scan
// server over a generated chain snapshot — one detector, each query analyzed
// on the goroutine that asked, at most -shards analyses at once — answering
// verdict and collision queries over HTTP and persisting every verdict to a
// disk store so restarts are warm.
//
// Usage:
//
//	proxiond [-addr :8547] [-contracts N] [-seed S] [-shards N] [-v]
//	         [-store DIR] [-segment-bytes N] [-cache-capacity N]
//	         [-follow] [-follow-interval D]
//	         [-resilient] [-faults PROFILE] [-fault-seed S] [-fault-depth D]
//	         [-retries N] [-backoff D] [-inflight N]
//	         [-loadtest] [-loadtest-requests N] [-loadtest-concurrency N]
//	         [-loadtest-report FILE]
//
// With -loadtest the daemon self-drives: it starts the server, runs the
// built-in load harness against it, prints the JSON report, and exits —
// the one-command smoke/benchmark mode.
//
// With -follow the daemon also tails the chain: new deployments stream
// into the analysis pipeline as their blocks land, upgrade events
// invalidate exactly the affected verdicts, and /v1/watch/stats reports
// follower progress. The cursor is checkpointed under the store
// directory (when one is configured) so restarts resume cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultchain"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/store"
	"repro/internal/watch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "proxiond:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8547", "HTTP listen address")
	contracts := flag.Int("contracts", 4000, "population size to generate and serve")
	seed := flag.Int64("seed", 1, "generation seed")
	shards := flag.Int("shards", 0, "analyses run at once, over one shared detector and cache (0 = GOMAXPROCS; more only helps when node reads wait)")
	storeDir := flag.String("store", "", "verdict store directory (empty = no persistence)")
	segBytes := flag.Int64("segment-bytes", 0, "verdict store segment size (0 = default)")
	cacheCap := flag.Int("cache-capacity", 0, "LRU bound, in distinct bytecodes, on the per-bytecode records (verdict and facets) and on clone families (0 = unbounded)")
	follow := flag.Bool("follow", false, "tail the chain: stream new deployments, invalidate on upgrades")
	followInterval := flag.Duration("follow-interval", 250*time.Millisecond, "follower poll interval")
	readerFlags := faultchain.RegisterReaderFlags(flag.CommandLine)
	verbose := flag.Bool("v", false, "log every request outcome summary on shutdown")
	selfLoad := flag.Bool("loadtest", false, "start, self-drive the load harness, print the report, exit")
	loadReqs := flag.Int("loadtest-requests", 2048, "loadtest: total requests")
	loadConc := flag.Int("loadtest-concurrency", 16, "loadtest: concurrent workers")
	loadOut := flag.String("loadtest-report", "", "loadtest: also write the JSON report to this path")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "generating %d-contract chain snapshot (seed %d)...\n", *contracts, *seed)
	pop := dataset.Generate(dataset.Config{Seed: *seed, Contracts: *contracts})
	fmt.Fprintf(os.Stderr, "chain height %d, %d contracts alive\n",
		pop.Chain.CurrentBlock(), len(pop.Chain.Contracts()))

	// The server and the follower each read through newReader(…, n): the
	// chain itself, or their own resilient client, so the follower's circuit
	// breaker never gates a query's reads.
	newReader, err := readerFlags.Readers(os.Stderr)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Reader:        newReader(pop.Chain, 0),
		Sources:       pop.Registry,
		Shards:        *shards,
		StoreDir:      *storeDir,
		StoreOptions:  store.Options{SegmentBytes: *segBytes},
		CacheCapacity: *cacheCap,
	})
	if err != nil {
		return err
	}
	if *storeDir != "" {
		st := srv.StoreStats()
		fmt.Fprintf(os.Stderr, "verdict store: %d entries in %d segment(s), loaded in %.1fms (%d torn bytes truncated)\n",
			st.Entries, st.Segments, st.LoadMS, st.TruncatedBytes)
	}

	var follower *watch.Follower
	if *follow {
		wcfg := watch.Config{
			Reader:       newReader(pop.Chain, 1),
			Analyzer:     srv,
			PollInterval: *followInterval,
			OnUpgrade: func(ev watch.UpgradeEvent) {
				fmt.Fprintf(os.Stderr, "block %d: %s upgraded (slot %s), verdict re-analyzed\n",
					ev.Block, ev.Proxy.Hex(), ev.Slot.Hex())
			},
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "proxiond: follower: %v\n", err)
			},
		}
		if *storeDir != "" {
			wcfg.CheckpointPath = filepath.Join(*storeDir, "watch.cursor")
		}
		f, err := watch.New(wcfg)
		if err != nil {
			srv.Close()
			return err
		}
		follower = f
		srv.SetWatchStats(func() any { return f.Stats() })
		go f.Run()
		fmt.Fprintf(os.Stderr, "following chain from block %d (poll every %s)\n", f.Cursor(), *followInterval)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "proxiond listening on %s\n", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	if *selfLoad {
		defer srv.Close()
		defer httpSrv.Close()
		if follower != nil {
			defer follower.Stop()
		}
		return selfDrive(pop, *addr, *loadReqs, *loadConc, *loadOut)
	}

	// Serve until SIGINT/SIGTERM, then drain in dependency order: stop
	// the follower first (its cursor checkpoints past the last fully
	// applied block, so no invalidation is left half-done), then stop
	// accepting HTTP, then finish the analyses in flight and close the store.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if follower != nil {
			follower.Stop()
		}
		srv.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "\n%s: draining...\n", s)
	}
	if follower != nil {
		follower.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if *verbose {
		ctr := srv.Counters()
		fmt.Fprintf(os.Stderr, "served %d requests: %d analyses, %d coalesced, %d cache hits\n",
			ctr.Requests, ctr.Analyses, ctr.Coalesced, ctr.ResultCacheHits)
	}
	if follower != nil {
		ws := follower.Stats()
		fmt.Fprintf(os.Stderr, "follower stopped at block %d (%d behind head): %d deployments, %d upgrades, %d invalidations; %d audits found %d missed change(s)\n",
			ws.Cursor, ws.LagBlocks, ws.DeploymentsSeen, ws.UpgradesDetected, ws.Invalidations, ws.AuditRuns, ws.AuditMismatches)
	}
	st := srv.StoreStats()
	if st.Entries > 0 {
		fmt.Fprintf(os.Stderr, "verdict store: %d entries, %d appended this run, %d skipped as known\n",
			st.Entries, st.Appended, st.SkippedPuts)
	}
	return nil
}

// selfDrive runs the built-in load harness against the just-started
// server and prints its report to stdout.
func selfDrive(pop *dataset.Population, addr string, requests, concurrency int, outPath string) error {
	base := "http://" + addr
	if strings.HasPrefix(addr, ":") {
		base = "http://127.0.0.1" + addr
	}
	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not come up at %s: %w", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	var addrs []string
	for _, a := range pop.Chain.Contracts() {
		addrs = append(addrs, a.Hex())
	}
	rep, err := loadtest.Run(loadtest.Config{
		BaseURL:     base,
		Addresses:   addrs,
		Concurrency: concurrency,
		Requests:    requests,
		Seed:        1,
	})
	if err != nil {
		return err
	}
	out, err := rep.WriteIndented()
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if outPath != "" {
		if err := rep.WriteJSON(outPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote loadtest report to %s\n", outPath)
	}
	return nil
}
