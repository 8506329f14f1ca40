package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestCoalescingKConcurrentOneAnalysis is the acceptance property for the
// single-flight layer: K=64 clients releasing the same verdict query at
// the same instant cost the engine exactly ONE analysis, and all K receive
// byte-identical answers. The result cache plus the in-flight re-check in
// join make this exact, not probabilistic — a request arriving at any
// point before, during, or after the one analysis either joins it or is
// served from the cache it populated.
func TestCoalescingKConcurrentOneAnalysis(t *testing.T) {
	const K = 64
	c := testCorpus(t, 47, 16)
	srv, ts := newTestServer(t, c, Config{Shards: 4})
	addr := c.Chain.Contracts()[0]
	url := ts.URL + "/v1/verdict?addr=" + addr.Hex()

	// Barrier-release K identical requests.
	var start, done sync.WaitGroup
	release := make(chan struct{})
	bodies := make([]string, K)
	errs := make([]error, K)
	start.Add(K)
	done.Add(K)
	for i := 0; i < K; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-release
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i] = string(b)
		}(i)
	}
	start.Wait()
	close(release)
	done.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("coalesced answers diverge:\n [0]: %s\n [%d]: %s", bodies[0], i, bodies[i])
		}
	}
	var v Verdict
	if err := json.Unmarshal([]byte(bodies[0]), &v); err != nil {
		t.Fatalf("response not a verdict: %v", err)
	}

	ctr := srv.Counters()
	if ctr.Analyses != 1 {
		t.Fatalf("K=%d concurrent identical queries cost %d engine analyses, want exactly 1", K, ctr.Analyses)
	}
	if ctr.Requests != K {
		t.Fatalf("requests=%d, want %d", ctr.Requests, K)
	}
	// Every non-leader either coalesced onto the in-flight analysis or hit
	// the result cache it filled.
	if ctr.Coalesced+ctr.ResultCacheHits != K-1 {
		t.Fatalf("coalesced=%d + cache_hits=%d, want %d", ctr.Coalesced, ctr.ResultCacheHits, K-1)
	}

	// Engine-level confirmation: exactly one contract entered the detector.
	if scanned := srv.stats.Scanned.Load(); scanned != 1 {
		t.Fatalf("the detector analyzed %d contracts, want 1", scanned)
	}
}

// TestCoalescingManyAddressesUnderConcurrency broadens the property: C
// workers hammering a small address set still cost exactly one analysis
// per distinct address.
func TestCoalescingManyAddressesUnderConcurrency(t *testing.T) {
	c := testCorpus(t, 53, 24)
	srv, _ := newTestServer(t, c, Config{Shards: 3})
	addrs := c.Chain.Contracts()
	const workers = 16
	const rounds = 8

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, a := range addrs {
					if _, err := srv.Lookup(a); err != nil {
						t.Errorf("Lookup: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	ctr := srv.Counters()
	if ctr.Analyses != int64(len(addrs)) {
		t.Fatalf("%d workers × %d rounds over %d addresses cost %d analyses, want %d",
			workers, rounds, len(addrs), ctr.Analyses, len(addrs))
	}
	if want := int64(workers * rounds * len(addrs)); ctr.Requests != want {
		t.Fatalf("requests=%d, want %d", ctr.Requests, want)
	}
}
