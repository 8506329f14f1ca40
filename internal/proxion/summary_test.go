package proxion_test

import (
	"encoding/json"
	"testing"

	"repro/internal/dataset"
	"repro/internal/proxion"
)

func TestSummarizeAggregates(t *testing.T) {
	pop := dataset.Generate(dataset.Config{Seed: 21, Contracts: 700})
	det := proxion.NewDetector(pop.Chain)
	res := det.AnalyzeAll(pop.Registry)
	s := proxion.Summarize(res)

	if s.Contracts != len(res.Reports) {
		t.Errorf("contracts = %d, want %d", s.Contracts, len(res.Reports))
	}
	if s.Proxies != len(res.Proxies()) {
		t.Errorf("proxies = %d, want %d", s.Proxies, len(res.Proxies()))
	}
	var stdTotal int
	for _, n := range s.Standards {
		stdTotal += n
	}
	if stdTotal != s.Proxies {
		t.Errorf("standards sum %d != proxies %d", stdTotal, s.Proxies)
	}
	if s.TargetStorage+s.TargetHardcoded != s.Proxies {
		t.Errorf("target split %d+%d != proxies %d", s.TargetStorage, s.TargetHardcoded, s.Proxies)
	}
	if share := s.ProxyShare(); share <= 0.3 || share >= 0.8 {
		t.Errorf("proxy share = %.2f, expected near the paper's 0.54", share)
	}

	out, err := s.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back proxion.Summary
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Proxies != s.Proxies || back.VerifiedExploits != s.VerifiedExploits {
		t.Errorf("JSON round trip mismatch: %+v vs %+v", back, s)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := proxion.Summarize(&proxion.Result{})
	if s.ProxyShare() != 0 {
		t.Error("empty result proxy share should be 0")
	}
	if _, err := s.MarshalIndentJSON(); err != nil {
		t.Fatal(err)
	}
}
