package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps the declaration at the repository
// root and the tables the harness prints from in step: same workloads and
// reasons, same metrics, units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	type declared struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []declared `json:"workloads"`
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench/e2e" || doc.RunSeconds < 1 || len(doc.Command) == 0 {
		t.Errorf("command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, sp := range workloads {
		if d := doc.Workloads[i]; d.Name != sp.name || d.Why != sp.why || len(d.Why) > 200 {
			t.Errorf("workload %d: declared %q (%q), harness has %q (%q)", i, d.Name, d.Why, sp.name, sp.why)
		}
	}

	direction := func(m metric) string {
		if m.higher {
			return "higher"
		}
		return "lower"
	}
	check := func(kind string, got []declared, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			d := got[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != direction(m) {
				t.Errorf("%s %d: declared %+v, harness has %+v", kind, i, d, m)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %s: declared bound %v, harness has %v (must be in (0, 0.25])", kind, m.name, d.Bound, m.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: a per-layer metric carries no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
