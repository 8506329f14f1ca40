package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name:  "leaf keeps its whole duration",
			spans: []span{{ID: 1, StartNS: 10, EndNS: 50}},
			want:  []int64{40},
		},
		{
			name: "disjoint children are subtracted",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
				{ID: 3, Parent: 1, StartNS: 50, EndNS: 60},
			},
			want: []int64{70, 20, 10},
		},
		{
			name: "nested: a grandchild counts against its parent only",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 20, EndNS: 80},
				{ID: 3, Parent: 2, StartNS: 30, EndNS: 50},
			},
			want: []int64{40, 40, 20},
		},
		{
			name: "overlapping children cover their union once",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 50},
				{ID: 3, Parent: 1, StartNS: 30, EndNS: 70},
				{ID: 4, Parent: 1, StartNS: 35, EndNS: 40},
			},
			want: []int64{40, 40, 40, 5},
		},
		{
			name: "children recorded out of start order",
			spans: []span{
				{ID: 1, StartNS: 0, EndNS: 100},
				{ID: 2, Parent: 1, StartNS: 60, EndNS: 90},
				{ID: 3, Parent: 1, StartNS: 10, EndNS: 20},
			},
			want: []int64{60, 30, 10},
		},
		{
			name: "a child sticking out is clipped to the parent",
			spans: []span{
				{ID: 1, StartNS: 10, EndNS: 50},
				{ID: 2, Parent: 1, StartNS: 0, EndNS: 20},
				{ID: 3, Parent: 1, StartNS: 40, EndNS: 90},
			},
			want: []int64{20, 20, 50},
		},
		{
			name: "an unknown parent makes a root",
			spans: []span{
				{ID: 1, Parent: 9, StartNS: 0, EndNS: 10},
			},
			want: []int64{10},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer("unit")
	root := tr.begin(0, 7, "op")
	child := tr.begin(root, 7, "layer")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Fatalf("recorded spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS || s.Workload != "unit" {
			t.Errorf("malformed span %+v", s)
		}
	}
	by := tr.byName()
	if by["op"].calls != 1 || by["layer"].calls != 1 {
		t.Errorf("byName %+v", by)
	}
	if total := tr.spans[0].EndNS - tr.spans[0].StartNS; by["op"].selfNS+by["layer"].selfNS != total {
		t.Errorf("self times %d + %d do not add up to the root's %d", by["op"].selfNS, by["layer"].selfNS, total)
	}

	dir := t.TempDir()
	if err := tr.write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-unit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "parent", "workload", "op", "name", "start_ns", "end_ns"} {
		if _, ok := back[1][key]; !ok {
			t.Errorf("span file lacks key %q: %v", key, back[1])
		}
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, 1, "x")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}
