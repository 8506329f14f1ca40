package proxion

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/lru"
)

// These tests pin what the detector's three caches rely on, through
// lru.Cache's exported surface; the list's links are checked by that
// package's own model test.

// lruKeys returns the keys from most to least recently used (nil when
// empty), checking the walk against the map's size.
func lruKeys[K comparable, V any](t *testing.T, c *lru.Cache[K, V]) []K {
	t.Helper()
	keys := c.Keys()
	if len(keys) != c.Len() {
		t.Fatalf("%d linked nodes, %d mapped", len(keys), c.Len())
	}
	if len(keys) == 0 {
		return nil
	}
	return keys
}

func TestLRURecency(t *testing.T) {
	c := lru.New[int, string](0)
	c.SetCapacity(3)
	mk := func(s string) func() string { return func() string { return s } }
	for i, s := range []string{"a", "b", "c"} {
		if v, added := c.GetOrAdd(i, mk(s)); !added || v != s {
			t.Fatalf("getOrAdd(%d) = %q, %v; want %q, true", i, v, added, s)
		}
	}
	// A hit returns the stored value, not a fresh one, and refreshes the key.
	if v, added := c.GetOrAdd(0, mk("other")); added || v != "a" {
		t.Fatalf("hit returned %q, added=%v; want the stored \"a\"", v, added)
	}
	if got := lruKeys(t, c); !slices.Equal(got, []int{0, 2, 1}) {
		t.Fatalf("recency order %v, want [0 2 1]", got)
	}
	// Peek does not refresh: 1 stays the eviction candidate.
	if v, ok := c.Peek(1); !ok || v != "b" {
		t.Fatalf("peek(1) = %q, %v", v, ok)
	}
	c.GetOrAdd(3, mk("d"))
	if got := lruKeys(t, c); !slices.Equal(got, []int{3, 0, 2}) {
		t.Fatalf("after inserting over capacity: %v, want [3 0 2]", got)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("the least recently used key survived")
	}
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	keys := c.Keys()
	slices.Sort(keys)
	if !slices.Equal(keys, []int{0, 2, 3}) {
		t.Fatalf("Keys() = %v", keys)
	}
}

func TestLRUAddKeepsExisting(t *testing.T) {
	c := lru.New[int, string](0)
	if !c.Add(1, "first") {
		t.Fatal("add of a new key reported not stored")
	}
	if c.Add(1, "second") {
		t.Fatal("add over an existing key reported stored")
	}
	if v, _ := c.Peek(1); v != "first" {
		t.Fatalf("existing value replaced by %q", v)
	}
}

func TestLRURemove(t *testing.T) {
	c := lru.New[int, int](0)
	c.SetCapacity(4)
	for i := 0; i < 4; i++ {
		c.Add(i, i)
	}
	// Middle, head and tail each exercise a different unlink branch.
	for _, k := range []int{2, 3, 0} {
		if !c.Remove(k) {
			t.Fatalf("remove(%d) reported absent", k)
		}
		if c.Remove(k) {
			t.Fatalf("second remove(%d) reported present", k)
		}
	}
	if got := lruKeys(t, c); !slices.Equal(got, []int{1}) {
		t.Fatalf("after removals: %v, want [1]", got)
	}
	c.Remove(1)
	if c.Len() != 0 || lruKeys(t, c) != nil {
		t.Fatal("emptied cache still holds nodes")
	}
	if got := c.Evictions(); got != 0 {
		t.Fatalf("removals counted as %d evictions", got)
	}
	c.Add(9, 9)
	if got := lruKeys(t, c); !slices.Equal(got, []int{9}) {
		t.Fatalf("reuse after emptying: %v", got)
	}
}

func TestLRUShrinkBySetCapacity(t *testing.T) {
	c := lru.New[int, int](0)
	for i := 0; i < 10; i++ {
		c.Add(i, i)
	}
	if c.Len() != 10 || c.Evictions() != 0 {
		t.Fatalf("unbounded cache evicted: len %d, evictions %d", c.Len(), c.Evictions())
	}
	c.SetCapacity(3)
	if got := lruKeys(t, c); !slices.Equal(got, []int{9, 8, 7}) {
		t.Fatalf("shrink kept %v, want the three most recent [9 8 7]", got)
	}
	if got := c.Evictions(); got != 7 {
		t.Fatalf("evictions = %d, want 7", got)
	}
	c.SetCapacity(-1) // unbounded again
	for i := 10; i < 20; i++ {
		c.Add(i, i)
	}
	if c.Len() != 13 {
		t.Fatalf("len = %d after lifting the bound, want 13", c.Len())
	}
}

func TestLRUConcurrentUse(t *testing.T) {
	c := lru.New[int, *int](0)
	c.SetCapacity(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 24
				v, _ := c.GetOrAdd(k, func() *int { return new(int) })
				_ = *v
				if i%7 == 0 {
					c.Remove(k)
				}
				c.Peek(k)
			}
		}(g)
	}
	wg.Wait()
	if n := len(lruKeys(t, c)); n > 8 {
		t.Fatalf("bounded cache holds %d keys", n)
	}
}
