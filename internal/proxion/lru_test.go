package proxion

import (
	"slices"
	"sync"
	"testing"
)

// lruKeys returns the keys from most to least recently used, checking the
// list's back links and the map against it on the way.
func lruKeys[K comparable, V any](t *testing.T, c *lru[K, V]) []K {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	var prev *lruNode[K, V]
	for n := c.head; n != nil; prev, n = n, n.next {
		if n.prev != prev {
			t.Fatalf("node %v: prev link does not point at its predecessor", n.key)
		}
		if c.m[n.key] != n {
			t.Fatalf("node %v is linked but not mapped", n.key)
		}
		keys = append(keys, n.key)
	}
	if c.tail != prev {
		t.Fatal("tail is not the last linked node")
	}
	if len(keys) != len(c.m) {
		t.Fatalf("%d linked nodes, %d mapped", len(keys), len(c.m))
	}
	return keys
}

func TestLRURecency(t *testing.T) {
	c := newLRU[int, string]()
	c.setCapacity(3)
	mk := func(s string) func() string { return func() string { return s } }
	for i, s := range []string{"a", "b", "c"} {
		if v, added := c.getOrAdd(i, mk(s)); !added || v != s {
			t.Fatalf("getOrAdd(%d) = %q, %v; want %q, true", i, v, added, s)
		}
	}
	// A hit returns the stored value, not a fresh one, and refreshes the key.
	if v, added := c.getOrAdd(0, mk("other")); added || v != "a" {
		t.Fatalf("hit returned %q, added=%v; want the stored \"a\"", v, added)
	}
	if got := lruKeys(t, &c); !slices.Equal(got, []int{0, 2, 1}) {
		t.Fatalf("recency order %v, want [0 2 1]", got)
	}
	// peek does not refresh: 1 stays the eviction candidate.
	if v, ok := c.peek(1); !ok || v != "b" {
		t.Fatalf("peek(1) = %q, %v", v, ok)
	}
	c.getOrAdd(3, mk("d"))
	if got := lruKeys(t, &c); !slices.Equal(got, []int{3, 0, 2}) {
		t.Fatalf("after inserting over capacity: %v, want [3 0 2]", got)
	}
	if _, ok := c.peek(1); ok {
		t.Fatal("the least recently used key survived")
	}
	if got := c.evictionCount(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	keys := c.keys()
	slices.Sort(keys)
	if !slices.Equal(keys, []int{0, 2, 3}) {
		t.Fatalf("keys() = %v", keys)
	}
}

func TestLRUAddKeepsExisting(t *testing.T) {
	c := newLRU[int, string]()
	if !c.add(1, "first") {
		t.Fatal("add of a new key reported not stored")
	}
	if c.add(1, "second") {
		t.Fatal("add over an existing key reported stored")
	}
	if v, _ := c.peek(1); v != "first" {
		t.Fatalf("existing value replaced by %q", v)
	}
}

func TestLRURemove(t *testing.T) {
	c := newLRU[int, int]()
	c.setCapacity(4)
	for i := 0; i < 4; i++ {
		c.add(i, i)
	}
	// Middle, head and tail each exercise a different unlink branch.
	for _, k := range []int{2, 3, 0} {
		if !c.remove(k) {
			t.Fatalf("remove(%d) reported absent", k)
		}
		if c.remove(k) {
			t.Fatalf("second remove(%d) reported present", k)
		}
	}
	if got := lruKeys(t, &c); !slices.Equal(got, []int{1}) {
		t.Fatalf("after removals: %v, want [1]", got)
	}
	c.remove(1)
	if c.len() != 0 || lruKeys(t, &c) != nil {
		t.Fatal("emptied cache still holds nodes")
	}
	if got := c.evictionCount(); got != 0 {
		t.Fatalf("removals counted as %d evictions", got)
	}
	c.add(9, 9)
	if got := lruKeys(t, &c); !slices.Equal(got, []int{9}) {
		t.Fatalf("reuse after emptying: %v", got)
	}
}

func TestLRUShrinkBySetCapacity(t *testing.T) {
	c := newLRU[int, int]()
	for i := 0; i < 10; i++ {
		c.add(i, i)
	}
	if c.len() != 10 || c.evictionCount() != 0 {
		t.Fatalf("unbounded cache evicted: len %d, evictions %d", c.len(), c.evictionCount())
	}
	c.setCapacity(3)
	if got := lruKeys(t, &c); !slices.Equal(got, []int{9, 8, 7}) {
		t.Fatalf("shrink kept %v, want the three most recent [9 8 7]", got)
	}
	if got := c.evictionCount(); got != 7 {
		t.Fatalf("evictions = %d, want 7", got)
	}
	c.setCapacity(-1) // unbounded again
	for i := 10; i < 20; i++ {
		c.add(i, i)
	}
	if c.len() != 13 {
		t.Fatalf("len = %d after lifting the bound, want 13", c.len())
	}
}

func TestLRUConcurrentUse(t *testing.T) {
	c := newLRU[int, *int]()
	c.setCapacity(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 24
				v, _ := c.getOrAdd(k, func() *int { return new(int) })
				_ = *v
				if i%7 == 0 {
					c.remove(k)
				}
				c.peek(k)
			}
		}(g)
	}
	wg.Wait()
	if n := len(lruKeys(t, &c)); n > 8 {
		t.Fatalf("bounded cache holds %d keys", n)
	}
}
