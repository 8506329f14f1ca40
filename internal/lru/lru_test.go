package lru

import (
	"math/rand"
	"slices"
	"testing"
)

// check walks the list from head to tail, verifying the back links, the
// tail and the map against it, and returns the keys in recency order.
func check[K comparable, V any](t *testing.T, c *Cache[K, V]) []K {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	var prev *node[K, V]
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

// TestPutOverwritesGetTouches pins the two methods the query service's
// result cache adds to what the detector's caches use: Put replaces a value
// where Add keeps it, and Get refreshes a key where Peek does not.
func TestPutOverwritesGetTouches(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(1, "a2") // replaces, and makes 1 the most recent
	if v, ok := c.Get(1); !ok || v != "a2" {
		t.Fatalf("Get(1) = %q, %v after an overwriting Put", v, ok)
	}
	if got := check(t, c); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("recency order %v, want [1 2]", got)
	}
	if _, ok := c.Get(2); !ok { // refreshes 2: 1 is the eviction candidate
		t.Fatal("Get(2) missed")
	}
	c.Put(3, "c")
	if got := check(t, c); !slices.Equal(got, []int{3, 2}) {
		t.Fatalf("after Put over capacity: %v, want [3 2]", got)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("the least recently used key survived")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

// TestAgainstModel drives every method with a seeded random sequence and
// compares the cache, after each step, with a slice kept in recency order.
func TestAgainstModel(t *testing.T) {
	type kv struct{ k, v int }
	rng := rand.New(rand.NewSource(1))
	capacity := 4
	c := New[int, int](capacity)
	var model []kv // most recent first
	find := func(k int) int { return slices.IndexFunc(model, func(e kv) bool { return e.k == k }) }
	front := func(i int) {
		e := model[i]
		model = slices.Insert(slices.Delete(model, i, i+1), 0, e)
	}
	insert := func(k, v int) {
		model = slices.Insert(model, 0, kv{k, v})
		if capacity > 0 && len(model) > capacity {
			model = model[:capacity]
		}
	}
	for step := 0; step < 5000; step++ {
		k, v := rng.Intn(10), step
		i := find(k)
		switch op := rng.Intn(7); op {
		case 0: // GetOrAdd
			got, added := c.GetOrAdd(k, func() int { return v })
			if want := v; i >= 0 {
				want = model[i].v
				front(i)
				if added || got != want {
					t.Fatalf("step %d: GetOrAdd hit = %d, %v; want %d", step, got, added, want)
				}
			} else if insert(k, v); !added || got != want {
				t.Fatalf("step %d: GetOrAdd miss = %d, %v", step, got, added)
			}
		case 1: // Add keeps an existing value
			if added := c.Add(k, v); added != (i < 0) {
				t.Fatalf("step %d: Add stored = %v with the key present = %v", step, added, i >= 0)
			}
			if i >= 0 {
				front(i)
			} else {
				insert(k, v)
			}
		case 2: // Put
			c.Put(k, v)
			if i >= 0 {
				model[i].v = v
				front(i)
			} else {
				insert(k, v)
			}
		case 3, 4: // Get refreshes, Peek does not
			got, ok := c.Peek(k)
			if op == 3 {
				got, ok = c.Get(k)
			}
			if ok != (i >= 0) || (ok && got != model[i].v) {
				t.Fatalf("step %d: lookup of %d = %d, %v", step, k, got, ok)
			}
			if op == 3 && i >= 0 {
				front(i)
			}
		case 5: // Remove
			if c.Remove(k) != (i >= 0) {
				t.Fatalf("step %d: Remove(%d) disagrees with the model", step, k)
			}
			if i >= 0 {
				model = slices.Delete(model, i, i+1)
			}
		case 6: // SetCapacity, now and then back to unbounded
			if step%50 == 0 {
				capacity = rng.Intn(7) - 1
				c.SetCapacity(capacity)
				if capacity > 0 && len(model) > capacity {
					model = model[:capacity]
				}
			}
		}
		want := make([]int, len(model))
		for j, e := range model {
			want[j] = e.k
		}
		if got := check(t, c); !slices.Equal(got, want) {
			t.Fatalf("step %d: recency order %v, model %v", step, got, want)
		}
		if !slices.Equal(c.Keys(), check(t, c)) {
			t.Fatalf("step %d: Keys() is not the recency walk", step)
		}
	}
}
