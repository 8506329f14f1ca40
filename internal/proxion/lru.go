package proxion

import "sync"

// lru is the one recency-bounded map behind everything the detector keys by
// bytecode: verdicts by code hash, clone families by fingerprint, artifacts
// by code hash. Capacity 0 is unbounded; a positive capacity keeps at most
// that many keys and evicts the least recently used. Every method takes the
// lock itself. A holder of an evicted value keeps a valid orphan: eviction
// only unlinks.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]*lruNode[K, V]
	capacity int
	// head is the most recently used node, tail the next to be evicted.
	head, tail *lruNode[K, V]
	evictions  int64
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

func newLRU[K comparable, V any]() lru[K, V] {
	return lru[K, V]{m: make(map[K]*lruNode[K, V])}
}

// setCapacity switches between unbounded (n <= 0) and bounded modes,
// evicting at once whatever exceeds the new bound, oldest first.
func (c *lru[K, V]) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.capacity = n
	c.evictLocked()
}

// getOrAdd returns the value under k, marking it most recently used; a
// missing key is first filled with mk(), which runs under the lock.
func (c *lru[K, V]) getOrAdd(k K, mk func() V) (v V, added bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[k]; ok {
		c.unlink(n)
		c.pushFront(n)
		return n.val, false
	}
	n := &lruNode[K, V]{key: k, val: mk()}
	c.m[k] = n
	c.pushFront(n)
	c.evictLocked()
	return n.val, true
}

// add stores v under k unless the key is present — an existing value always
// wins — and reports whether it stored.
func (c *lru[K, V]) add(k K, v V) bool {
	_, added := c.getOrAdd(k, func() V { return v })
	return added
}

// peek returns the value under k without touching its recency.
func (c *lru[K, V]) peek(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[k]; ok {
		return n.val, true
	}
	return v, false
}

// keys returns every key held, in no particular order.
func (c *lru[K, V]) keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	return out
}

// remove drops k, reporting whether it was present. It is not an eviction.
func (c *lru[K, V]) remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[k]
	if ok {
		c.unlink(n)
		delete(c.m, k)
	}
	return ok
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// evictionCount returns how many keys the bound has pushed out so far.
func (c *lru[K, V]) evictionCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

func (c *lru[K, V]) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.m) > c.capacity {
		n := c.tail
		c.unlink(n)
		delete(c.m, n.key)
		c.evictions++
	}
}

func (c *lru[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

func (c *lru[K, V]) unlink(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
