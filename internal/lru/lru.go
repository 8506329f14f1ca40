// Package lru is the repository's one recency-bounded map. It backs
// everything the detector keys by bytecode — verdicts by code hash, clone
// families by fingerprint, artifacts by code hash — and the query service's
// analyzed-item cache by address.
package lru

import "sync"

// Cache maps keys to values and, under a positive capacity, keeps at most
// that many keys, evicting the least recently used; capacity 0 is unbounded.
// Every method takes the lock itself. A holder of an evicted value keeps a
// valid orphan: eviction only unlinks.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]*node[K, V]
	capacity int
	// head is the most recently used node, tail the next to be evicted.
	head, tail *node[K, V]
	evictions  int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty cache of the given capacity (see SetCapacity).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]*node[K, V]), capacity: max(capacity, 0)}
}

// SetCapacity switches between unbounded (n <= 0) and bounded modes,
// evicting at once whatever exceeds the new bound, oldest first.
func (c *Cache[K, V]) SetCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = max(n, 0)
	c.evictLocked()
}

// GetOrAdd returns the value under k, marking it most recently used; a
// missing key is first filled with mk(), which runs under the lock.
func (c *Cache[K, V]) GetOrAdd(k K, mk func() V) (v V, added bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[k]; ok {
		c.touch(n)
		return n.val, false
	}
	return c.insert(k, mk()), true
}

// Add stores v under k unless the key is present — an existing value always
// wins — and reports whether it stored.
func (c *Cache[K, V]) Add(k K, v V) bool {
	_, added := c.GetOrAdd(k, func() V { return v })
	return added
}

// Put stores v under k, replacing any value already there, and marks the
// key most recently used.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[k]; ok {
		n.val = v
		c.touch(n)
		return
	}
	c.insert(k, v)
}

// Get returns the value under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[k]; ok {
		c.touch(n)
		return n.val, true
	}
	return v, false
}

// Peek returns the value under k without touching its recency.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[k]; ok {
		return n.val, true
	}
	return v, false
}

// Keys returns every key held, from most to least recently used.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, len(c.m))
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}

// Remove drops k, reporting whether it was present. It is not an eviction.
func (c *Cache[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[k]
	if ok {
		c.unlink(n)
		delete(c.m, k)
	}
	return ok
}

// Len returns the number of keys held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Evictions returns how many keys the bound has pushed out so far.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// insert files v under the absent key k as most recently used.
func (c *Cache[K, V]) insert(k K, v V) V {
	n := &node[K, V]{key: k, val: v}
	c.m[k] = n
	c.pushFront(n)
	c.evictLocked()
	return v
}

func (c *Cache[K, V]) evictLocked() {
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

// touch makes n the most recently used node.
func (c *Cache[K, V]) touch(n *node[K, V]) {
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
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
