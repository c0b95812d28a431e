// Package lru is the repository's one LRU: a bounded map that evicts
// the least recently used entry. The serving core's cache shards
// (internal/serving) and the chat API's response cache
// (internal/chatapi) both sit on it, each under its own mutex beside
// the counters that mutex already guards — a Cache itself is not safe
// for concurrent use.
package lru

// Cache holds at most a fixed number of entries; New builds one.
type Cache[K comparable, V any] struct {
	cap   int
	byKey map[K]*entry[K, V]
	// root is the sentinel of a circular recency list: root.next is the
	// most recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns an empty cache evicting beyond capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, byKey: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	e, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put stores val under key as the most recently used entry and reports
// whether that pushed the least recently used one out.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	if e, ok := c.byKey[key]; ok {
		e.val = val
		c.unlink(e)
		c.pushFront(e)
		return false
	}
	e := &entry[K, V]{key: key, val: val}
	c.byKey[key] = e
	c.pushFront(e)
	if len(c.byKey) <= c.cap {
		return false
	}
	c.Remove(c.root.prev.key)
	return true
}

// Remove drops key if present.
func (c *Cache[K, V]) Remove(key K) {
	if e, ok := c.byKey[key]; ok {
		c.unlink(e)
		delete(c.byKey, key)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return len(c.byKey) }
