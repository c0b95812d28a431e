package chatapi

import (
	"sync"

	"repro/internal/lru"
)

// lruCache is a bounded, thread-safe LRU of completed chat responses.
// The simulated models are deterministic for a fixed seed, so caching is
// semantically transparent; on a real endpoint the same cache keyed on
// (model, messages, seed) would serve seeded replays.
type lruCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, ChatResponse]

	hits, misses int64
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{lru: lru.New[string, ChatResponse](capacity)}
}

// get returns a cached response and whether it was present.
func (c *lruCache) get(key string) (ChatResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, ok := c.lru.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return resp, ok
}

// put stores a response, evicting the least recently used entry when
// full.
func (c *lruCache) put(key string, resp ChatResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, resp)
}

// stats returns the entry count and the hit and miss counters.
func (c *lruCache) stats() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.hits, c.misses
}
