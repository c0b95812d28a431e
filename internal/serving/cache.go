package serving

import (
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/textkit"
)

// Cache is a sharded TTL-LRU of complement results, and the repository's
// one such type: the serving core's result cache and the cluster
// client's near cache (internal/ring) are both this. Sharding by key hash
// keeps lock contention bounded under concurrent load: each shard has its
// own mutex, LRU (internal/lru), and counters, so N cores hitting N different
// keys rarely serialize on the same lock. A TTL bounds staleness when the
// underlying model is hot-swapped or retrained; with the fixed
// deterministic mapping p -> p_c of a single model, entries never go
// semantically stale and TTL 0 (no expiry) is sound. Safe for concurrent
// use.
type Cache struct {
	shards []*cacheShard
	ttl    time.Duration
	now    func() time.Time
}

type cacheShard struct {
	mu  sync.Mutex
	lru *lru.Cache[string, cacheEntry]

	hits, misses, evictions, expiries int64
}

type cacheEntry struct {
	val     string
	expires time.Time // zero when the cache has no TTL
}

// NewCache builds a sharded cache holding ~size entries in total (size
// must be positive). The per-shard capacity is rounded up so the
// aggregate capacity is at least size. now is read only when ttl > 0.
func NewCache(size, shards int, ttl time.Duration, now func() time.Time) *Cache {
	if shards < 1 {
		shards = 1
	}
	if shards > size {
		shards = size
	}
	perShard := (size + shards - 1) / shards
	c := &Cache{shards: make([]*cacheShard, shards), ttl: ttl, now: now}
	for i := range c.shards {
		c.shards[i] = &cacheShard{lru: lru.New[string, cacheEntry](perShard)}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	return c.shards[textkit.Hash64(key)%uint64(len(c.shards))]
}

// Get returns the cached value and whether it was present and fresh.
// Expired entries are removed on access and counted separately from
// plain misses.
func (c *Cache) Get(key string) (string, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.Get(key)
	if !ok {
		s.misses++
		return "", false
	}
	if c.ttl > 0 && c.now().After(e.expires) {
		s.lru.Remove(key)
		s.expiries++
		s.misses++
		return "", false
	}
	s.hits++
	return e.val, true
}

// peek is Get without the counters: a second look by a request whose
// Get already counted. An expired entry is left for Get to count.
func (c *Cache) peek(key string) (string, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.Get(key)
	if !ok || c.ttl > 0 && c.now().After(e.expires) {
		return "", false
	}
	return e.val, true
}

// Put stores a value, evicting the least recently used entry of the
// shard when full.
func (c *Cache) Put(key, val string) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru.Put(key, cacheEntry{val: val, expires: expires}) {
		s.evictions++
	}
}

// CacheStats aggregates the per-shard counters. The metric tags name
// its series under the prefix of the snapshot that holds it.
type CacheStats struct {
	Hits      int64 `json:"hits" metric:"counter cache_hits_total Result-cache hits."`
	Misses    int64 `json:"misses" metric:"counter cache_misses_total Result-cache misses."`
	Evictions int64 `json:"evictions" metric:"counter cache_evictions_total Result-cache LRU evictions."`
	Expiries  int64 `json:"expiries" metric:"counter cache_expiries_total Result-cache TTL expiries."`
	Entries   int   `json:"entries" metric:"gauge cache_entries Result-cache entries resident."`
}

// Stats sums the shards' counters and entry counts.
func (c *Cache) Stats() CacheStats {
	var out CacheStats
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Expiries += s.expiries
		out.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return out
}
