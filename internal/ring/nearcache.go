package ring

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

// nearShards is the near cache's shard count: the serving core's default.
const nearShards = 16

// nearCache is the client's L1 in front of the ring hop: complement
// tails by shard key, held in the serving core's own cache type. M_p is
// a fixed model, so the tail for a (prompt, salt) is a constant until a
// replica is replaced by one that may carry another model; the prober
// reports that (Membership.onNewInstance) and flush drops everything.
//
// The drop is a swap to an empty generation, not a sweep: a request
// looks up in the generation it loaded and, after its hop, stores into
// that same generation, so a hop that was in flight across a flush
// writes into the dropped one and plants nothing a later request reads.
type nearCache struct {
	size int
	ttl  time.Duration
	now  func() time.Time
	gen  atomic.Pointer[serving.Cache]

	mu      sync.Mutex         // orders flushes; guards the two below
	retired serving.CacheStats // counters of the dropped generations
	flushes int64
}

func newNearCache(size int, ttl time.Duration, now func() time.Time) *nearCache {
	n := &nearCache{size: size, ttl: ttl, now: now}
	n.gen.Store(n.empty())
	return n
}

func (n *nearCache) empty() *serving.Cache {
	return serving.NewCache(n.size, nearShards, n.ttl, n.now)
}

// flush drops every entry. The dropped generation's counters are folded
// into the totals here; a lookup still running against it at this
// instant goes uncounted in them (Client.requests counts it regardless).
func (n *nearCache) flush() {
	n.mu.Lock()
	defer n.mu.Unlock()
	addCounters(&n.retired, n.gen.Swap(n.empty()).Stats())
	n.flushes++
}

// addCounters adds src's four counters (not its entry count) to dst.
func addCounters(dst *serving.CacheStats, src serving.CacheStats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Evictions += src.Evictions
	dst.Expiries += src.Expiries
}

// CacheStats is the near cache's block of Stats: the serving cache's
// five counters, summed over every generation, plus the flush count.
type CacheStats struct {
	serving.CacheStats
	// Flushes counts whole-cache drops: one per probe that found a
	// member running as a new instance.
	Flushes int64 `json:"flushes"`
}

func (n *nearCache) stats() CacheStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := CacheStats{CacheStats: n.gen.Load().Stats(), Flushes: n.flushes}
	addCounters(&s.CacheStats, n.retired)
	return s
}
