package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// flightGroup is a hand-rolled single-flight: concurrent calls for the
// same key share one execution of fn. With a deterministic complement
// function the N-1 followers would compute byte-identical results, so
// collapsing them trades pure redundancy for a channel wait. The module
// has no dependencies, so this re-implements the core of
// golang.org/x/sync/singleflight with one addition: followers honor
// their own context, so a client that disconnects while waiting is
// released immediately instead of being held until the leader finishes.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  string
	err  error
	// gone marks err as the leader's own context ending — its client
	// hung up while it queued — which is no outcome to share.
	gone bool
	// dups counts followers that attached to this call; read by tests
	// and by the core's dedup-hit counter.
	dups int64
}

// do executes fn once per key among concurrent callers. It reports
// whether this caller was a follower (shared someone else's execution).
// Followers return early with ctx.Err() when their context ends first;
// the leader always runs fn to completion so the result can still be
// cached for everyone else. A follower shares the leader's result and
// the leader's shed, but not the leader's client: when the call ended
// because the leader's context did, a follower whose own context is
// live goes round again, to lead the key itself or join a newer call.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (string, error)) (val string, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[string]*flightCall)
		}
		c, ok := g.calls[key]
		if !ok {
			break
		}
		atomic.AddInt64(&c.dups, 1)
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.gone && ctx.Err() == nil {
				continue
			}
			return c.val, true, c.err
		case <-ctx.Done():
			return "", true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.gone = c.err != nil && errors.Is(c.err, ctx.Err())

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// waiters returns the number of followers currently attached to key's
// in-flight call, or 0 when none is in flight. Test hook.
func (g *flightGroup) waiters(key string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return atomic.LoadInt64(&c.dups)
	}
	return 0
}
