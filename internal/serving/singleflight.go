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
	// tenant is the leader's. refused marks err as admission refusing
	// the leader (a full queue or a spent wait budget), which is shared
	// only with followers of that tenant; gone marks it as the leader's
	// own context ending — its client hung up while it queued — which
	// is no outcome to share.
	tenant        string
	refused, gone bool
	// dups counts followers that attached to this call; read by tests
	// and by the core's dedup-hit counter.
	dups int64
}

// do executes fn once per key among concurrent callers. It reports
// whether this caller was a follower (shared someone else's execution).
// Followers return early with ctx.Err() when their context ends first;
// the leader always runs fn to completion so the result can still be
// cached for everyone else. A follower shares the leader's result, but
// neither the leader's client nor another tenant's admission: when the
// call ended because the leader's context did, or because admission
// refused a leader of another tenant, a follower whose own context is
// live goes round again, to lead the key under its own tenant or join a
// newer call. A drain refusal is shared with every follower.
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
			if ctx.Err() == nil && (c.gone || c.refused && TenantFrom(ctx) != c.tenant) {
				continue
			}
			return c.val, true, c.err
		case <-ctx.Done():
			return "", true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{}), tenant: TenantFrom(ctx)}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.refused = errors.Is(c.err, ErrQueueFull) || errors.Is(c.err, errDeadline)
	c.gone = c.err != nil && errors.Is(c.err, ctx.Err())

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
