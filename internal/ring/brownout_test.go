package ring

import (
	"context"
	"strings"
	"testing"
)

// ownerOf finds the fake replica that owns (prompt, salt) on c's ring.
func ownerOf(t *testing.T, c *Client, reps []*fakeReplica, prompt, salt string) *fakeReplica {
	t.Helper()
	url, ok := c.Owner(prompt, salt)
	if !ok {
		t.Fatal("empty ring")
	}
	for _, r := range reps {
		if r.srv.URL == url {
			return r
		}
	}
	t.Fatalf("owner %s not among fakes", url)
	return nil
}

// TestClientBrownoutReroute: a replica whose probe reports raw-level
// brownout pressure is demoted behind healthy successors — its keys
// fail over instead of being fed into a passthrough-only core — and
// comes back as owner when the pressure clears.
func TestClientBrownoutReroute(t *testing.T) {
	c, reps := newTestCluster(t, 3, nil)
	ctx := context.Background()
	owner := ownerOf(t, c, reps, "p", "s")

	owner.pressure.Store("raw")
	c.Membership().ProbeAll(ctx)

	aug, level, err := c.AugmentContextLevel(ctx, "p", "s")
	if err != nil || level != "" {
		t.Fatalf("reroute request = (%q, %q, %v), want full-quality success", aug, level, err)
	}
	if strings.Contains(aug, "["+owner.name+"]") {
		t.Fatalf("browned-out owner served %q; want a healthy successor", aug)
	}
	s := c.Stats()
	if s.BrownoutReroutes != 1 {
		t.Fatalf("brownout_reroutes = %d, want 1", s.BrownoutReroutes)
	}
	if s.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1 (non-owner served)", s.Failovers)
	}
	found := false
	for _, m := range s.Members {
		if m.URL == owner.srv.URL {
			found = true
			if m.Pressure != "raw" {
				t.Fatalf("member pressure = %q, want raw: %+v", m.Pressure, m)
			}
		}
	}
	if !found {
		t.Fatal("owner missing from member snapshot")
	}

	// Pressure clears on the next probe; the owner takes its keys back.
	owner.pressure.Store("")
	c.Membership().ProbeAll(ctx)
	aug, _, err = c.AugmentContextLevel(ctx, "p", "s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(aug, "["+owner.name+"]") {
		t.Fatalf("recovered owner did not serve: %q", aug)
	}
}

// TestClientBrownoutWholeFleetKeepsOrder: when every candidate is
// browned out there is nothing better to prefer — the owner keeps its
// keys and no reroute is counted.
func TestClientBrownoutWholeFleetKeepsOrder(t *testing.T) {
	c, reps := newTestCluster(t, 3, nil)
	ctx := context.Background()
	for _, r := range reps {
		r.pressure.Store("raw")
	}
	c.Membership().ProbeAll(ctx)

	owner := ownerOf(t, c, reps, "p", "s")
	aug, _, err := c.AugmentContextLevel(ctx, "p", "s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(aug, "["+owner.name+"]") {
		t.Fatalf("owner lost its keys under fleet-wide brownout: %q", aug)
	}
	if got := c.Stats().BrownoutReroutes; got != 0 {
		t.Fatalf("brownout_reroutes = %d, want 0", got)
	}
}

// TestClientLevelPropagates: the value a replica flags its answer with
// rides the header back through the cluster client untouched — here
// "trim", which only a replica from before the two-rung ladder sends,
// mid rolling upgrade.
func TestClientLevelPropagates(t *testing.T) {
	c, reps := newTestCluster(t, 2, nil)
	ctx := context.Background()
	for _, r := range reps {
		r.level.Store("trim")
	}
	_, level, err := c.AugmentContextLevel(ctx, "p", "s")
	if err != nil || level != "trim" {
		t.Fatalf("(level, err) = (%q, %v), want the replica's value passed through", level, err)
	}
	// The boolean interface folds any rung into degraded=true.
	_, degraded, err := c.AugmentContextDegraded(ctx, "p2", "s")
	if err != nil || !degraded {
		t.Fatalf("(degraded, err) = (%v, %v), want true", degraded, err)
	}
}
