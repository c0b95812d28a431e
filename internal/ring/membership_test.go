package ring

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// statusServer is a fake replica whose /v1/status can be flipped dead.
func statusServer(t *testing.T, dead *atomic.Bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/status" {
			http.NotFound(w, r)
			return
		}
		if dead.Load() {
			http.Error(w, "unhealthy", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestHealthTransitions drives the health state machine: a healthy
// member stays Up; failures walk Up→Suspect→Down and evict it from the
// ring; a successful probe brings it straight back.
func TestHealthTransitions(t *testing.T) {
	var dead atomic.Bool
	srv := statusServer(t, &dead)

	ring := New(8)
	m := NewMembership([]string{srv.URL}, ring, srv.Client(), HealthConfig{
		ProbeTimeout: time.Second,
		DownAfter:    3,
	}, resilience.BreakerConfig{})
	ctx := context.Background()

	m.ProbeOne(ctx, srv.URL)
	if st := m.Snapshot()[0]; st.State != "up" {
		t.Fatalf("after healthy probe: state %s, want up", st.State)
	}
	if ring.Size() != 1 {
		t.Fatal("healthy member missing from ring")
	}

	dead.Store(true)
	m.ProbeOne(ctx, srv.URL)
	if st := m.Snapshot()[0]; st.State != "suspect" {
		t.Fatalf("after 1 failure: state %s, want suspect", st.State)
	}
	if ring.Size() != 1 {
		t.Fatal("suspect member must stay on the ring")
	}

	m.ProbeOne(ctx, srv.URL)
	m.ProbeOne(ctx, srv.URL)
	st := m.Snapshot()[0]
	if st.State != "down" || st.Downs != 1 {
		t.Fatalf("after 3 failures: state %s downs %d, want down/1", st.State, st.Downs)
	}
	if ring.Size() != 0 {
		t.Fatal("down member still on the ring")
	}
	if m.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", m.Live())
	}

	dead.Store(false)
	m.ProbeOne(ctx, srv.URL)
	st = m.Snapshot()[0]
	if st.State != "up" || st.Fails != 0 {
		t.Fatalf("after recovery: state %s fails %d, want up/0", st.State, st.Fails)
	}
	if ring.Size() != 1 {
		t.Fatal("recovered member not re-added to ring")
	}
}

// TestObserveFeedsHealth: data-path transport errors walk the same
// state machine, so a dead replica is evicted at request speed without
// waiting for the prober.
func TestObserveFeedsHealth(t *testing.T) {
	ring := New(8)
	m := NewMembership([]string{"http://a:1", "http://b:1"}, ring, nil, HealthConfig{DownAfter: 2}, resilience.BreakerConfig{})

	m.Observe("http://a:1", context.DeadlineExceeded)
	m.Observe("http://a:1", context.DeadlineExceeded)
	if st := m.Snapshot()[0]; st.State != "down" {
		t.Fatalf("state %s, want down", st.State)
	}
	if got := ring.Members(); len(got) != 1 || got[0] != "http://b:1" {
		t.Fatalf("ring members = %v, want only b", got)
	}

	m.Observe("http://a:1", nil)
	if st := m.Snapshot()[0]; st.State != "up" {
		t.Fatalf("state %s, want up after success", st.State)
	}
	if ring.Size() != 2 {
		t.Fatal("recovered member not back on ring")
	}

	// Unknown members are ignored, not invented.
	m.Observe("http://nope:1", nil)
	if len(m.Snapshot()) != 2 {
		t.Fatal("Observe invented a member")
	}
}

// TestStartProbesUntilCancel: the background prober notices a death
// within a few intervals and stops cleanly with the context.
func TestStartProbesUntilCancel(t *testing.T) {
	var dead atomic.Bool
	srv := statusServer(t, &dead)

	ring := New(8)
	m := NewMembership([]string{srv.URL}, ring, srv.Client(), HealthConfig{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     2,
	}, resilience.BreakerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	dead.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for m.Live() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never evicted the dead member: %+v", m.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}

	dead.Store(false)
	for m.Live() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never recovered the member: %+v", m.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
}
