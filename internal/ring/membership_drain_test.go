package ring

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// drainableServer is a fake replica whose /v1/status can announce
// draining or go dead, counting the probes it answers.
type drainableServer struct {
	srv      *httptest.Server
	dead     atomic.Bool
	draining atomic.Bool
	probes   int64
}

func newDrainableServer(t *testing.T) *drainableServer {
	t.Helper()
	d := &drainableServer{}
	d.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/status" {
			http.NotFound(w, r)
			return
		}
		atomic.AddInt64(&d.probes, 1)
		if d.dead.Load() {
			http.Error(w, "unhealthy", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		status := `{"status":"ok"}`
		if d.draining.Load() {
			status = `{"status":"draining"}`
		}
		_, _ = w.Write([]byte(status))
	}))
	t.Cleanup(d.srv.Close)
	return d
}

// TestDrainingStateMachine: a probe that reads status "draining" moves
// the member off the ring without failure bookkeeping; data-path
// observations cannot move it while it drains; a healthy probe brings
// it straight back, and sustained probe failures finish it off to Down.
func TestDrainingStateMachine(t *testing.T) {
	rep := newDrainableServer(t)
	ring := New(8)
	m := newMembership([]string{rep.srv.URL}, ring, rep.srv.Client(), HealthConfig{
		ProbeTimeout: time.Second,
		DownAfter:    2,
	}, resilience.BreakerConfig{})
	ctx := context.Background()

	rep.draining.Store(true)
	m.probeOne(ctx, rep.srv.URL)
	st := m.Snapshot()[0]
	if st.State != "draining" || st.Drains != 1 || st.Fails != 0 {
		t.Fatalf("after draining probe: %+v, want draining/1 drains/0 fails", st)
	}
	if ring.Size() != 0 {
		t.Fatal("draining member still on the ring")
	}
	if m.live() != 0 {
		t.Fatalf("Live() = %d, want 0 (draining is not routable)", m.live())
	}
	if _, _, drains := m.Churn(); drains != 1 {
		t.Fatalf("Churn drains = %d, want 1", drains)
	}

	// Data-path outcomes are ignored while draining: a success (the
	// replica still answers cache hits) must not re-ring it, a failure
	// must not smear its record.
	m.observe(rep.srv.URL, nil)
	if st := m.Snapshot()[0]; st.State != "draining" || ring.Size() != 0 {
		t.Fatalf("data-path success moved a draining member: %v ring %d", st.State, ring.Size())
	}
	m.observe(rep.srv.URL, errors.New("boom"))
	if st := m.Snapshot()[0]; st.State != "draining" || st.Fails != 0 {
		t.Fatalf("data-path failure touched a draining member: %+v", st)
	}

	// Draining again is not another transition.
	m.probeOne(ctx, rep.srv.URL)
	if st := m.Snapshot()[0]; st.Drains != 1 {
		t.Fatalf("repeat draining probe counted again: drains %d", st.Drains)
	}

	// A healthy probe (the restarted process) rejoins the ring.
	rep.draining.Store(false)
	m.probeOne(ctx, rep.srv.URL)
	if st := m.Snapshot()[0]; st.State != "up" || ring.Size() != 1 {
		t.Fatalf("after recovery probe: %v ring %d, want up/1", st.State, ring.Size())
	}

	// Drain again, then die: DownAfter probe failures finish it to Down
	// directly — no suspect detour, it was already off the ring.
	rep.draining.Store(true)
	m.probeOne(ctx, rep.srv.URL)
	rep.dead.Store(true)
	m.probeOne(ctx, rep.srv.URL)
	if st := m.Snapshot()[0]; st.State != "draining" {
		t.Fatalf("one failure mid-drain: %v, want still draining", st.State)
	}
	m.probeOne(ctx, rep.srv.URL)
	st = m.Snapshot()[0]
	if st.State != "down" || st.Downs != 1 {
		t.Fatalf("dead drainer: %v downs %d, want down/1", st.State, st.Downs)
	}
}

// TestMembershipAddRemove: the member set is dynamic — Add puts a new
// replica on the ring, Remove takes it off and forgets it, and both
// report whether anything changed.
func TestMembershipAddRemove(t *testing.T) {
	ring := New(8)
	m := newMembership([]string{"http://a:1"}, ring, nil, HealthConfig{DownAfter: 2}, resilience.BreakerConfig{})

	if !m.add("http://b:1") {
		t.Fatal("adding a new member reported no change")
	}
	if m.add("http://b:1") {
		t.Fatal("re-adding a routable member reported a change")
	}
	if ring.Size() != 2 || m.live() != 2 || len(m.Snapshot()) != 2 {
		t.Fatalf("after add: ring %d live %d members %d", ring.Size(), m.live(), len(m.Snapshot()))
	}

	// A Down member re-added by the operator comes back optimistically.
	m.observe("http://b:1", errors.New("gone"))
	m.observe("http://b:1", errors.New("gone"))
	if m.live() != 1 {
		t.Fatalf("Live() = %d after eviction, want 1", m.live())
	}
	if !m.add("http://b:1") {
		t.Fatal("re-adding a down member reported no change")
	}
	if st := m.Snapshot()[1]; st.State != "up" || st.Fails != 0 {
		t.Fatalf("re-added member: %+v, want up with a clean slate", st)
	}
	if ring.Size() != 2 {
		t.Fatal("re-added member missing from ring")
	}

	if !m.remove("http://b:1") {
		t.Fatal("removing a member reported no change")
	}
	if m.remove("http://b:1") {
		t.Fatal("removing a gone member reported a change")
	}
	if ring.Size() != 1 || len(m.Snapshot()) != 1 {
		t.Fatalf("after remove: ring %d members %d, want 1/1", ring.Size(), len(m.Snapshot()))
	}
	if adds, removes, _ := m.Churn(); adds != 2 || removes != 1 {
		t.Fatalf("churn = %d adds %d removes, want 2/1", adds, removes)
	}
}

// TestProbeLoopLifecycle: removing a member cancels its probe loop (a
// departed replica is not probed forever) and re-adding it starts a
// fresh one — including for members added after Start.
func TestProbeLoopLifecycle(t *testing.T) {
	rep := newDrainableServer(t)
	ring := New(8)
	m := newMembership(nil, ring, rep.srv.Client(), HealthConfig{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     2,
	}, resilience.BreakerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.start(ctx)

	// Added after Start: the loop must begin probing on its own.
	m.add(rep.srv.URL)
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt64(&rep.probes) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("member added after Start was never probed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Removed: probing stops. Allow one in-flight probe to land, then
	// require silence.
	m.remove(rep.srv.URL)
	time.Sleep(60 * time.Millisecond)
	settled := atomic.LoadInt64(&rep.probes)
	time.Sleep(150 * time.Millisecond)
	if got := atomic.LoadInt64(&rep.probes); got != settled {
		t.Fatalf("removed member still probed: %d -> %d", settled, got)
	}

	// Re-added: probing resumes with a fresh loop.
	m.add(rep.srv.URL)
	for atomic.LoadInt64(&rep.probes) == settled {
		if time.Now().After(deadline) {
			t.Fatal("re-added member was never probed again")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
