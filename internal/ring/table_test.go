package ring

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// scriptedFleet is the fleet as an http.RoundTripper: what each host
// answers on /v1/status and /v1/augment is set by the test, so every
// probe and data-path outcome is chosen, not raced for.
type scriptedFleet struct {
	status  map[string]string // host -> /v1/status body; "" refuses the connection
	augment map[string]int    // host -> /v1/augment status; 0 refuses the connection
}

func (f *scriptedFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	code, body := http.StatusOK, f.status[req.URL.Host]
	if req.URL.Path == "/v1/augment" {
		code, body = f.augment[req.URL.Host], `{"augmented":"a"}`
	}
	if code == 0 || body == "" {
		return nil, errors.New("connection refused")
	}
	return &http.Response{
		StatusCode: code,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}, nil
}

// modelReplica is the reference the table is held to: the health state
// machine of DESIGN §12, a consecutive-failure breaker that never
// cools down within a run, and the traffic counters.
type modelReplica struct {
	state            state
	fails            int
	requests, errors int64
	streak           int // consecutive breaker failures
}

func (r *modelReplica) observe(failed, draining, fromProbe bool, downAfter int) {
	switch {
	case r.state == stateDraining && !fromProbe:
	case !failed && draining:
		r.state, r.fails = stateDraining, 0
	case !failed:
		r.state, r.fails = stateUp, 0
	default:
		r.fails++
		if r.state == stateUp {
			r.state = stateSuspect
		} else if r.state != stateDown && r.fails >= downAfter {
			r.state = stateDown
		}
	}
}

// TestTableMatchesReferenceModel drives random membership changes,
// probe outcomes and data-path outcomes through the client and checks
// after every step that the ring, the stats views and Live() are the
// model's — in particular that a re-added URL starts from zero.
func TestTableMatchesReferenceModel(t *testing.T) {
	const hosts, steps, downAfter, threshold = 5, 600, 2, 3
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fleet := &scriptedFleet{status: map[string]string{}, augment: map[string]int{}}
		url := func(i int) string { return fmt.Sprintf("http://h%d:1", i) }
		c, err := NewClient(Config{
			Replicas:         []string{url(0), url(1)},
			BreakerThreshold: threshold,
			BreakerCooldown:  time.Hour,
			Health:           HealthConfig{DownAfter: downAfter},
			HTTPClient:       &http.Client{Transport: fleet},
		})
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]*modelReplica{url(0): {}, url(1): {}}
		order := []string{url(0), url(1)}
		var adds, removes int64 // runtime joins (or returns to the ring) and retirements
		ctx := context.Background()

		for step := 0; step < steps; step++ {
			u := url(rng.Intn(hosts))
			host := strings.TrimPrefix(u, "http://")
			mr := model[u]
			var op string
			switch rng.Intn(4) {
			case 0:
				op = "add"
				if _, _, err := c.addReplica(u + "/"); err != nil {
					t.Fatal(err)
				}
				if mr == nil {
					model[u] = &modelReplica{}
					order = append(order, u)
					adds++
				} else if !routable(mr.state) {
					mr.state, mr.fails = stateUp, 0
					adds++
				}
			case 1:
				op = "remove"
				if removed, err := c.removeReplica(u); err != nil || removed != (mr != nil) {
					t.Fatalf("seed %d step %d: removeReplica(%s) = %v, %v; member in model: %v", seed, step, u, removed, err, mr != nil)
				}
				if mr != nil {
					removes++
					delete(model, u)
					i := slices.Index(order, u)
					order = slices.Delete(order, i, i+1)
				}
			case 2:
				body := []string{"", `{"status":"ok"}`, "plain ok", `{"status":"draining"}`,
					`{"status":"ok","pressure":"trim"}`, `{"status":"ok","pressure":"raw"}`, `{"status":"ok","pressure":"sideways"}`}[rng.Intn(7)]
				op = "probe " + body
				fleet.status[host] = body
				c.mem.probeOne(ctx, u)
				if mr != nil {
					// A "pressure" key is what a replica from before the
					// ladder's removal sends mid rolling upgrade: like any
					// unknown field it changes nothing.
					mr.observe(body == "", strings.Contains(body, "draining"), true, downAfter)
				}
			case 3:
				code := []int{0, http.StatusOK, http.StatusServiceUnavailable}[rng.Intn(3)]
				op = fmt.Sprint("call ", code)
				if mr == nil {
					continue
				}
				fleet.augment[host] = code
				_, err := c.callReplica(ctx, c.mem.lookup([]string{u})[0], "p", "s")
				if open := mr.streak >= threshold; open != errors.Is(err, resilience.ErrOpen) {
					t.Fatalf("seed %d step %d: call %s err %v, model breaker open: %v", seed, step, u, err, open)
				} else if open {
					break // refused locally: nothing dialled, nothing counted
				}
				mr.observe(code == 0, false, false, downAfter)
				if code == http.StatusOK {
					mr.requests++
					mr.streak = 0
				} else {
					mr.errors++
					mr.streak++
				}
			}

			wantRing := []string{}
			wantStats := Stats{Members: []MemberStatus{}, Replicas: []ReplicaStats{}, Breakers: map[string]string{}, Added: adds, Removed: removes}
			for _, u := range order {
				mr := model[u]
				if routable(mr.state) {
					wantRing = append(wantRing, u)
					wantStats.Live++
				}
				wantStats.Members = append(wantStats.Members, MemberStatus{URL: u, State: mr.state.String(), Fails: mr.fails})
				wantStats.Replicas = append(wantStats.Replicas, ReplicaStats{URL: u, Requests: mr.requests, Errors: mr.errors})
				wantStats.Breakers[u] = "closed"
				if mr.streak >= threshold {
					wantStats.Breakers[u] = "open"
				}
			}
			sort.Strings(wantRing)
			got := c.Stats()
			for i := range got.Members {
				// The model keeps what routing depends on, not the probe
				// counters and error text.
				m := got.Members[i]
				got.Members[i] = MemberStatus{URL: m.URL, State: m.State, Fails: m.Fails}
			}
			got.Requests, got.Failovers, got.Degraded = 0, 0, 0
			if !reflect.DeepEqual(got, wantStats) {
				t.Fatalf("seed %d step %d (%s %s): stats\n got %+v\nwant %+v", seed, step, op, u, got, wantStats)
			}
			if ringNow := c.Ring().Members(); !reflect.DeepEqual(ringNow, wantRing) {
				t.Fatalf("seed %d step %d (%s %s): ring members %v, want the routable members %v", seed, step, op, u, ringNow, wantRing)
			}
			if c.mem.live() != wantStats.Live || len(c.mem.members) != len(model) || len(c.mem.order) != len(model) {
				t.Fatalf("seed %d step %d (%s %s): Live %d, table %d/%d; want %d live of %d", seed, step, op, u, c.mem.live(), len(c.mem.members), len(c.mem.order), wantStats.Live, len(model))
			}
		}
	}
}

// TestRemovedReplicasLeaveNothingBehind: a fleet that cycles through
// fresh URLs must not grow the table — after 1,000 distinct replicas
// have joined, taken a failed request and been retired, only the one
// that stayed is anywhere to be found.
func TestRemovedReplicasLeaveNothingBehind(t *testing.T) {
	fleet := &scriptedFleet{status: map[string]string{}, augment: map[string]int{}}
	c, err := NewClient(Config{Replicas: []string{"http://stays:1"}, HTTPClient: &http.Client{Transport: fleet}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("http://gone-%d:1", i)
		if _, changed, err := c.addReplica(u); err != nil || !changed {
			t.Fatalf("addReplica(%s) = %v, %v", u, changed, err)
		}
		fleet.augment[fmt.Sprintf("gone-%d:1", i)] = http.StatusInternalServerError
		if _, err := c.callReplica(ctx, c.mem.lookup([]string{u})[0], "p", "s"); err == nil {
			t.Fatal("scripted 500 succeeded")
		}
		if removed, err := c.removeReplica(u); err != nil || !removed {
			t.Fatalf("removeReplica(%s) = %v, %v", u, removed, err)
		}
	}
	s := c.Stats()
	if len(s.Members) != 1 || len(s.Replicas) != 1 || len(s.Breakers) != 1 || s.Replicas[0].URL != "http://stays:1" {
		t.Fatalf("stats still list retired replicas: %d members, %d replicas, %d breakers", len(s.Members), len(s.Replicas), len(s.Breakers))
	}
	if len(c.mem.members) != 1 || len(c.mem.order) != 1 || c.Ring().Size() != 1 {
		t.Fatalf("table holds %d records (%d ordered), ring %d members; want 1 each", len(c.mem.members), len(c.mem.order), c.Ring().Size())
	}
	if adds, removes, _ := c.mem.Churn(); adds != 1000 || removes != 1000 {
		t.Fatalf("churn = %d adds, %d removes; want 1000 each", adds, removes)
	}
}

// TestBreakerThresholdZeroNeverTrips: threshold 0 means what pasproxy's
// -breaker-threshold help says — 100 consecutive failures against the
// one replica are all dialled, none refused with ErrOpen.
func TestBreakerThresholdZeroNeverTrips(t *testing.T) {
	fleet := &scriptedFleet{augment: map[string]int{"a:1": http.StatusInternalServerError}}
	c, err := NewClient(Config{Replicas: []string{"http://a:1"}, BreakerThreshold: 0, HTTPClient: &http.Client{Transport: fleet}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, _, err := c.AugmentContextDegraded(context.Background(), "p", "s")
		if err == nil || errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("request %d: err = %v, want the replica's own 500", i, err)
		}
	}
	s := c.Stats()
	if s.Replicas[0].Errors != 100 || s.Breakers["http://a:1"] != "closed" {
		t.Fatalf("after 100 failures: %d dialled, breaker %s; want 100, closed", s.Replicas[0].Errors, s.Breakers["http://a:1"])
	}
}
