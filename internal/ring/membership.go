package ring

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/resilience"
)

// State is a member's health position. Transitions:
//
//	Up ──probe/request failure──▶ Suspect ──DownAfter consecutive──▶ Down
//	any ──probe/request success──▶ Up
//	any ──probe sees "draining"──▶ Draining ──probe sees "ok"──▶ Up
//	Draining ──DownAfter probe failures──▶ Down
//
// Up and Suspect members stay on the routing ring (a suspect member is
// probably alive — one lost probe should not reshuffle 1/N of the key
// space); Down members are removed, which is what moves their keys to
// successors. A Down member keeps being probed at backed-off intervals
// and rejoins the ring on its first successful probe.
//
// Draining is the third, deliberate state: the member answers probes
// (it is healthy) but has announced it is shutting down, so it is taken
// off the ring without any failure bookkeeping — no suspect detour, no
// breaker food, no error streak. Only probes move a member in or out of
// Draining; data-path observations are ignored while it drains, because
// the replica intentionally keeps serving cache hits and in-flight work
// while refusing new computations.
type State int

const (
	// StateUp: the member answers probes; route to it.
	StateUp State = iota
	// StateSuspect: recent failures below the Down threshold; still
	// routed, but one more failure streak away from eviction.
	StateSuspect
	// StateDown: evicted from the ring; probed on backoff until it
	// recovers.
	StateDown
	// StateDraining: healthy but shutting down; off the ring by its own
	// request. Probes keep watching it — a drained process that
	// restarts and reports ok rejoins, one that disappears goes Down.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	}
	return "unknown"
}

// routable reports whether a member in state s should be on the ring.
func routable(s State) bool { return s == StateUp || s == StateSuspect }

// wireDrainingStatus is the /v1/status "status" value a draining
// replica reports. Deliberately redeclared here rather than imported
// from the root package (which would be an import cycle); it is part
// of the HTTP wire contract, like augmentWireRequest.
const wireDrainingStatus = "draining"

// HealthConfig sizes the active health checker. Zero values select
// defaults.
type HealthConfig struct {
	// ProbeInterval is the target spacing between probes of a healthy
	// member; the actual sleep is jittered over [interval/2, interval)
	// so a fleet of probers decorrelates. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
	// ProbePath is the status endpoint probed on each member. Default
	// /v1/status (served by passerve and pasllm alike).
	ProbePath string
	// DownAfter is the consecutive-failure count that evicts a member
	// from the ring. Default 3.
	DownAfter int
	// Now injects the clock for state timestamps; tests pin it.
	// Default time.Now.
	Now func() time.Time
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbePath == "" {
		c.ProbePath = "/v1/status"
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// member is one replica's health record.
type member struct {
	url     string
	state   State
	fails   int    // consecutive failures since the last success
	lastErr string // most recent failure, for stats
	since   time.Time
	// pressure is the brownout rung the member's last successful probe
	// reported ("", "trim", or "raw"). A raw-pressure member stays on
	// the ring — it is healthy and still answers — but the client
	// deprioritizes it so hedges and failovers land on replicas that
	// can serve full-quality work.
	pressure string

	probes     int64
	probeFails int64
	downs      int64 // ->Down transitions
	drains     int64 // ->Draining transitions
}

// Membership tracks replica health and keeps the routing ring in sync:
// only Up and Suspect members are on the ring. Safe for concurrent
// use. The member set is dynamic: Add and Remove reshape it at
// runtime, starting and stopping probe loops to match.
type Membership struct {
	ring *Ring
	cfg  HealthConfig
	hc   *http.Client

	mu      sync.Mutex
	members map[string]*member
	order   []string // stable iteration order for snapshots
	// runCtx is the context Start was called with; nil before Start.
	// Probe loops started later (Add after Start) inherit it.
	runCtx context.Context
	// cancels stops one member's probe loop; Remove uses it so a
	// departed replica is not probed forever.
	cancels map[string]context.CancelFunc

	// Lifetime churn counters.
	adds    int64
	removes int64
	drains  int64
}

// NewMembership creates a table over replicas, all initially Up and on
// the ring (optimistic start: the first probe sweep corrects it within
// one interval, and routing to a briefly-dead member degrades per
// request rather than blocking startup). hc may be nil for a default
// client; its transport is shared by probes only — the data path has
// its own client.
func NewMembership(replicas []string, ring *Ring, hc *http.Client, cfg HealthConfig) *Membership {
	cfg = cfg.withDefaults()
	if hc == nil {
		hc = &http.Client{}
	}
	m := &Membership{
		ring:    ring,
		cfg:     cfg,
		hc:      hc,
		members: make(map[string]*member, len(replicas)),
		cancels: make(map[string]context.CancelFunc),
	}
	now := cfg.Now()
	for _, r := range replicas {
		if _, dup := m.members[r]; dup {
			continue
		}
		m.members[r] = &member{url: r, state: StateUp, since: now}
		m.order = append(m.order, r)
	}
	ring.SetMembers(m.order)
	return m
}

// Start launches one probe goroutine per member; they stop when ctx
// ends. Members added later get their loop started immediately under
// the same ctx. Call at most once.
func (m *Membership) Start(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runCtx = ctx
	for _, u := range m.order {
		m.startLoopLocked(u)
	}
}

// startLoopLocked spawns url's probe loop if Start has been called and
// one is not already running. Caller holds m.mu.
func (m *Membership) startLoopLocked(url string) {
	if m.runCtx == nil {
		return
	}
	if _, running := m.cancels[url]; running {
		return
	}
	ctx, cancel := context.WithCancel(m.runCtx)
	m.cancels[url] = cancel
	go m.probeLoop(ctx, url)
}

// stopLoopLocked cancels url's probe loop, if any. Caller holds m.mu.
func (m *Membership) stopLoopLocked(url string) {
	if cancel, ok := m.cancels[url]; ok {
		cancel()
		delete(m.cancels, url)
	}
}

// Add inserts a member (or revives a removed-from-ring one), puts it on
// the ring optimistically, and starts its probe loop when the checker
// is running. It reports whether anything changed: adding a member that
// is already present and routable is a no-op.
func (m *Membership) Add(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	if mem, ok := m.members[url]; ok {
		m.startLoopLocked(url) // heal a lost loop even when state is fine
		if routable(mem.state) {
			return false
		}
		// Known but off-ring (Down or Draining): the operator says it is
		// back. Reset to Up; the next probe corrects optimism.
		mem.state = StateUp
		mem.fails = 0
		mem.lastErr = ""
		mem.since = now
		m.ring.Add(url)
		m.adds++
		return true
	}
	m.members[url] = &member{url: url, state: StateUp, since: now}
	m.order = append(m.order, url)
	m.ring.Add(url)
	m.startLoopLocked(url)
	m.adds++
	return true
}

// Remove deletes a member: off the ring, record dropped, probe loop
// cancelled. It reports whether the member existed.
func (m *Membership) Remove(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[url]
	if !ok {
		return false
	}
	if routable(mem.state) {
		m.ring.Remove(url)
	}
	delete(m.members, url)
	for i, u := range m.order {
		if u == url {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.stopLoopLocked(url)
	m.removes++
	return true
}

// probeLoop probes one member forever. Healthy members are probed every
// ProbeInterval with jitter; a failing member's probes back off on the
// capped full-jitter envelope of resilience.Policy, so a dead replica
// costs a bounded probe rate instead of a tight reconnect loop.
func (m *Membership) probeLoop(ctx context.Context, url string) {
	healthy := resilience.Policy{
		BaseDelay: m.cfg.ProbeInterval / 2,
		MaxDelay:  m.cfg.ProbeInterval / 2,
	}
	failing := resilience.Policy{
		BaseDelay: m.cfg.ProbeInterval,
		MaxDelay:  8 * m.cfg.ProbeInterval,
	}
	for {
		fails := m.failCount(url)
		var d time.Duration
		if fails == 0 {
			// Jittered over [interval/2, interval): Delay(0) is full
			// jitter over [0, interval/2).
			d = m.cfg.ProbeInterval/2 + healthy.Delay(0)
		} else {
			d = failing.Delay(fails - 1)
			if min := m.cfg.ProbeInterval / 2; d < min {
				d = min
			}
		}
		if err := resilience.SleepContext(ctx, d); err != nil {
			return
		}
		m.ProbeOne(ctx, url)
	}
}

// ProbeOne probes one member once and applies the state transition.
// Exported so callers can force a synchronous sweep (startup, tests).
func (m *Membership) ProbeOne(ctx context.Context, url string) {
	// The probe runs without the table lock: a slow replica must not
	// stall snapshots or the data path's health observations.
	draining, pressure, err := m.probe(ctx, url)
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[url]
	if !ok {
		return
	}
	mem.probes++
	if err != nil {
		mem.probeFails++
	} else {
		// Only a successful probe speaks for the replica's brownout
		// rung; a failed one says nothing (the last reading stands
		// until eviction takes the member off the ring anyway).
		mem.pressure = pressure
	}
	m.applyLocked(mem, err, draining, true)
}

// ProbeAll sweeps every member once, synchronously.
func (m *Membership) ProbeAll(ctx context.Context) {
	m.mu.Lock()
	urls := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, u := range urls {
		m.ProbeOne(ctx, u)
	}
}

// probe issues one GET ProbePath and reports whether the member looks
// alive: any 2xx is healthy, everything else (or a transport error) is
// a failure. A healthy body whose JSON status reads "draining" flags
// the member as deliberately leaving, and its "pressure" field carries
// the brownout rung; a non-JSON 2xx body stays plain healthy for
// compatibility with simpler status endpoints.
func (m *Membership) probe(ctx context.Context, url string) (draining bool, pressure string, err error) {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+m.cfg.ProbePath, nil)
	if err != nil {
		return false, "", fmt.Errorf("ring: building probe: %w", err)
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return false, "", fmt.Errorf("ring: probe %s: %w", url, err)
	}
	defer resp.Body.Close()
	// Read (and thereby drain, so the transport can reuse the
	// connection) a bounded prefix of the body: it carries the
	// draining announcement.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return false, "", fmt.Errorf("ring: probe %s: status %d", url, resp.StatusCode)
	}
	var wire struct {
		Status   string `json:"status"`
		Pressure string `json:"pressure"`
	}
	if jsonErr := json.Unmarshal(body, &wire); jsonErr == nil {
		return wire.Status == wireDrainingStatus, wire.Pressure, nil
	}
	return false, "", nil
}

// Observe feeds a data-path outcome into the health table: the augment
// client calls it with transport-level results so a dead replica is
// suspected at request speed instead of waiting for the next probe.
// err nil marks the member reachable; non-nil counts like a failed
// probe. HTTP-level overload (a live replica shedding) must NOT be
// reported here — shedding is what breakers are for.
func (m *Membership) Observe(url string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[url]
	if !ok {
		return
	}
	m.applyLocked(mem, err, false, false)
}

// applyLocked applies one observation. Only probes (fromProbe) can
// move a member into or out of Draining: a draining replica keeps
// answering in-flight and cached work on purpose, so data-path
// successes must not re-ring it and data-path failures must not smear
// its record. Caller holds m.mu.
func (m *Membership) applyLocked(mem *member, err error, draining, fromProbe bool) {
	now := m.cfg.Now()
	if mem.state == StateDraining && !fromProbe {
		return
	}
	if err == nil && draining {
		if mem.state != StateDraining {
			if routable(mem.state) {
				m.ring.Remove(mem.url)
			}
			mem.state = StateDraining
			mem.since = now
			mem.drains++
			m.drains++
		}
		mem.fails = 0
		mem.lastErr = ""
		return
	}
	if err == nil {
		wasRoutable := routable(mem.state)
		if mem.state != StateUp {
			mem.state = StateUp
			mem.since = now
		}
		mem.fails = 0
		mem.lastErr = ""
		if !wasRoutable {
			m.ring.Add(mem.url)
		}
		return
	}
	mem.fails++
	mem.lastErr = err.Error()
	switch mem.state {
	case StateUp:
		mem.state = StateSuspect
		mem.since = now
	case StateSuspect:
		if mem.fails >= m.cfg.DownAfter {
			mem.state = StateDown
			mem.since = now
			mem.downs++
			m.ring.Remove(mem.url)
		}
	case StateDraining:
		// A drainer that stops answering has finished exiting (or
		// died); it is already off the ring — just mark it Down so the
		// probe cadence backs off until a restart brings it back.
		if mem.fails >= m.cfg.DownAfter {
			mem.state = StateDown
			mem.since = now
			mem.downs++
		}
	case StateDown:
		// Already evicted; the streak just keeps the backoff growing.
	}
}

// Pressure returns the brownout rung a member last reported; ""
// for unknown members or members that have not announced pressure.
func (m *Membership) Pressure(url string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mem, ok := m.members[url]; ok {
		return mem.pressure
	}
	return ""
}

// failCount returns a member's consecutive-failure streak.
func (m *Membership) failCount(url string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mem, ok := m.members[url]; ok {
		return mem.fails
	}
	return 0
}

// MemberStatus is one member's snapshot, shaped for JSON stats bodies.
type MemberStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
	state State  // State as the enum, for the pas_ring_member_state gauge
	// Fails is the consecutive-failure streak; 0 for a healthy member.
	Fails   int    `json:"fails,omitempty"`
	LastErr string `json:"last_error,omitempty"`
	// Pressure is the brownout rung the member last reported ("",
	// "trim", or "raw"); the client deprioritizes raw-pressure members.
	Pressure string `json:"pressure,omitempty"`
	// Probes / ProbeFails are lifetime probe counters; Downs counts
	// evictions from the ring; Drains counts graceful departures.
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probe_fails"`
	Downs      int64 `json:"downs"`
	Drains     int64 `json:"drains,omitempty"`
}

// Snapshot returns every member's status in the stable replica order.
func (m *Membership) Snapshot() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberStatus, 0, len(m.order))
	for _, u := range m.order {
		mem := m.members[u]
		out = append(out, MemberStatus{
			URL:        mem.url,
			State:      mem.state.String(),
			state:      mem.state,
			Fails:      mem.fails,
			LastErr:    mem.lastErr,
			Pressure:   mem.pressure,
			Probes:     mem.probes,
			ProbeFails: mem.probeFails,
			Downs:      mem.downs,
			Drains:     mem.drains,
		})
	}
	return out
}

// Live returns how many members are currently routable (Up or
// Suspect): draining members are healthy but deliberately excluded.
func (m *Membership) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, mem := range m.members {
		if routable(mem.state) {
			n++
		}
	}
	return n
}

// Churn returns the lifetime membership-change counters: members
// added, members removed, and observed transitions into Draining.
func (m *Membership) Churn() (adds, removes, drains int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.adds, m.removes, m.drains
}
