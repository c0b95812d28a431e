package ring

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/wire"
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
// Draining is the fourth, deliberate state: the member answers probes
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

// probePath is the status endpoint probed on each member.
const probePath = "/v1/status"

// HealthConfig sizes the active health checker. Zero values select
// defaults.
type HealthConfig struct {
	// ProbeInterval is the target spacing between probes of a healthy
	// member; the actual sleep is jittered over [interval/2, interval)
	// so a fleet of probers decorrelates. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
	// DownAfter is the consecutive-failure count that evicts a member
	// from the ring. Default 3.
	DownAfter int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	return c
}

// replica is one member's record, and the only place the routing tier
// keeps anything about one URL: a member that leaves takes all of it
// along, and one that comes back starts clean.
type replica struct {
	url string
	// augmentURL is url + "/v1/augment", parsed once for every request
	// the data path sends; read-only after insert, nil if unparseable.
	augmentURL *neturl.URL

	// Health, guarded by Membership.mu.
	state   State
	fails   int    // consecutive failures since the last success
	lastErr string // most recent failure, for stats

	probes     int64
	probeFails int64
	downs      int64 // ->Down transitions
	drains     int64 // ->Draining transitions
	// instance is the wire.Status.Instance the member's last successful
	// probe read; "" on a fresh record.
	instance string
	// stopProbe cancels the member's probe loop; nil while none runs.
	stopProbe context.CancelFunc

	// Data path: read and written by Client without the table lock.
	breaker  *resilience.Breaker
	requests atomic.Int64 // successful augmentations served by this replica
	errors   atomic.Int64 // failed attempts against this replica
}

// Membership is the replica table: one record per member, holding its
// health, its breaker and its traffic counters, and it keeps the
// routing ring in sync — only Up and Suspect members are on the ring.
// Safe for concurrent use. The member set is dynamic: Add and Remove
// reshape it at runtime, starting and stopping probe loops to match.
type Membership struct {
	ring    *Ring
	cfg     HealthConfig
	breaker resilience.BreakerConfig
	hc      *http.Client

	mu      sync.Mutex
	members map[string]*replica
	order   []*replica // stable iteration order for snapshots
	// runCtx is the context Start was called with; nil before Start.
	// Probe loops started later (Add after Start) inherit it.
	runCtx context.Context
	// onNewInstance, when set (before Start, by the Client), is called
	// after a probe read an instance other than the one on the member's
	// record: the process behind the URL has been replaced.
	onNewInstance func()

	// Lifetime churn counters.
	adds    int64
	removes int64
	drains  int64
}

// NewMembership creates a table over replicas, all initially Up and on
// the ring (optimistic start: the first probe sweep corrects it within
// one interval, and routing to a briefly-dead member degrades per
// request rather than blocking startup). Every member gets a breaker
// built from breaker. hc may be nil for a default client; its transport
// is shared by probes only — the data path has its own client.
func NewMembership(replicas []string, ring *Ring, hc *http.Client, cfg HealthConfig, breaker resilience.BreakerConfig) *Membership {
	if hc == nil {
		hc = &http.Client{}
	}
	m := &Membership{
		ring:    ring,
		cfg:     cfg.withDefaults(),
		breaker: breaker,
		hc:      hc,
		members: make(map[string]*replica, len(replicas)),
	}
	urls := make([]string, 0, len(replicas))
	for _, u := range replicas {
		if _, dup := m.members[u]; dup {
			continue
		}
		m.insertLocked(u)
		urls = append(urls, u)
	}
	ring.SetMembers(urls)
	return m
}

// insertLocked appends a fresh Up record for url — closed breaker, zero
// counters, no streak. Caller holds m.mu (or is the constructor).
func (m *Membership) insertLocked(url string) *replica {
	r := &replica{url: url, state: StateUp, breaker: resilience.NewBreaker(m.breaker)}
	// Nil for a URL that does not parse (NormalizeReplicas admits none;
	// a caller of Add might pass one): doAugment reports that per request.
	r.augmentURL, _ = neturl.Parse(url + "/v1/augment")
	m.members[url] = r
	m.order = append(m.order, r)
	return r
}

// Start launches one probe goroutine per member; they stop when ctx
// ends. Members added later get their loop started immediately under
// the same ctx. Call at most once.
func (m *Membership) Start(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runCtx = ctx
	for _, r := range m.order {
		m.startLoopLocked(r)
	}
}

// startLoopLocked spawns r's probe loop if Start has been called and
// one is not already running. Caller holds m.mu.
func (m *Membership) startLoopLocked(r *replica) {
	if m.runCtx == nil || r.stopProbe != nil {
		return
	}
	var ctx context.Context
	ctx, r.stopProbe = context.WithCancel(m.runCtx)
	go m.probeLoop(ctx, r)
}

// Add inserts a member (or revives a removed-from-ring one), puts it on
// the ring optimistically, and starts its probe loop when the checker
// is running. It reports whether anything changed: adding a member that
// is already present and routable is a no-op.
func (m *Membership) Add(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, known := m.members[url]
	switch {
	case !known:
		r = m.insertLocked(url)
	case routable(r.state):
		m.startLoopLocked(r) // heal a lost loop even when state is fine
		return false
	default:
		// Known but off-ring (Down or Draining): the operator says it is
		// back. Reset to Up; the next probe corrects optimism.
		r.state = StateUp
		r.fails = 0
		r.lastErr = ""
	}
	m.ring.Add(url)
	m.startLoopLocked(r)
	m.adds++
	return true
}

// Remove deletes a member: off the ring, probe loop cancelled, record —
// breaker and counters included — dropped. It reports whether the
// member existed.
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
	m.order = slices.DeleteFunc(m.order, func(o *replica) bool { return o == mem })
	if mem.stopProbe != nil {
		mem.stopProbe()
	}
	m.removes++
	return true
}

// lookup resolves ring candidates to their records, in order, under one
// acquisition of the table lock; a URL retired since the ring was read
// is skipped.
func (m *Membership) lookup(urls []string) []*replica {
	out := make([]*replica, 0, len(urls))
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range urls {
		if r, ok := m.members[u]; ok {
			out = append(out, r)
		}
	}
	return out
}

// probeLoop probes one member until ctx ends. Healthy members are probed
// every ProbeInterval with jitter; a failing member's probes back off on
// the capped full-jitter envelope of resilience.Policy, so a dead
// replica costs a bounded probe rate instead of a tight reconnect loop.
func (m *Membership) probeLoop(ctx context.Context, r *replica) {
	healthy := resilience.Policy{
		BaseDelay: m.cfg.ProbeInterval / 2,
		MaxDelay:  m.cfg.ProbeInterval / 2,
	}
	failing := resilience.Policy{
		BaseDelay: m.cfg.ProbeInterval,
		MaxDelay:  8 * m.cfg.ProbeInterval,
	}
	for {
		m.mu.Lock()
		fails := r.fails
		m.mu.Unlock()
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
		m.ProbeOne(ctx, r.url)
	}
}

// ProbeOne probes one member once and applies the state transition.
// Exported so callers can force a synchronous sweep (startup, tests).
func (m *Membership) ProbeOne(ctx context.Context, url string) {
	// The probe runs without the table lock: a slow replica must not
	// stall snapshots or the data path's health observations.
	st, err := m.probe(ctx, url)
	if m.recordProbe(url, st, err) && m.onNewInstance != nil {
		m.onNewInstance()
	}
}

// recordProbe applies one probe's outcome to url's record and reports
// whether it found the member running as another instance than the one
// recorded (a fresh record has none, so a first reading counts).
func (m *Membership) recordProbe(url string, st probeStatus, err error) (newInstance bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[url]
	if !ok {
		return false
	}
	mem.probes++
	if err != nil {
		mem.probeFails++
	} else {
		// Only a successful probe speaks for the replica's instance; a
		// failed one says nothing (the last reading stands until eviction
		// takes the member off the ring anyway).
		newInstance = st.instance != mem.instance
		mem.instance = st.instance
	}
	m.applyLocked(mem, err, st.draining, true)
	return newInstance
}

// ProbeAll sweeps every member once, synchronously.
func (m *Membership) ProbeAll(ctx context.Context) {
	m.mu.Lock()
	members := slices.Clone(m.order)
	m.mu.Unlock()
	for _, r := range members {
		m.ProbeOne(ctx, r.url)
	}
}

// probe issues one GET probePath and reports whether the member looks
// alive: any 2xx is healthy, everything else (or a transport error) is
// a failure. What a healthy body says is parseStatus's business.
func (m *Membership) probe(ctx context.Context, url string) (probeStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+probePath, nil)
	if err != nil {
		return probeStatus{}, fmt.Errorf("ring: building probe: %w", err)
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return probeStatus{}, fmt.Errorf("ring: probe %s: %w", url, err)
	}
	defer resp.Body.Close()
	// Read (and thereby drain, so the transport can reuse the
	// connection) a bounded prefix of the body: it carries the
	// draining announcement.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxStatusBody))
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxStatusBody))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return probeStatus{}, fmt.Errorf("ring: probe %s: status %d", url, resp.StatusCode)
	}
	return parseStatus(body), nil
}

// maxStatusBody bounds how much of a probe response is read.
const maxStatusBody = 4096

// probeStatus is what one healthy probe body says.
type probeStatus struct {
	draining bool
	instance string
}

// parseStatus reads a 2xx probe body: a wire.Status whose status reads
// "draining" flags the member as deliberately leaving, and its instance
// names the process. Any other field — the "pressure" an older replica
// sends mid rolling upgrade included — is ignored. A non-JSON body stays
// plain healthy with no instance, for compatibility with simpler status
// endpoints.
func parseStatus(body []byte) probeStatus {
	var st wire.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return probeStatus{}
	}
	return probeStatus{draining: st.Status == wire.StatusDraining, instance: st.Instance}
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
func (m *Membership) applyLocked(mem *replica, err error, draining, fromProbe bool) {
	if mem.state == StateDraining && !fromProbe {
		return
	}
	if err == nil && draining {
		if mem.state != StateDraining {
			if routable(mem.state) {
				m.ring.Remove(mem.url)
			}
			mem.state = StateDraining
			mem.drains++
			m.drains++
		}
		mem.fails = 0
		mem.lastErr = ""
		return
	}
	if err == nil {
		wasRoutable := routable(mem.state)
		mem.state = StateUp
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
	case StateSuspect:
		if mem.fails >= m.cfg.DownAfter {
			mem.state = StateDown
			mem.downs++
			m.ring.Remove(mem.url)
		}
	case StateDraining:
		// A drainer that stops answering has finished exiting (or
		// died); it is already off the ring — just mark it Down so the
		// probe cadence backs off until a restart brings it back.
		if mem.fails >= m.cfg.DownAfter {
			mem.state = StateDown
			mem.downs++
		}
	case StateDown:
		// Already evicted; the streak just keeps the backoff growing.
	}
}

// MemberStatus is one member's snapshot, shaped for JSON stats bodies.
type MemberStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
	state State  // State as the enum, for the pas_ring_member_state gauge
	// Fails is the consecutive-failure streak; 0 for a healthy member.
	Fails   int    `json:"fails,omitempty"`
	LastErr string `json:"last_error,omitempty"`
	// Instance is the process incarnation the member last reported.
	Instance string `json:"instance,omitempty"`
	// Probes / ProbeFails are lifetime probe counters; Downs counts
	// evictions from the ring; Drains counts graceful departures.
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probe_fails"`
	Downs      int64 `json:"downs"`
	Drains     int64 `json:"drains,omitempty"`
}

// statusLocked snapshots r's health. Caller holds Membership.mu.
func (r *replica) statusLocked() MemberStatus {
	return MemberStatus{
		URL:        r.url,
		State:      r.state.String(),
		state:      r.state,
		Fails:      r.fails,
		LastErr:    r.lastErr,
		Instance:   r.instance,
		Probes:     r.probes,
		ProbeFails: r.probeFails,
		Downs:      r.downs,
		Drains:     r.drains,
	}
}

// Snapshot returns every member's status in the stable replica order.
func (m *Membership) Snapshot() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberStatus, 0, len(m.order))
	for _, r := range m.order {
		out = append(out, r.statusLocked())
	}
	return out
}

// fill writes the per-member views of a Stats snapshot in one pass over
// the table, so all four list exactly the current members.
func (m *Membership) fill(s *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Members = make([]MemberStatus, 0, len(m.order))
	s.Replicas = make([]ReplicaStats, 0, len(m.order))
	s.Breakers = make(map[string]string, len(m.order))
	for _, r := range m.order {
		if routable(r.state) {
			s.Live++
		}
		s.Members = append(s.Members, r.statusLocked())
		s.Replicas = append(s.Replicas, ReplicaStats{URL: r.url, Requests: r.requests.Load(), Errors: r.errors.Load()})
		s.Breakers[r.url] = r.breaker.State().String()
	}
}

// Live returns how many members are currently routable (Up or
// Suspect): draining members are healthy but deliberately excluded.
func (m *Membership) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, mem := range m.order {
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
