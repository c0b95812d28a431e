package obs

import (
	"encoding/json"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceStore holds finished traces: a ring of the most recent and a
// bounded list of the slowest. Memory is bounded by
// (MaxTraces + MaxSlow) × MaxSpansPerTrace retained spans, and a
// retained span is the 240-byte childSpan itself: at the defaults the
// worst case is (128 + 32) × 256 × 240 B ≈ 9.8 MB, were every kept
// trace full; at the five spans a cache miss leaves, a trace holds
// 1.4 KB and the store some 230 KB. Attributes past a span's own room,
// events, and the strings of both come on top.
type traceStore struct {
	mu      sync.Mutex
	recent  []*traceRec // ring, oldest overwritten first
	next    int
	filled  bool
	slow    []slowTrace // sorted by root duration, longest first
	maxSlow int

	kept      atomic.Int64
	discarded atomic.Int64
}

// slowTrace is one entry of the slowest list: a root's duration is
// final when the trace is submitted, so it is kept beside the record
// and ordering the list locks no record.
type slowTrace struct {
	rec *traceRec
	dur time.Duration
}

func newTraceStore(maxRecent, maxSlow int) *traceStore {
	return &traceStore{recent: make([]*traceRec, maxRecent), maxSlow: maxSlow}
}

func (st *traceStore) add(rec *traceRec, rootDur time.Duration) {
	st.kept.Add(1)
	st.mu.Lock()
	st.recent[st.next] = rec
	st.next++
	if st.next == len(st.recent) {
		st.next = 0
		st.filled = true
	}
	// Keep the slow list sorted; a trace slower than the current
	// slowest MaxSlow-th displaces it.
	i := sort.Search(len(st.slow), func(i int) bool { return st.slow[i].dur < rootDur })
	if i < st.maxSlow {
		st.slow = append(st.slow, slowTrace{})
		copy(st.slow[i+1:], st.slow[i:])
		st.slow[i] = slowTrace{rec, rootDur}
		if len(st.slow) > st.maxSlow {
			st.slow = st.slow[:st.maxSlow]
		}
	}
	st.mu.Unlock()
}

// TraceSummary is one stored trace in the /debug/traces JSON body.
type TraceSummary struct {
	TraceID    string     `json:"trace_id"`
	Root       string     `json:"root"`
	Start      time.Time  `json:"start"`
	DurationMs float64    `json:"duration_ms"`
	Error      bool       `json:"error,omitempty"`
	Sampled    bool       `json:"sampled"`
	Dropped    int        `json:"dropped_spans,omitempty"`
	Spans      []SpanData `json:"spans"`
}

// TracesSnapshot is the /debug/traces body: the most recent kept
// traces (newest first), the slowest, and the store's admission
// counters.
type TracesSnapshot struct {
	Kept      int64          `json:"kept"`
	Discarded int64          `json:"discarded"`
	Recent    []TraceSummary `json:"recent"`
	Slowest   []TraceSummary `json:"slowest"`
}

// summarize renders a stored trace: this is where a span's ids become
// text and its duration milliseconds, once per read of /debug/traces
// rather than once per span served.
func summarize(rec *traceRec) TraceSummary {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	root := &rec.root
	sum := TraceSummary{
		TraceID:    rec.traceHex,
		Root:       root.name,
		Start:      root.start,
		DurationMs: durationMs(root.dur),
		Error:      rec.errored,
		Sampled:    root.sc.Sampled,
		Dropped:    rec.dropped,
		Spans:      make([]SpanData, len(rec.spans)),
	}
	for i, s := range rec.spans {
		d := &sum.Spans[i]
		*d = SpanData{
			Name:       s.name,
			TraceID:    rec.traceHex,
			SpanID:     s.sc.SpanID.String(),
			Start:      s.start,
			DurationMs: durationMs(s.dur),
			Attrs:      s.attrs,
			Events:     s.events,
			Error:      s.failed,
			Status:     s.status,
		}
		if !s.parent.IsZero() {
			d.ParentID = s.parent.String()
		}
	}
	return sum
}

// Snapshot copies the store's current contents.
func (t *Tracer) Snapshot() TracesSnapshot {
	st := t.store
	st.mu.Lock()
	var recs []*traceRec
	// Newest first: walk the ring backwards from the write cursor.
	n := st.next
	if st.filled {
		n = len(st.recent)
	}
	for i := 0; i < n; i++ {
		idx := st.next - 1 - i
		if idx < 0 {
			idx += len(st.recent)
		}
		if st.recent[idx] != nil {
			recs = append(recs, st.recent[idx])
		}
	}
	slow := make([]*traceRec, len(st.slow))
	for i := range st.slow {
		slow[i] = st.slow[i].rec
	}
	st.mu.Unlock()

	snap := TracesSnapshot{
		Kept:      st.kept.Load(),
		Discarded: st.discarded.Load(),
		Recent:    make([]TraceSummary, 0, len(recs)),
		Slowest:   make([]TraceSummary, 0, len(slow)),
	}
	for _, r := range recs {
		snap.Recent = append(snap.Recent, summarize(r))
	}
	for _, r := range slow {
		snap.Slowest = append(snap.Slowest, summarize(r))
	}
	return snap
}

// Handler serves the store as JSON; mount at GET /debug/traces.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := json.NewEncoder(w).Encode(t.Snapshot()); err != nil {
			log.Printf("obs: writing traces: %v", err)
		}
	})
}
