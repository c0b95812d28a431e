package obs

import (
	"encoding/json"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// traceStore holds finished traces: a ring of the most recent and a
// bounded list of the slowest. Memory is bounded by MaxTraces + MaxSlow
// kept records and the spans past their room: a record is 1,024 bytes
// with the root and four children inside it, a span past it 192. At the
// defaults the worst case is (128 + 32) × (1,024 + 251 × 192 B) ≈ 7.9
// MB, were every kept trace full; a cache miss's five spans fit in the
// record, so 160 of its traces are some 160 KB (150–180 KB of heap
// measured, with the request contexts their roots keep). Attributes and
// events past the record's room and their strings come on top; a trace
// holds at most MaxSpansPerTrace × maxEventsPerSpan events.
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
// text, its duration milliseconds, an HTTP root's name and attributes
// strings, and the trace's events each span's own, once per read of
// /debug/traces rather than once per span served.
func summarize(rec *traceRec) TraceSummary {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	root := &rec.root
	sum := TraceSummary{
		TraceID:    rec.traceHex(),
		Root:       rec.spanName(root),
		Start:      rec.start,
		DurationMs: durationMs(root.dur),
		Error:      rec.errored,
		Sampled:    rec.sampled,
		Dropped:    rec.dropped,
		Spans:      make([]SpanData, len(rec.spans)),
	}
	index := make(map[*Span]int, len(rec.spans)) // where each span's events go
	for i, s := range rec.spans {
		index[s] = i
		d := &sum.Spans[i]
		*d = SpanData{
			Name:       rec.spanName(s),
			TraceID:    sum.TraceID,
			SpanID:     s.id.String(),
			Start:      rec.start.Add(s.start),
			DurationMs: durationMs(s.dur),
			Attrs:      s.attrs,
			Error:      s.failed,
			Status:     s.status,
		}
		if !s.parentID.IsZero() {
			d.ParentID = s.parentID.String()
		}
		if s == root && rec.http.set {
			d.Attrs = rec.http.attrs(s.attrs)
		}
	}
	for j := range rec.events {
		e := &rec.events[j]
		if i, ok := index[e.span]; ok { // a span never ended shows no events
			sum.Spans[i].Events = append(sum.Spans[i].Events, e.Event)
		}
	}
	return sum
}

// spanName is s's name as /debug/traces shows it: an HTTP root's is
// "<service> <method> <path>".
func (rec *traceRec) spanName(s *Span) string {
	if s == &rec.root && rec.http.set {
		return s.name + " " + rec.http.method + " " + rec.http.path
	}
	return s.name
}

// attrs renders an HTTP root's attributes around the ones set on it:
// http.method, http.path and request.id first, http.status last, as
// the middleware once set them one by one.
func (h *httpRoot) attrs(set []Attr) []Attr {
	out := make([]Attr, 0, len(set)+4)
	out = append(out, Attr{"http.method", h.method}, Attr{"http.path", h.path}, Attr{"request.id", h.requestID})
	out = append(out, set...)
	if h.status != 0 {
		out = append(out, Attr{"http.status", strconv.Itoa(h.status)})
	}
	return out
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

// handler serves the store as JSON; mount at GET /debug/traces.
func (t *Tracer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := json.NewEncoder(w).Encode(t.Snapshot()); err != nil {
			log.Printf("obs: writing traces: %v", err)
		}
	})
}
