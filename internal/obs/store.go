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
// (MaxTraces + MaxSlow) × MaxSpansPerTrace spans.
type traceStore struct {
	mu      sync.Mutex
	recent  []*traceRec // ring, oldest overwritten first
	next    int
	filled  bool
	slow    []*traceRec // sorted by root duration, longest first
	maxSlow int

	kept      atomic.Int64
	discarded atomic.Int64
}

func newTraceStore(maxRecent, maxSlow int) *traceStore {
	return &traceStore{recent: make([]*traceRec, maxRecent), maxSlow: maxSlow}
}

func (st *traceStore) add(rec *traceRec) {
	st.kept.Add(1)
	rec.mu.Lock()
	dur := rec.rootDur
	rec.mu.Unlock()
	st.mu.Lock()
	st.recent[st.next] = rec
	st.next++
	if st.next == len(st.recent) {
		st.next = 0
		st.filled = true
	}
	// Keep the slow list sorted; a trace slower than the current
	// slowest MaxSlow-th displaces it.
	i := sort.Search(len(st.slow), func(i int) bool {
		st.slow[i].mu.Lock()
		d := st.slow[i].rootDur
		st.slow[i].mu.Unlock()
		return d < dur
	})
	if i < st.maxSlow {
		st.slow = append(st.slow, nil)
		copy(st.slow[i+1:], st.slow[i:])
		st.slow[i] = rec
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

func summarize(rec *traceRec) TraceSummary {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := TraceSummary{
		TraceID:    rec.traceHex,
		Root:       rec.rootName,
		Start:      rec.start,
		DurationMs: durationMs(rec.rootDur),
		Error:      rec.errored,
		Sampled:    rec.head,
		Dropped:    rec.dropped,
		Spans:      make([]SpanData, len(rec.spans)),
	}
	copy(s.Spans, rec.spans)
	return s
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
	copy(slow, st.slow)
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
