package obs

import (
	"context"
	"slices"
	"strconv"
	"time"
)

// Attr is one key/value span or event attribute. Values are strings;
// callers format numbers.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time annotation inside a span: a retry attempt,
// a cache verdict, a hedge launch.
type Event struct {
	// Name identifies the event, dot-namespaced ("retry.backoff").
	Name string `json:"name"`
	// AtMs is the offset from the span's start, in milliseconds.
	AtMs float64 `json:"at_ms"`
	// Attrs carries the event's key/value details.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Span is one timed operation inside a trace. Create spans with
// Tracer.StartSpan (roots) or StartSpan (children); a nil *Span is
// valid and every method on it is a no-op, so instrumentation never
// branches on whether tracing is enabled.
//
// A span is also the context.Context its children are started under:
// the context it was started under, plus itself. A span lives in its
// trace's record — the root always, a child while the record has room —
// or on the heap, and is never reused, so a context that outlives its
// request keeps pointing at its own span and trace.
//
// The fields from attrs down are guarded by the record's mutex. End
// stamps dur, sets ended and appends the span to the record, after
// which nothing writes to them again, so whoever finds the span in
// rec.spans reads it as it ended.
type Span struct {
	ctx      context.Context
	rec      *traceRec
	id       SpanID
	parentID SpanID // zero on a root that continues no remote trace
	name     string
	start    time.Duration // since the trace's start
	dur      time.Duration

	attrs   []Attr
	status  string
	failed  bool
	ended   bool
	nEvents uint8 // this span's entries in rec.events
}

// Deadline, Done, Err and Value make a span the context its children
// see: the context it was started under, which answers everything but
// the span's own key.
func (s *Span) Deadline() (time.Time, bool) { return s.ctx.Deadline() }

// Done is the done channel of the context the span was started under.
func (s *Span) Done() <-chan struct{} { return s.ctx.Done() }

// Err is the error of the context the span was started under.
func (s *Span) Err() error { return s.ctx.Err() }

// Value is the span for the span key, else the started-under context's.
func (s *Span) Value(key any) any {
	if key == spanCtxKey {
		return s
	}
	return s.ctx.Value(key)
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.id, SpanID: s.id, Sampled: s.rec.sampled}
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if !s.ended {
		r.addAttr(s, Attr{Key: key, Value: value})
	}
	r.mu.Unlock()
}

// SetAttrBool records a boolean attribute on the span.
func (s *Span) SetAttrBool(key string, value bool) {
	s.SetAttr(key, strconv.FormatBool(value))
}

// addEvent appends an event at the current time; kv lists attribute
// key/value pairs (a trailing odd key gets an empty value).
func (s *Span) addEvent(name string, kv ...string) {
	if s == nil {
		return
	}
	r := s.rec
	at := r.clock().Sub(r.start) - s.start
	ev := Event{Name: name, AtMs: durationMs(at)}
	for i := 0; i < len(kv); i += 2 {
		a := Attr{Key: kv[i]}
		if i+1 < len(kv) {
			a.Value = kv[i+1]
		}
		ev.Attrs = append(ev.Attrs, a)
	}
	r.mu.Lock()
	if !s.ended && s.nEvents < maxEventsPerSpan && len(r.events) < r.tracer.cfg.MaxSpansPerTrace*maxEventsPerSpan {
		s.nEvents++
		r.events = append(r.events, spanEvent{s, ev})
	}
	r.mu.Unlock()
}

// SetError marks the span failed and records the error message. An
// errored span forces its whole trace to be kept regardless of the
// head-sampling verdict.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if !s.ended {
		s.failed = true
		s.status = err.Error()
	}
	r.errored = true
	r.mu.Unlock()
}

// SetStatus records a human-readable outcome without marking the span
// failed ("degraded", "cache_hit").
func (s *Span) SetStatus(msg string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if !s.ended {
		s.status = msg
	}
	s.rec.mu.Unlock()
}

// End finishes the span now, on the trace's clock; see EndAt.
//
//paslint:hotpath once per span, several per request
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.rec.clock())
}

// EndAt finishes the span at end, a time its caller read from the
// trace's clock (see StartSpanAt), and adds it to the trace record; the
// root span's EndAt also submits the trace to the store. It is idempotent; spans left un-ended simply
// never appear in the store.
//
//paslint:hotpath once per span, several per request
func (s *Span) EndAt(end time.Time) { s.end(end, 0) }

// EndRequest finishes an HTTP root span (Tracer.StartRequest) at end
// with the status the client read. Like the span's name, the
// http.status attribute is rendered from it when the store is read.
//
//paslint:hotpath once per request
func (s *Span) EndRequest(status int, end time.Time) { s.end(end, status) }

// end is EndAt and EndRequest: one lock ends the span, records it and,
// on the root, decides whether the store keeps the trace.
func (s *Span) end(end time.Time, httpStatus int) {
	if s == nil {
		return
	}
	r := s.rec
	root := s == &r.root
	r.mu.Lock()
	if s.ended {
		r.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = end.Sub(r.start) - s.start
	if httpStatus != 0 {
		r.http.status = httpStatus
	}
	if len(r.spans) < r.tracer.cfg.MaxSpansPerTrace {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
		if s.nEvents > 0 { // a dropped span takes its events with it
			r.events = slices.DeleteFunc(r.events, func(e spanEvent) bool { return e.span == s })
		}
	}
	keep := root && (r.sampled || r.errored || s.dur >= r.tracer.cfg.SlowThreshold)
	r.mu.Unlock()
	if root {
		r.tracer.submit(r, keep)
	}
}

// maxEventsPerSpan bounds per-span event growth; a runaway retry loop
// must not turn one span into an unbounded allocation. A trace holds at
// most MaxSpansPerTrace times as many, open spans' included.
const maxEventsPerSpan = 64

// SpanData is a finished span as the /debug/traces JSON body shows it;
// summarize builds one per span when the store is read.
type SpanData struct {
	Name       string    `json:"name"`
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Events     []Event   `json:"events,omitempty"`
	Error      bool      `json:"error,omitempty"`
	Status     string    `json:"status,omitempty"`
}

func durationMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
