package obs

import (
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value span or event attribute. Values are strings;
// callers format numbers (SetAttrInt helps with the common case).
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
// A span is its own finished record: End stamps dur, sets ended and
// appends the span itself to its trace, after which nothing writes to it
// again, so whoever finds it in rec.spans (under rec.mu) reads it
// without mu. It is never reused — a context that outlives its request
// keeps pointing at the span it was given.
type Span struct {
	tracer *Tracer
	rec    *traceRec
	sc     SpanContext
	parent SpanID // zero on a root that continues no remote trace
	// failed and ended are guarded by mu like the fields below it; they
	// sit here, in the padding after the ids, so that a child span with
	// its attribute room is 240 bytes, which is an allocation size class.
	failed bool
	ended  bool
	name   string
	start  time.Time
	dur    time.Duration

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	status string
}

// childSpan is how a span below the root is allocated: with room for
// the two attributes the serving spans set at most. The root's room is
// in its traceRec.
type childSpan struct {
	Span
	attrBuf [2]Attr
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// SetAttrInt records an integer attribute on the span.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
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
	at := s.tracer.now().Sub(s.start)
	ev := Event{Name: name, AtMs: durationMs(at)}
	for i := 0; i < len(kv); i += 2 {
		a := Attr{Key: kv[i]}
		if i+1 < len(kv) {
			a.Value = kv[i+1]
		}
		ev.Attrs = append(ev.Attrs, a)
	}
	s.mu.Lock()
	if !s.ended && len(s.events) < maxEventsPerSpan {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// SetError marks the span failed and records the error message. An
// errored span forces its whole trace to be kept regardless of the
// head-sampling verdict.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.failed = true
		s.status = err.Error()
	}
	s.mu.Unlock()
	if s.rec != nil {
		s.rec.noteError()
	}
}

// SetStatus records a human-readable outcome without marking the span
// failed ("degraded", "cache_hit").
func (s *Span) SetStatus(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.status = msg
	}
	s.mu.Unlock()
}

// End finishes the span and adds it to the trace record; the root
// span's End also submits the trace to the store. End is idempotent;
// spans left un-ended simply never appear in the store.
//
//paslint:hotpath once per span, several per request
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = end.Sub(s.start)
	s.mu.Unlock()
	s.rec.addSpan(s, s.tracer.cfg.MaxSpansPerTrace)
	if s == &s.rec.root {
		s.tracer.submit(s.rec, s.dur)
	}
}

// maxEventsPerSpan bounds per-span event growth; a runaway retry loop
// must not turn one span into an unbounded allocation.
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
