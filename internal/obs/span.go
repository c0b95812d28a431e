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
type Span struct {
	tracer *Tracer
	rec    *traceRec
	sc     SpanContext
	name   string
	start  time.Time
	root   bool

	// The ids as /debug/traces and traceparent spell them. A span
	// renders its own once, when it starts, and takes its parent's from
	// the parent; the trace's is on rec.
	spanHex, parentHex string

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	failed bool
	status string
	ended  bool

	// attrBuf is where attrs starts out: the HTTP root span sets four
	// and the serving spans fewer, so most spans never grow it.
	attrBuf [4]Attr
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

// AddEvent appends an event at the current time; kv lists attribute
// key/value pairs (a trailing odd key gets an empty value).
func (s *Span) AddEvent(name string, kv ...string) {
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

// End finishes the span and hands its data to the trace record; the
// root span's End also submits the trace to the store. End is
// idempotent; spans left un-ended simply never appear in the store.
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
	data := SpanData{
		Name:       s.name,
		SpanID:     s.spanHex,
		ParentID:   s.parentHex,
		Start:      s.start,
		DurationMs: durationMs(end.Sub(s.start)),
		Attrs:      s.attrs,
		Events:     s.events,
		Error:      s.failed,
		Status:     s.status,
	}
	s.mu.Unlock()
	if s.rec == nil {
		return
	}
	data.TraceID = s.rec.traceHex
	s.rec.addSpan(data)
	if s.root {
		s.rec.finishRoot(data)
		s.tracer.submit(s.rec)
	}
}

// maxEventsPerSpan bounds per-span event growth; a runaway retry loop
// must not turn one span into an unbounded allocation.
const maxEventsPerSpan = 64

// SpanData is the immutable record of a finished span, shaped for the
// /debug/traces JSON body.
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
