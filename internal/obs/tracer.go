package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// TraceConfig sizes a Tracer. The zero value of any field selects its
// default.
type TraceConfig struct {
	// SampleEvery head-samples 1 of every N root traces. 1 (the
	// default) traces everything; negative disables head sampling so
	// only errored and slow traces are kept. Errored and slow traces
	// are always kept regardless of this verdict.
	SampleEvery int
	// SlowThreshold promotes any trace whose root span runs at least
	// this long into the store, sampled or not — the slow tail is
	// exactly what /debug/traces exists to explain. Default 250ms.
	SlowThreshold time.Duration
	// MaxTraces bounds the recent-traces ring. Default 128.
	MaxTraces int
	// MaxSlow bounds the slowest-traces list. Default 32.
	MaxSlow int
	// MaxSpansPerTrace caps spans buffered per trace; past it spans
	// are counted as dropped instead of stored. Default 256.
	MaxSpansPerTrace int
	// Now injects the clock; tests pin it. Default time.Now. A trace is
	// timed on its root's clock: an HTTP root's is its recorder's.
	Now func() time.Time
	// IDSeed, when non-zero, derives trace/span ids from a
	// deterministic counter instead of a random base — the test hook
	// for asserting exact ids. Production leaves it 0.
	IDSeed uint64
}

func (cfg TraceConfig) withDefaults() TraceConfig {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 128
	}
	if cfg.MaxSlow <= 0 {
		cfg.MaxSlow = 32
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = 256
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// Tracer creates spans and owns the bounded store of finished traces.
// Safe for concurrent use; one per process is the intended shape.
type Tracer struct {
	cfg   TraceConfig
	ids   idGen
	seq   atomic.Uint64 // root counter for head sampling
	store *traceStore
}

// NewTracer builds a tracer.
func NewTracer(cfg TraceConfig) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg, store: newTraceStore(cfg.MaxTraces, cfg.MaxSlow)}
	t.ids.init(cfg.IDSeed)
	return t
}

// headSample decides admission for a new root trace.
func (t *Tracer) headSample() bool {
	if t.cfg.SampleEvery < 0 {
		return false
	}
	if t.cfg.SampleEvery == 1 {
		return true
	}
	return t.seq.Add(1)%uint64(t.cfg.SampleEvery) == 1
}

// StartSpan starts a span under ctx: a child of ctx's active span when
// one exists, else a fresh root trace. The returned context is the
// span; pass it down so children nest and Inject propagates the right
// parent.
//
//paslint:hotpath once per span, several per request
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := spanFromContext(ctx); parent != nil {
		return t.startChild(ctx, parent, name, parent.rec.clock())
	}
	var fresh SpanContext // no remote parent
	s := t.startRoot(ctx, fresh, name, t.cfg.Now, t.cfg.Now())
	return s, s
}

// StartRequest starts the root span of an HTTP request to service, at
// the start rec's request shares (ResponseRecorder.Start, on the
// tracer's clock when nothing further out read it first) and timed on
// the clock that start was read with, continuing the traceparent the
// client sent. The span's name, "<service> <method> <path>", and its
// http.method, http.path and request.id attributes are rendered when
// the store is read, not per request.
//
//paslint:hotpath once per request
func (t *Tracer) StartRequest(rec *ResponseRecorder, r *http.Request, service, requestID string) (context.Context, *Span) {
	remote, _ := extract(r.Header)
	start := rec.Start(t.cfg.Now)
	s := t.startRoot(r.Context(), remote, service, rec.clock, start)
	h := &s.rec.http
	h.set, h.method, h.path, h.requestID = true, r.Method, r.URL.Path, requestID
	return s, s
}

// startChild starts a child of parent, the span active in ctx, at
// start.
func (t *Tracer) startChild(ctx context.Context, parent *Span, name string, start time.Time) (context.Context, *Span) {
	s := parent.rec.newChild()
	s.ctx, s.name, s.id = ctx, name, t.ids.spanID()
	s.parentID = parent.id
	s.start = start.Sub(s.rec.start)
	return s, s
}

// startRoot starts a trace at start, read from clock, and returns its
// root span, named name under ctx: a continuation of remote when it is
// valid — same trace id, remote span as parent, and the upstream sampling verdict
// honored (OR-ing in our own head sample would re-sample on every hop)
// — a fresh trace otherwise.
func (t *Tracer) startRoot(ctx context.Context, remote SpanContext, name string, clock func() time.Time, start time.Time) *Span {
	var s *Span
	if remote.valid() {
		s = t.newTrace(remote.TraceID, remote.Sampled, clock, start)
		s.parentID = remote.SpanID
	} else {
		s = t.newTrace(t.ids.traceID(), t.headSample(), clock, start)
	}
	s.ctx, s.name, s.id = ctx, name, t.ids.spanID()
	return s
}

// submit lands a trace whose root ended in the store when keep says to
// (head-sampled, errored or slow) and counts it discarded otherwise, so
// the sampling rate is observable.
func (t *Tracer) submit(rec *traceRec, keep bool) {
	if !keep {
		t.store.discarded.Add(1)
		return
	}
	t.store.add(rec, rec.root.dur)
}

// idGen derives trace and span ids from a random (or seeded) base and
// an atomic counter, mixed through SplitMix64 — unique, cheap, and
// lock-free, with no clock-seeded rand source anywhere.
type idGen struct {
	base uint64
	ctr  atomic.Uint64
}

func (g *idGen) init(seed uint64) {
	if seed != 0 {
		g.base = seed
		return
	}
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy pool is broken; a
		// fixed base keeps ids unique within the process (the counter
		// still advances), which is all tracing needs to limp along.
		g.base = 0x9e3779b97f4a7c15
		return
	}
	g.base = binary.LittleEndian.Uint64(b[:])
}

func (g *idGen) next() uint64 {
	// SplitMix64: a bijective mix of base+counter, so ids never
	// collide within a process and look uniformly random.
	z := g.base + g.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *idGen) traceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], g.next())
	binary.BigEndian.PutUint64(id[8:], g.next())
	if id.IsZero() {
		id[15] = 1 // the all-zero id is invalid per W3C
	}
	return id
}

func (g *idGen) spanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], g.next())
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// traceRec is one trace, in flight and then in the store, and the
// trace's one allocation: the root span, its trace id in hex, and room
// for the children, attributes and finished-span list of a cache miss
// are all inside it. All spans are buffered regardless of the
// head-sampling verdict so an error or a slow root can still promote the
// whole trace at the end.
type traceRec struct {
	tracer *Tracer
	mu     sync.Mutex
	// carved counts the children started; the first len(childBuf) of
	// them live in childBuf.
	carved  atomic.Int32
	sampled bool // the head-sampling verdict, the trace's own or its remote parent's
	errored bool
	nAttrs  uint8 // of attrBuf, handed out
	id      TraceID
	hex     [32]byte         // the trace id as every header and log line carries it
	clock   func() time.Time // the root's; every span and event of the trace reads it
	start   time.Time
	http    httpRoot
	spans   []*Span // ended spans, in the order they ended
	dropped int
	events  []spanEvent // in the order they were added

	root Span
	// spanBuf is where spans starts out: a cache miss is the root plus
	// four serving spans, so most traces never grow it.
	spanBuf [8]*Span
	// attrBuf is the room the spans' attributes start in (addAttr).
	attrBuf [4]Attr
	// childBuf holds the first children: a cache miss has four.
	childBuf [4]Span
}

// httpRoot is what StartRequest and EndRequest note of an HTTP root
// span; summarize renders the span's name and attributes from it.
type httpRoot struct {
	set                     bool
	method, path, requestID string
	status                  int
}

// spanEvent is one of a trace's events and the span it belongs to.
type spanEvent struct {
	span *Span
	Event
}

// newTrace starts a trace at start, read from clock, and returns its
// root span, which carries the head-sampling verdict for the trace.
func (t *Tracer) newTrace(id TraceID, sampled bool, clock func() time.Time, start time.Time) *Span {
	r := &traceRec{tracer: t, sampled: sampled, id: id, clock: clock, start: start}
	hex.Encode(r.hex[:], id[:])
	r.spans = r.spanBuf[:0]
	r.root.rec = r
	return &r.root
}

// traceHex is the trace id in hex. The string shares the record's
// bytes, which never change after newTrace wrote them, so rendering it
// once per trace costs no allocation of its own.
func (r *traceRec) traceHex() string { return unsafe.String(&r.hex[0], len(r.hex)) }

// heapSpan is a child past its record's room: it brings room for the
// two attributes the serving spans set at most, since the record's
// attribute room is spent by then too.
type heapSpan struct {
	Span
	attrBuf [2]Attr
}

// newChild returns a fresh child span of the trace: room in the record
// while it lasts, the heap after.
func (r *traceRec) newChild() *Span {
	// The load keeps carved from counting past the room (and from ever
	// wrapping) once it is spent.
	if r.carved.Load() < int32(len(r.childBuf)) {
		if i := r.carved.Add(1) - 1; i < int32(len(r.childBuf)) {
			s := &r.childBuf[i]
			s.rec = r
			return s
		}
	}
	h := &heapSpan{}
	h.rec = r
	h.attrs = h.attrBuf[:0]
	return &h.Span
}

// addAttr appends a to s's attributes; r.mu is held. A span's
// attributes start in the record's room and grow there while no other
// span has taken the slots after them; otherwise, or once the room is
// spent, append moves them to the heap.
func (r *traceRec) addAttr(s *Span, a Attr) {
	n := len(s.attrs)
	if n == cap(s.attrs) && int(r.nAttrs) < len(r.attrBuf) {
		// s's attributes can grow in place if they are empty, or are
		// the last ones handed out.
		if from := int(r.nAttrs) - n; from >= 0 && (n == 0 || &r.attrBuf[from] == &s.attrs[0]) {
			r.nAttrs++
			s.attrs = r.attrBuf[from:r.nAttrs:r.nAttrs]
			s.attrs[n] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}
