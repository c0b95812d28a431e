package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
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
	// Now injects the clock; tests pin it. Default time.Now.
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

func (t *Tracer) now() time.Time { return t.cfg.Now() }

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
// one exists, else a local root continuing a remote parent recorded by
// ContextWithRemote, else a brand-new root trace. The returned context
// carries the span; pass it down so children nest and Inject
// propagates the right parent.
//
//paslint:hotpath once per span, several per request
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	now := t.cfg.Now()
	var s *Span
	if parent := spanFromContext(ctx); parent != nil && parent.rec != nil {
		c := &childSpan{}
		s = &c.Span
		s.attrs = c.attrBuf[:0]
		s.rec = parent.rec
		s.sc.TraceID = parent.sc.TraceID
		s.sc.Sampled = parent.sc.Sampled
		s.parent = parent.sc.SpanID
	} else if remote, ok := remoteFromContext(ctx); ok {
		// Continue the distributed trace: same trace id, remote span as
		// parent. The upstream sampling verdict is honored (OR-ing in
		// our own head sample would re-sample on every hop).
		s = newTraceRec(remote.TraceID, remote.Sampled)
		s.parent = remote.SpanID
	} else {
		s = newTraceRec(t.ids.traceID(), t.headSample())
	}
	s.tracer, s.name, s.start = t, name, now
	s.sc.SpanID = t.ids.spanID()
	return context.WithValue(ctx, spanCtxKey, s), s
}

// submit applies the keep policy when a root span ends: head-sampled,
// errored, or slow traces land in the store; the rest are discarded
// (counted, so the sampling rate is observable).
func (t *Tracer) submit(rec *traceRec, rootDur time.Duration) {
	rec.mu.Lock()
	keep := rec.root.sc.Sampled || rec.errored || rootDur >= t.cfg.SlowThreshold
	rec.mu.Unlock()
	if !keep {
		t.store.discarded.Add(1)
		return
	}
	t.store.add(rec, rootDur)
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

// traceRec buffers the spans of one trace, in flight and then in the
// store. All spans are buffered regardless of the head-sampling verdict
// so an error or a slow root can still promote the whole trace at the
// end. The record is the trace's one allocation besides its id's text:
// the root span, the room for its attributes and the room for the span
// list are all inside it.
type traceRec struct {
	mu       sync.Mutex
	traceHex string  // the trace id, rendered once for every header and log line that carries it
	spans    []*Span // ended spans, in the order they ended
	dropped  int
	errored  bool

	root Span
	// rootAttrs is where root.attrs starts out: the HTTP root sets four.
	rootAttrs [4]Attr
	// spanBuf is where spans starts out: a cache miss is the root plus
	// four serving spans, so most traces never grow it.
	spanBuf [8]*Span
}

// newTraceRec starts a trace and returns its root span, which carries
// the head-sampling verdict for the whole trace.
func newTraceRec(id TraceID, sampled bool) *Span {
	r := &traceRec{traceHex: id.String()}
	r.spans = r.spanBuf[:0]
	r.root.rec = r
	r.root.attrs = r.rootAttrs[:0]
	r.root.sc.TraceID = id
	r.root.sc.Sampled = sampled
	return &r.root
}

// addSpan takes an ended span into the record.
func (r *traceRec) addSpan(s *Span, maxSpans int) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	if s.failed {
		r.errored = true
	}
	r.mu.Unlock()
}

func (r *traceRec) noteError() {
	r.mu.Lock()
	r.errored = true
	r.mu.Unlock()
}
