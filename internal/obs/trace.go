package obs

import (
	"context"
	"encoding/hex"
	"net/http"
	"time"
)

// TraceID identifies one request's journey across every service hop.
type TraceID [16]byte

// String returns the 32-char lowercase hex form used on the wire.
func (t TraceID) String() string {
	var b [2 * len(t)]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one operation within a trace.
type SpanID [8]byte

// String returns the 16-char lowercase hex form used on the wire.
func (s SpanID) String() string {
	var b [2 * len(s)]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated part of a span: enough to parent remote
// children and to carry the sampling decision downstream.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the upstream head-sampling verdict. A downstream hop
	// honors it so one user request is either traced on every hop or on
	// none (error/slow promotion can still keep an unsampled trace).
	Sampled bool
}

// valid reports whether both ids are non-zero, per the W3C invariants.
func (sc SpanContext) valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// TraceparentHeader is the W3C Trace Context header name, spelled the
// way net/http keys it, so extract indexes a header with it directly,
// and a Get or Set with it allocates no canonical copy.
const TraceparentHeader = "Traceparent"

// traceparent renders the context as a version-00 traceparent value:
// "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>", built in one
// buffer so the string is the only allocation.
func (sc SpanContext) traceparent() string {
	b := [55]byte{0: '0', 1: '0', 2: '-', 35: '-', 52: '-', 53: '0', 54: '0'}
	hex.Encode(b[3:35], sc.TraceID[:])
	hex.Encode(b[36:52], sc.SpanID[:])
	if sc.Sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// any known-length version except the forbidden 0xff, and rejects
// malformed fields and all-zero ids, per the spec: a malformed header
// means the caller must start a fresh root trace.
func ParseTraceparent(v string) (SpanContext, bool) {
	// Fixed layout: 2 (version) + 1 + 32 (trace id) + 1 + 16 (span id)
	// + 1 + 2 (flags) = 55 bytes. Future versions may append fields
	// after the flags, separated by a dash.
	if len(v) < 55 {
		return SpanContext{}, false
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	version, ok := hexByte(v[0:2])
	if !ok || version == 0xff {
		return SpanContext{}, false
	}
	if len(v) > 55 && (version == 0 || v[55] != '-') {
		// Version 00 is exactly 55 bytes; later versions may carry
		// dash-separated extras.
		return SpanContext{}, false
	}
	var sc SpanContext
	if !decodeLowerHex(sc.TraceID[:], v[3:35]) {
		return SpanContext{}, false
	}
	if !decodeLowerHex(sc.SpanID[:], v[36:52]) {
		return SpanContext{}, false
	}
	flags, ok := hexByte(v[53:55])
	if !ok {
		return SpanContext{}, false
	}
	sc.Sampled = flags&0x01 != 0
	if !sc.valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// decodeLowerHex fills dst from exactly len(dst)*2 lowercase hex
// digits; the spec forbids uppercase in traceparent, which is why
// hex.Decode (which accepts both cases) is not used here.
func decodeLowerHex(dst []byte, s string) bool {
	for i := range dst {
		b, ok := hexByte(s[2*i : 2*i+2])
		if !ok {
			return false
		}
		dst[i] = b
	}
	return true
}

// hexByte decodes exactly two lowercase hex digits (the spec forbids
// uppercase in traceparent).
func hexByte(s string) (byte, bool) {
	hi, ok1 := hexNibble(s[0])
	lo, ok2 := hexNibble(s[1])
	return hi<<4 | lo, ok1 && ok2
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ctxKey keys the span in a context's values.
type ctxKey int

const spanCtxKey ctxKey = 0

// spanFromContext returns the span active in ctx, or nil. The nil span
// is fully usable: every method is a no-op. A span's children are
// started under the span itself, so most lookups end at the assertion.
func spanFromContext(ctx context.Context) *Span {
	if s, ok := ctx.(*Span); ok {
		return s
	}
	s, _ := ctx.Value(spanCtxKey).(*Span)
	return s
}

// TraceIDFromContext returns the hex trace id of the span active in ctx,
// "" when there is none, and the sampling verdict that travels with it:
// the string the trace rendered once when it began, which the access
// log and the latency exemplar stamp on every request.
//
//paslint:hotpath read by the access log and the exemplar on every request
func TraceIDFromContext(ctx context.Context) (traceHex string, sampled bool) {
	if s := spanFromContext(ctx); s != nil {
		return s.rec.traceHex(), s.rec.sampled
	}
	return "", false
}

// StartSpan starts a child of the span active in ctx. When ctx carries
// no span (tracing disabled or this request was never admitted to a
// trace) it returns ctx unchanged and a nil span, whose methods all
// no-op — instrumented code needs no tracing-enabled check.
//
// Root spans are started by a Tracer (Tracer.StartRequest in the HTTP
// middleware, Tracer.StartSpan elsewhere); everything below uses this
// function.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := spanFromContext(ctx); parent != nil {
		return parent.rec.tracer.startChild(ctx, parent, name, parent.rec.clock())
	}
	return ctx, nil
}

// StartSpanAt is StartSpan for a caller that has just read the time
// itself: the span starts at start instead of at a second reading.
// start must come from the trace's clock (TraceConfig.Now says which).
//
//paslint:hotpath once per span, several per request
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	parent := spanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.rec.tracer.startChild(ctx, parent, name, start)
}

// AddEvent appends a point-in-time event to the span active in ctx;
// kv lists attribute key/value pairs. No-op without an active span.
func AddEvent(ctx context.Context, name string, kv ...string) {
	spanFromContext(ctx).addEvent(name, kv...)
}

// Inject writes the active span's context into h as a traceparent
// header, propagating the trace to the next hop. No-op when ctx carries
// no span.
//
//paslint:hotpath once per response and once per outgoing hop
func Inject(ctx context.Context, h http.Header) {
	if sc := spanFromContext(ctx).Context(); sc.valid() {
		h.Set(TraceparentHeader, sc.traceparent())
	}
}

// extract reads a span context from an incoming request's headers.
// A missing or malformed traceparent returns ok=false: the caller
// starts a fresh root trace, never inherits garbage.
func extract(h http.Header) (SpanContext, bool) {
	if v := h[TraceparentHeader]; len(v) > 0 {
		return ParseTraceparent(v[0])
	}
	return SpanContext{}, false
}
