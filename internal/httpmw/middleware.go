// Package httpmw provides the HTTP middleware the PAS services
// (cmd/passerve, cmd/pasproxy, cmd/pasllm) run behind: panic recovery,
// request ids, distributed-trace roots, structured access logging,
// in-process request metrics, and the concurrency limiter that is
// cmd/pasllm's admission (the serving daemons admit in the serving
// core). It is the small operational layer that turns a handler into a
// service.
package httpmw

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Chain applies middlewares right-to-left: the first listed is outermost.
func Chain(h http.Handler, mws ...func(http.Handler) http.Handler) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// Recover converts a handler's panic into a logged 500 envelope. A panic
// after the response started, or http.ErrAbortHandler (a reverse proxy
// whose upstream died mid-body), becomes http.ErrAbortHandler instead,
// which the server answers by cutting the connection.
func Recover(logger *log.Logger) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := obs.WrapResponseWriter(w) // outermost: the recorder every layer shares
			defer func() {
				v := recover()
				if v != nil && v != http.ErrAbortHandler && logger != nil {
					logger.Printf("panic serving %s %s: %v", r.Method, r.URL.Path, v)
				}
				switch {
				case v == nil:
				case v == http.ErrAbortHandler || rec.Status() >= 200 || rec.BytesWritten() > 0:
					panic(http.ErrAbortHandler)
				default:
					rec.Header().Set("X-Content-Type-Options", "nosniff") // like the proxy's own envelopes
					writeJSONError(rec, http.StatusInternalServerError, "internal server error")
				}
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// requestIDHeader carries the per-request id.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen caps a client-supplied request id: it is echoed into
// the reply, the span and every log line, so like the tenant id it must
// not be the client's to make arbitrarily long.
const maxRequestIDLen = 128

// degradedHeader is the flag the serving layer sets on fail-open
// responses; the access log surfaces it so degradation is visible per
// request, not just in aggregate stats.
const degradedHeader = wire.DegradedHeader

// RequestID assigns a monotonically increasing request id when the
// client did not send a usable one — at most maxRequestIDLen bytes of
// visible ASCII — and echoes it on the response.
func RequestID() func(http.Handler) http.Handler {
	var counter atomic.Uint64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(requestIDHeader)
			if !usableRequestID(id) {
				var b [24]byte // "req-" and up to twenty digits
				id = string(appendRequestID(b[:0], counter.Add(1)))
				r.Header.Set(requestIDHeader, id)
			}
			w.Header().Set(requestIDHeader, id)
			next.ServeHTTP(w, r)
		})
	}
}

// usableRequestID reports whether a client-supplied id is safe to echo.
func usableRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// appendRequestID appends what fmt.Sprintf("req-%08d", n) returns.
//
//paslint:hotpath once per request
func appendRequestID(dst []byte, n uint64) []byte {
	dst = append(dst, "req-"...)
	for pad := uint64(10_000_000); pad > n && pad > 1; pad /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, n, 10)
}

// Trace starts the request's root span: a continuation of the
// traceparent the client sent when it is well-formed, a fresh trace
// otherwise (a malformed header is never inherited). The span is
// r.Context() downstream, so handler code can hang child spans off it
// with obs.StartSpan, and the access log can stamp lines with the trace
// id. Responses echo the trace id in a traceparent header so callers
// can correlate. The span starts and ends at the times the recorder
// shares with Logging and Metrics. A nil tracer disables tracing with
// zero per-request cost.
func Trace(tracer *obs.Tracer, service string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		if tracer == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := obs.WrapResponseWriter(w)
			ctx, span := tracer.StartRequest(rec, r, service, r.Header.Get(requestIDHeader))
			obs.Inject(ctx, rec.Header())
			next.ServeHTTP(rec, r.WithContext(ctx))

			status := rec.StatusOr200()
			// Any non-empty value is a degraded response; "1", raw
			// passthrough, is the only one this tree sends.
			if rec.Header().Get(degradedHeader) != "" {
				span.SetStatus("degraded")
			}
			if status >= 500 {
				span.SetError(fmt.Errorf("http status %d", status))
			}
			span.EndRequest(status, rec.End())
		})
	}
}

// accessLine is one structured access-log record, written as a single
// JSON line so log pipelines can parse fields instead of regexes.
type accessLine struct {
	RequestID string  `json:"req_id"`
	TraceID   string  `json:"trace_id,omitempty"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Status    int     `json:"status"`
	Bytes     int     `json:"bytes"`
	DurMs     float64 `json:"dur_ms"`
	Shed      bool    `json:"shed,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
	Degrade   string  `json:"degrade_level,omitempty"` // "1" (raw)
	Tenant    string  `json:"tenant,omitempty"`
}

// appendTo appends the bytes json.Marshal(l) returns, for a finite
// DurMs: the struct tags above are the declaration, this the writer,
// and FuzzAccessLine holds the two together.
//
//paslint:hotpath once per request
func (l *accessLine) appendTo(dst []byte) []byte {
	dst = wire.AppendField(append(dst, '{'), "req_id", l.RequestID)
	if l.TraceID != "" {
		dst = wire.AppendField(append(dst, ','), "trace_id", l.TraceID)
	}
	dst = wire.AppendField(append(dst, ','), "method", l.Method)
	dst = wire.AppendField(append(dst, ','), "path", l.Path)
	dst = strconv.AppendInt(append(dst, `,"status":`...), int64(l.Status), 10)
	dst = strconv.AppendInt(append(dst, `,"bytes":`...), int64(l.Bytes), 10)
	dst = appendJSONFloat(append(dst, `,"dur_ms":`...), l.DurMs)
	if l.Shed {
		dst = append(dst, `,"shed":true`...)
	}
	if l.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if l.Degrade != "" {
		dst = wire.AppendField(append(dst, ','), "degrade_level", l.Degrade)
	}
	if l.Tenant != "" {
		dst = wire.AppendField(append(dst, ','), "tenant", l.Tenant)
	}
	return append(dst, '}')
}

// appendJSONFloat appends a finite f as encoding/json spells a float64:
// the shortest decimal that reads back as f, in exponent form below
// 1e-6 and from 1e21 up, with the exponent's leading zero dropped.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 -> e-7
		dst = dst[:n-1]
	}
	return dst
}

// Logging writes one JSON access-log line per request: request id,
// trace id, status, latency, and the shed/degraded flags that make
// backpressure and fail-open visible per request.
func Logging(logger *log.Logger) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := obs.WrapResponseWriter(w)
			start := rec.Start(time.Now)
			next.ServeHTTP(rec, r)
			if logger == nil {
				return
			}
			status := rec.StatusOr200()
			level := rec.Header().Get(degradedHeader)
			tenant, resolved := rec.Tenant()
			if !resolved { // no Tenant middleware inside this one
				tenant = tenantFromRequest(r)
			}
			line := accessLine{
				RequestID: r.Header.Get(requestIDHeader),
				Method:    r.Method,
				Path:      r.URL.Path,
				Status:    status,
				Bytes:     rec.BytesWritten(),
				DurMs:     float64(rec.End().Sub(start).Microseconds()) / 1000,
				Shed:      status == http.StatusServiceUnavailable,
				Degraded:  level != "",
				Degrade:   level,
				Tenant:    tenant,
			}
			line.TraceID, _ = obs.TraceIDFromContext(r.Context())
			buf := wire.GetBuffer()
			buf.B = line.appendTo(buf.B)
			// One write per request, unbuffered: what was logged is what
			// survives a crash.
			_ = logger.Output(2, string(buf.B)) // a failing log sink has nowhere to be reported
			buf.Release()
		})
	}
}

// ConcurrencyLimit rejects requests beyond n in flight with 503 and a
// Retry-After hint, the standard backpressure for a model-serving
// endpoint. A request whose client has already disconnected releases
// its slot without running the handler, so a burst of abandoned
// requests cannot hold capacity hostage.
func ConcurrencyLimit(n int) func(http.Handler) http.Handler {
	return ConcurrencyLimitHint(n, nil)
}

// ConcurrencyLimitHint is ConcurrencyLimit with a dynamic Retry-After:
// each shed response prices its hint from retryAfter() — typically the
// serving core's queue-drain EWMA — instead of the fixed 1s. A nil
// retryAfter keeps the constant.
func ConcurrencyLimitHint(n int, retryAfter func() int) func(http.Handler) http.Handler {
	if n < 1 {
		n = 1
	}
	sem := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				if r.Context().Err() != nil {
					// Client gone before we started; don't burn the slot.
					// Nothing is sent, and the layers outside must not
					// read that as the implicit 200.
					if rec, ok := w.(*obs.ResponseRecorder); ok {
						rec.NoteStatus(obs.StatusClientClosedRequest)
					}
					return
				}
				next.ServeHTTP(w, r)
			default:
				hint := 1
				if retryAfter != nil {
					if h := retryAfter(); h > 0 {
						hint = h
					}
				}
				w.Header().Set("Retry-After", strconv.Itoa(hint))
				obs.AddEvent(r.Context(), "limiter.shed")
				writeJSONError(w, http.StatusServiceUnavailable, "server overloaded")
			}
		})
	}
}

// writeJSONError writes the envelope the PAS services use everywhere
// else, so limiter 503s and recovered panics' 500s are machine-parseable
// like every other error.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		log.Printf("httpmw: writing error response: %v", err)
	}
}

// maxPaths bounds the distinct values of the path label: the first
// maxPaths request paths seen keep their own series and every later one
// pools under otherPath — the overflow rule serving.Config.MaxTenants
// applies to tenants — because the path is chosen by the client.
const (
	maxPaths  = 64
	otherPath = "other"
)

// Metrics records request latency and errors by path, straight into the
// registry it is Registered on (before that its middleware records
// nothing): pas_http_request_duration_seconds, whose _count and _sum
// are the request count and total time and whose buckets carry trace-ID
// exemplars — a slow bucket on /metricsz?exemplars=1 names the exact
// trace to pull up in /debug/traces — and pas_http_errors_total.
type Metrics struct {
	hist obs.HistogramVec
	errs obs.CounterVec

	// paths caches the resolved children, copy-on-write: a request
	// loads the map and indexes it, so the steady state joins no labels
	// and takes no lock shared between paths; only the first request to
	// one of the first maxPaths paths takes mu, to publish a new map.
	paths atomic.Pointer[pathTable]
	other *pathSeries
	mu    sync.Mutex
}

// pathTable is one immutable generation of the children cache.
type pathTable struct{ byPath map[string]*pathSeries }

// pathSeries is one path's resolved children.
type pathSeries struct {
	hist obs.Histogram
	errs obs.Counter
}

// NewMetrics creates request metrics for Register to attach to a registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Register creates the two families on reg. Call it once, before
// serving traffic; storing the empty table is what publishes them.
func (m *Metrics) Register(reg *obs.Registry) {
	m.hist = reg.HistogramVec("pas_http_request_duration_seconds",
		"HTTP request latency, by path.", obs.DefaultLatencyBuckets, "path")
	m.errs = reg.CounterVec("pas_http_errors_total",
		"HTTP responses with status >= 400, by path.", "path")
	m.other = &pathSeries{m.hist.With(otherPath), m.errs.With(otherPath)}
	m.paths.Store(&pathTable{})
}

// series returns path's children, or nil before Register.
func (m *Metrics) series(path string) *pathSeries {
	t := m.paths.Load()
	if t == nil {
		return nil
	}
	if ps := t.byPath[path]; ps != nil {
		return ps
	}
	if len(t.byPath) >= maxPaths {
		return m.other
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t = m.paths.Load() // another first request may have published since
	if ps := t.byPath[path]; ps != nil {
		return ps
	}
	if len(t.byPath) >= maxPaths {
		return m.other
	}
	grown := make(map[string]*pathSeries, len(t.byPath)+1)
	for p, ps := range t.byPath {
		grown[p] = ps
	}
	ps := &pathSeries{m.hist.With(path), m.errs.With(path)}
	grown[path] = ps
	m.paths.Store(&pathTable{grown})
	return ps
}

// Middleware records every request. When the request context carries a
// sampled span (Metrics sits inside the Trace middleware in every
// daemon's chain), the latency observation also attaches that trace id
// as the histogram bucket's exemplar.
func (m *Metrics) Middleware() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := obs.WrapResponseWriter(w)
			start := rec.Start(time.Now)
			next.ServeHTTP(rec, r)
			dur := rec.End().Sub(start)
			ps := m.series(r.URL.Path)
			if ps == nil {
				return
			}
			// A 499 is a note that the client left, not a response.
			if s := rec.StatusOr200(); s >= 400 && s != obs.StatusClientClosedRequest {
				ps.errs.Inc()
			}
			traceID, sampled := obs.TraceIDFromContext(r.Context())
			if !sampled {
				traceID = ""
			}
			ps.hist.ObserveExemplar(dur.Seconds(), traceID)
		})
	}
}
