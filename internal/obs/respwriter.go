package obs

import (
	"net/http"
	"time"
)

// ResponseRecorder is the one response-writer wrapper the whole stack
// shares: it captures the status code and byte count for logging,
// metrics, and tracing, and when the request started and ended, so the
// three read the clock once at each end between them.
// WrapResponseWriter returns an existing recorder unchanged, so a
// middleware chain wraps each request exactly once and every layer
// reads the same record — the pre-obs stack wrapped twice (logging and
// metrics each had a private copy) and the two could disagree.
type ResponseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int

	tenant         string
	tenantResolved bool

	clock      func() time.Time // the one Start was first called with
	start, end time.Time
}

// WrapResponseWriter wraps w, or returns it as-is when it is already a
// recorder from an outer middleware.
func WrapResponseWriter(w http.ResponseWriter) *ResponseRecorder {
	if rr, ok := w.(*ResponseRecorder); ok {
		return rr
	}
	return &ResponseRecorder{ResponseWriter: w}
}

// WriteHeader forwards the status code and records it when it is the
// final one. An informational 1xx (103 Early Hints) goes out ahead of
// the response, which still commits later, explicitly or by a first
// Write, so it is not the status the client reads. 101 Switching
// Protocols is final, as net/http treats it.
func (rr *ResponseRecorder) WriteHeader(code int) {
	if code >= 200 || code == http.StatusSwitchingProtocols {
		rr.status = code
	}
	rr.ResponseWriter.WriteHeader(code)
}

// Write forwards the body bytes, recording the implicit 200 commit on
// a first write without an explicit WriteHeader.
func (rr *ResponseRecorder) Write(p []byte) (int, error) {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	n, err := rr.ResponseWriter.Write(p)
	rr.bytes += n
	return n, err
}

// StatusClientClosedRequest is the conventional (nginx) code for a
// request its client abandoned before it was answered. It is recorded
// with NoteStatus, never sent.
const StatusClientClosedRequest = 499

// NoteStatus records code as the request's outcome without sending
// anything: for a request nobody is left to answer (499, the client
// closed it), so the log line, the span and the metrics do not read the
// silence as the implicit 200.
func (rr *ResponseRecorder) NoteStatus(code int) { rr.status = code }

// NoteTenant records the tenant id the request resolved to ("" for the
// anonymous default), so a middleware further out reads it instead of
// resolving the request's credentials a second time.
func (rr *ResponseRecorder) NoteTenant(id string) { rr.tenant, rr.tenantResolved = id, true }

// Tenant returns the noted tenant id; ok is false when nothing inside
// this recorder resolved one.
func (rr *ResponseRecorder) Tenant() (id string, ok bool) { return rr.tenant, rr.tenantResolved }

// Start returns when the request started. The first call, from the
// outermost middleware that times the request, reads now; every later
// one returns that reading, and End reads the same clock, as does the
// request's trace (Tracer.StartRequest). The daemons' are all time.Now.
//
//paslint:hotpath once per timing middleware per request
func (rr *ResponseRecorder) Start(now func() time.Time) time.Time {
	if rr.clock == nil {
		rr.clock, rr.start = now, now()
	}
	return rr.start
}

// End returns when the request's handler returned: the first call
// after Start, from the innermost timing middleware once its handler is
// done, reads the clock Start was given; every later one returns that
// reading.
//
//paslint:hotpath once per timing middleware per request
func (rr *ResponseRecorder) End() time.Time {
	if rr.end.IsZero() {
		rr.end = rr.clock()
	}
	return rr.end
}

// Unwrap lets an http.ResponseController reach the connection's
// deadlines through the recorder.
func (rr *ResponseRecorder) Unwrap() http.ResponseWriter { return rr.ResponseWriter }

// Flush forwards flushing so SSE streaming keeps working through the
// middleware stack; like a first Write, it records the implicit 200.
func (rr *ResponseRecorder) Flush() {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	if f, ok := rr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded status, 0 when nothing was written yet.
func (rr *ResponseRecorder) Status() int { return rr.status }

// StatusOr200 returns the recorded status, reading the
// nothing-written-yet state as the implicit 200 net/http will send.
// It never mutates the recorder.
func (rr *ResponseRecorder) StatusOr200() int {
	if rr.status == 0 {
		return http.StatusOK
	}
	return rr.status
}

// BytesWritten returns the number of body bytes written so far.
func (rr *ResponseRecorder) BytesWritten() int { return rr.bytes }
