package httpmw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
}

func TestChainOrder(t *testing.T) {
	var order []string
	mw := func(name string) func(http.Handler) http.Handler {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(okHandler(), mw("outer"), mw("inner"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestRecoverTurnsPanicInto500(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), Recover(logger))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q on a JSON envelope", ct)
	}
	if got, want := rec.Body.String(), `{"error":"internal server error"}`+"\n"; got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
	if !strings.Contains(buf.String(), "boom") {
		t.Fatal("panic not logged")
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	h := Chain(okHandler(), RequestID())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	id := rec.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("no request id assigned")
	}
	// Client-supplied ids are preserved.
	rec2 := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-Id", "client-id-7")
	h.ServeHTTP(rec2, req)
	if got := rec2.Header().Get("X-Request-Id"); got != "client-id-7" {
		t.Fatalf("client id not preserved: %q", got)
	}
	// Distinct requests get distinct ids.
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, httptest.NewRequest("GET", "/", nil))
	if rec3.Header().Get("X-Request-Id") == id {
		t.Fatal("request ids not unique")
	}
}

func TestLoggingWritesJSONAccessLine(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	tracer := obs.NewTracer(obs.TraceConfig{IDSeed: 7})
	h := Chain(okHandler(), RequestID(), Trace(tracer, "test"), Logging(logger))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/augment", nil))

	var line accessLine
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &line); err != nil {
		t.Fatalf("access line is not JSON: %v (line %q)", err, buf.String())
	}
	if line.Method != "GET" || line.Path != "/v1/augment" || line.Status != 200 {
		t.Fatalf("access line = %+v", line)
	}
	if line.RequestID == "" {
		t.Fatal("access line missing request id")
	}
	if line.TraceID == "" {
		t.Fatal("access line missing trace id")
	}
	if line.Bytes != 2 || line.DurMs < 0 {
		t.Fatalf("access line = %+v, want 2 bytes and non-negative latency", line)
	}
	if line.Shed || line.Degraded {
		t.Fatalf("clean 200 flagged shed/degraded: %+v", line)
	}
	// The logged trace id matches the stored trace.
	snap := tracer.Snapshot()
	if len(snap.Recent) != 1 || snap.Recent[0].TraceID != line.TraceID {
		t.Fatalf("log trace id %q not in store %+v", line.TraceID, snap.Recent)
	}
}

// TestLoggingFlagsShedAndDegraded: the two operational flags must be
// visible per request, not just in aggregate stats.
func TestLoggingFlagsShedAndDegraded(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)

	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-PAS-Degraded", "1")
		fmt.Fprint(w, "raw prompt")
	}), Logging(logger))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/augment", nil))
	var line accessLine
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Degraded || line.Shed {
		t.Fatalf("degraded response logged as %+v", line)
	}

	buf.Reset()
	h = Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSONError(w, http.StatusServiceUnavailable, "server overloaded")
	}), Logging(logger))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/augment", nil))
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Shed || line.Status != http.StatusServiceUnavailable {
		t.Fatalf("shed response logged as %+v", line)
	}
}

// TestTraceMiddleware covers the root-span lifecycle: a fresh trace
// when the client sent nothing, a continuation when it sent a valid
// traceparent, and a fresh root — never inheritance — on garbage.
func TestTraceMiddleware(t *testing.T) {
	tracer := obs.NewTracer(obs.TraceConfig{IDSeed: 11})
	var childTrace string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, span := obs.StartSpan(r.Context(), "work")
		childTrace = span.Context().TraceID.String()
		span.End()
		fmt.Fprint(w, "ok")
	}), RequestID(), Trace(tracer, "svc"))

	// No traceparent: fresh root, echoed on the response.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/augment", nil))
	echoed, ok := obs.ParseTraceparent(rec.Header().Get(obs.TraceparentHeader))
	if !ok {
		t.Fatalf("response traceparent %q unparseable", rec.Header().Get(obs.TraceparentHeader))
	}
	if echoed.TraceID.String() != childTrace {
		t.Fatalf("handler child trace %s != echoed %s", childTrace, echoed.TraceID)
	}
	snap := tracer.Snapshot()
	if len(snap.Recent) != 1 || len(snap.Recent[0].Spans) != 2 {
		t.Fatalf("want 1 trace with root+child, got %+v", snap.Recent)
	}

	// Valid upstream traceparent: same trace id continues.
	upstream := "00-aaaabbbbccccddddeeeeffff00001111-1234567890abcdef-01"
	req := httptest.NewRequest("GET", "/v1/augment", nil)
	req.Header.Set(obs.TraceparentHeader, upstream)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if childTrace != "aaaabbbbccccddddeeeeffff00001111" {
		t.Fatalf("continuation trace id = %s, want upstream's", childTrace)
	}

	// Malformed traceparent: fresh root, never inherited.
	req = httptest.NewRequest("GET", "/v1/augment", nil)
	req.Header.Set(obs.TraceparentHeader, "00-GARBAGE-1234567890abcdef-01")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if childTrace == "aaaabbbbccccddddeeeeffff00001111" || childTrace == "" {
		t.Fatalf("malformed traceparent inherited: trace id %s", childTrace)
	}

	// A 5xx marks the trace errored so it is always kept.
	boom := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusBadGateway)
	}), Trace(tracer, "svc"))
	boom.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	snap = tracer.Snapshot()
	found := false
	for _, tr := range snap.Recent {
		if tr.Error {
			found = true
		}
	}
	if !found {
		t.Fatal("5xx did not mark its trace errored")
	}
}

// TestTraceNilTracerPassthrough: tracing disabled must cost nothing and
// change nothing.
func TestTraceNilTracerPassthrough(t *testing.T) {
	h := okHandler()
	got := Trace(nil, "svc")(h)
	if reflect.ValueOf(got).Pointer() != reflect.ValueOf(h).Pointer() {
		t.Fatal("nil tracer did not return the handler unchanged")
	}
}

func TestConcurrencyLimitSheds(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		fmt.Fprint(w, "done")
	})
	h := Chain(slow, ConcurrencyLimit(1))
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := srv.Client().Get(srv.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // first request is in flight

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("503 without Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("shed response content type = %q, want JSON envelope", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"error"`) {
		t.Fatalf("shed body = %q, want error envelope", body)
	}
	close(release)
	wg.Wait()
}

// TestConcurrencyLimitSkipsCancelledClients: a request whose client
// disconnected before a slot freed up must not run the handler.
func TestConcurrencyLimitSkipsCancelledClients(t *testing.T) {
	var ran bool
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ran = true
	}), ConcurrencyLimit(1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/", nil).WithContext(ctx)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if ran {
		t.Fatal("handler ran for a disconnected client")
	}

	// A live client still gets through afterwards: the cancelled
	// request released its slot.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !ran {
		t.Fatal("slot not released after cancelled request")
	}
}

// registeredMetrics returns request metrics attached to a fresh
// registry, the only place their numbers live.
func registeredMetrics() (*Metrics, *obs.Registry) {
	m, reg := NewMetrics(), obs.NewRegistry()
	m.Register(reg)
	return m, reg
}

// pathCounts reads the per-path request counts (the latency histogram's
// _count), total seconds (its _sum) and error counts off the registry.
func pathCounts(reg *obs.Registry) (requests, seconds, errors map[string]float64) {
	requests, seconds, errors = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, f := range reg.Gather() {
		for _, s := range f.Samples {
			path := s.Labels[0].Value
			switch {
			case f.Name == "pas_http_request_duration_seconds" && s.Suffix == "_count":
				requests[path] = s.Value
			case f.Name == "pas_http_request_duration_seconds" && s.Suffix == "_sum":
				seconds[path] = s.Value
			case f.Name == "pas_http_errors_total":
				errors[path] = s.Value
			}
		}
	}
	return requests, seconds, errors
}

func TestMetricsCountsAndErrors(t *testing.T) {
	m, reg := registeredMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" {
			http.Error(w, "no", http.StatusBadRequest)
			return
		}
		time.Sleep(time.Millisecond)
		fmt.Fprint(w, "ok")
	}), m.Middleware())

	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/good", nil))
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/bad", nil))

	requests, seconds, errors := pathCounts(reg)
	if requests["/good"] != 3 || errors["/good"] != 0 {
		t.Fatalf("/good: %v requests, %v errors; want 3, 0", requests["/good"], errors["/good"])
	}
	if requests["/bad"] != 1 || errors["/bad"] != 1 {
		t.Fatalf("/bad: %v requests, %v errors; want 1, 1", requests["/bad"], errors["/bad"])
	}
	if seconds["/good"] < 0.003 {
		t.Fatalf("/good took %vs in total, want at least its three 1ms sleeps", seconds["/good"])
	}
}

// TestMetricsScrapeServesPathSeries: what the middleware recorded is on
// the registry's /metricsz, with nothing else to mount.
func TestMetricsScrapeServesPathSeries(t *testing.T) {
	m, reg := registeredMetrics()
	h := Chain(okHandler(), m.Middleware())
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/a", nil))

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, want := range []string{
		`pas_http_request_duration_seconds_count{path="/a"} 1` + "\n",
		`pas_http_errors_total{path="/a"} 0` + "\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, rec.Body.String())
		}
	}
}

// TestMetricsPathCardinalityIsBounded: the path is chosen by the
// client, so a scan over 10,000 URLs must not grow the registry by
// 10,000 series. The first 64 paths keep exact counts, everything after
// pools under path="other", nothing is lost, and the scrape still
// parses.
func TestMetricsPathCardinalityIsBounded(t *testing.T) {
	m, reg := registeredMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "7") {
			w.WriteHeader(http.StatusNotFound)
		}
	}), m.Middleware())
	const total = 10000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += 4 {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("/scan/%d", i), nil))
			}
		}(g)
	}
	wg.Wait()
	// A second pass over ten of the paths: whichever side of the bound
	// each landed on the first time, it lands there again.
	for i := 0; i < 10; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("/scan/%d", i), nil))
	}

	requests, _, errors := pathCounts(reg)
	if len(requests) > maxPaths+1 || len(errors) > maxPaths+1 {
		t.Fatalf("%d latency children and %d error children, want at most %d each", len(requests), len(errors), maxPaths+1)
	}
	var sum, errSum float64
	own := 0
	for path, n := range requests {
		sum += n
		errSum += errors[path]
		if path == otherPath {
			continue
		}
		own++
		var i int
		if _, err := fmt.Sscanf(path, "/scan/%d", &i); err != nil {
			t.Fatalf("unexpected path label %q", path)
		}
		want, wantErrs := 1.0, 0.0
		if i < 10 {
			want = 2
		}
		if i%10 == 7 {
			wantErrs = want
		}
		if n != want || errors[path] != wantErrs {
			t.Fatalf("%s: %v requests, %v errors; want %v, %v", path, n, errors[path], want, wantErrs)
		}
	}
	if own != maxPaths {
		t.Fatalf("%d paths kept their own series, want the first %d", own, maxPaths)
	}
	if sum != total+10 || errSum != total/10+1 {
		t.Fatalf("counts reconcile to %v requests and %v errors, want %d and %d", sum, errSum, total+10, total/10+1)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("scrape no longer parses: %v", err)
	}
}

// TestConcurrencyLimitRetryAfterEnvelope pins the shed response's exact
// shape: Retry-After must be a positive integer number of seconds
// (clients do arithmetic on it) and the body must be the standard
// {"error": ...} envelope with nothing trailing it.
func TestConcurrencyLimitRetryAfterEnvelope(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
	})
	h := Chain(slow, ConcurrencyLimit(1))
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := srv.Client().Get(srv.URL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
	var envelope struct {
		Error string `json:"error"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&envelope); err != nil {
		t.Fatalf("shed body is not the JSON envelope: %v", err)
	}
	if envelope.Error == "" {
		t.Fatal("envelope has empty error message")
	}
	if dec.More() {
		t.Fatal("trailing data after the error envelope")
	}
	close(release)
	wg.Wait()
}

// TestStatusRecorderOrdering covers the three WriteHeader/Write
// interleavings the logging and metrics layers depend on, now through
// the shared obs.ResponseRecorder.
func TestStatusRecorderOrdering(t *testing.T) {
	// Explicit status before the body: recorded verbatim.
	inner := httptest.NewRecorder()
	sr := obs.WrapResponseWriter(inner)
	sr.WriteHeader(http.StatusNotFound)
	n, err := sr.Write([]byte("nope"))
	if err != nil || n != 4 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if sr.StatusOr200() != http.StatusNotFound || inner.Code != http.StatusNotFound {
		t.Fatalf("status = %d (inner %d), want 404", sr.StatusOr200(), inner.Code)
	}
	if sr.BytesWritten() != 4 {
		t.Fatalf("bytes = %d, want 4", sr.BytesWritten())
	}

	// Body first: the implicit 200 commit is recorded.
	sr2 := obs.WrapResponseWriter(httptest.NewRecorder())
	sr2.Write([]byte("x"))
	if sr2.Status() != http.StatusOK {
		t.Fatalf("implicit status = %d, want 200", sr2.Status())
	}

	// Handler never wrote anything: StatusOr200 reports 200 without
	// mutating the recorder (net/http sends 200 on its own).
	sr3 := obs.WrapResponseWriter(httptest.NewRecorder())
	if sr3.StatusOr200() != http.StatusOK {
		t.Fatalf("StatusOr200 = %d", sr3.StatusOr200())
	}
	if sr3.Status() != 0 {
		t.Fatal("StatusOr200 mutated the recorder")
	}
}

// TestMiddlewareChainWrapsOnce: Trace, Logging, and Metrics all wrap
// the response writer, but the request must see a single shared
// recorder — the old stack kept two private copies that could disagree.
func TestMiddlewareChainWrapsOnce(t *testing.T) {
	m := NewMetrics()
	tracer := obs.NewTracer(obs.TraceConfig{IDSeed: 3})
	var seen http.ResponseWriter
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = w
		fmt.Fprint(w, "ok")
	}), Trace(tracer, "svc"), Logging(log.New(io.Discard, "", 0)), m.Middleware())
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/once", nil))

	rec, ok := seen.(*obs.ResponseRecorder)
	if !ok {
		t.Fatalf("handler saw %T, want *obs.ResponseRecorder", seen)
	}
	if _, isNested := rec.ResponseWriter.(*obs.ResponseRecorder); isNested {
		t.Fatal("recorder wraps another recorder: double wrap")
	}
}

// TestLoggingRecordsExplicitStatus: a handler that sets its own status
// must show that status in the access line, not 200.
func TestLoggingRecordsExplicitStatus(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "short and stout")
	}), Logging(logger))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/teapot", nil))
	if !strings.Contains(buf.String(), "418") {
		t.Fatalf("access line = %q, want explicit 418", buf.String())
	}
}

// TestMetricsCountLimiterSheds: when Metrics wraps the limiter, a shed
// 503 is a request AND an error — capacity rejections must not be
// invisible in /metricsz.
func TestMetricsCountLimiterSheds(t *testing.T) {
	m, reg := registeredMetrics()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
	})
	h := Chain(slow, m.Middleware(), ConcurrencyLimit(1))
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := srv.Client().Get(srv.URL + "/a")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	resp, err := srv.Client().Get(srv.URL + "/a")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	close(release)
	wg.Wait()

	requests, _, errors := pathCounts(reg)
	if requests["/a"] != 2 {
		t.Fatalf("requests = %v, want 2 (one served, one shed)", requests["/a"])
	}
	if errors["/a"] != 1 {
		t.Fatalf("errors = %v, want the shed 503 counted", errors["/a"])
	}
}

func TestStatusRecorderFlushPassthrough(t *testing.T) {
	// SSE streaming must survive the middleware stack: the recorder must
	// implement Flush.
	var flushed bool
	inner := httptest.NewRecorder() // implements Flusher
	sr := obs.WrapResponseWriter(flushRecorder{inner, &flushed})
	sr.Flush()
	if !flushed {
		t.Fatal("flush not forwarded")
	}
}

type flushRecorder struct {
	http.ResponseWriter
	flushed *bool
}

func (f flushRecorder) Flush() { *f.flushed = true }
