package httpmw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serving"
)

// checkAccessLine holds the appended access line to json.Marshal of the
// same record, and the appended request id to the format it replaced.
func checkAccessLine(t *testing.T, l accessLine, n uint64) {
	t.Helper()
	if math.IsNaN(l.DurMs) || math.IsInf(l.DurMs, 0) {
		return // json.Marshal refuses them; a duration is never either
	}
	want, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.appendTo([]byte("kept")); !bytes.Equal(got[4:], want) || string(got[:4]) != "kept" {
		t.Fatalf("access line\n got %s\nwant %s", got, want)
	}
	if got, want := string(appendRequestID(nil, n)), fmt.Sprintf("req-%08d", n); got != want {
		t.Fatalf("request id %q, want %q", got, want)
	}
}

// accessLineSeeds are the strings and numbers where a hand-written JSON
// writer and encoding/json most easily part ways.
var accessLineSeeds = []struct {
	s      string
	status int
	dur    float64
	n      uint64
}{
	{"req-00000001", 200, 0.187, 1},
	{"", 0, 0, 0},
	{"line\nbreak \"quoted\" back\\slash", 503, 1e-7, 99_999_999},
	{"\U000000E9 \U0001F600 <script>&amp;</script>", 499, 1e21, 100_000_000},
	{"sep \U00002028 and \U00002029", -1, 1e-6, 12_345_678},
	{"bad \xff\xc3 bytes \xed\xa0\x80 surrogate", 200, 999999999999999999999, math.MaxUint64},
	{"ctl \x00\x01\b\f\r\t\x1f\x7f", 200, 123456.789, 7},
	{"/v1/augment", 200, 2.5e-7, 10_000_000},
	{"trim", 200, -0.001, 9_999_999}, // a degrade level only a replica from before the two-rung ladder sends
	{strings.Repeat("x", 300), 200, math.SmallestNonzeroFloat64, 42},
	{"1", 200, math.MaxFloat64, 1 << 40},
}

func TestAccessLineSeeds(t *testing.T) {
	for _, c := range accessLineSeeds {
		for _, flags := range []bool{false, true} {
			checkAccessLine(t, accessLine{
				RequestID: c.s, TraceID: c.s, Method: c.s, Path: c.s, Status: c.status, Bytes: c.status * 7,
				DurMs: c.dur, Shed: flags, Degraded: flags, Degrade: c.s, Tenant: c.s,
			}, c.n)
			checkAccessLine(t, accessLine{Method: "POST", Path: c.s, Status: c.status, DurMs: c.dur, Degraded: flags}, c.n)
		}
	}
}

// FuzzAccessLine is the differential fuzzer the appended access line
// and request id were written against: see checkAccessLine.
func FuzzAccessLine(f *testing.F) {
	for i, c := range accessLineSeeds {
		f.Add(c.s, "trace", "POST", c.s, c.status, c.dur, i%2 == 0, i%3 == 0, "trim", "acme", c.n)
		f.Add("req-1", "", c.s, "/v1/augment", 200, c.dur, false, false, "", c.s, c.n)
	}
	f.Fuzz(func(t *testing.T, reqID, traceID, method, path string, status int, dur float64, shed, degraded bool, level, tenant string, n uint64) {
		checkAccessLine(t, accessLine{
			RequestID: reqID, TraceID: traceID, Method: method, Path: path, Status: status, Bytes: status ^ 0x55,
			DurMs: dur, Shed: shed, Degraded: degraded, Degrade: level, Tenant: tenant,
		}, n)
	})
}

// TestRequestIDIsBounded: a client's id is echoed into the reply, the
// span and every log line, so only a short, printable one is taken;
// anything else is replaced by a generated id.
func TestRequestIDIsBounded(t *testing.T) {
	h := Chain(okHandler(), RequestID())
	for _, c := range []struct {
		name, id string
		kept     bool
	}{
		{"plain", "client-id-7", true},
		{"every visible byte", "!\"#$%&'()*+,-./09:;<=>?@AZ[\\]^_`az{|}~", true},
		{"at the cap", strings.Repeat("a", maxRequestIDLen), true},
		{"over the cap", strings.Repeat("a", maxRequestIDLen+1), false},
		{"a megabyte", strings.Repeat("a", 1<<20), false},
		{"inner space", "two words", false},
		{"tab", "a\tb", false},
		{"control", "a\x01b", false},
		{"del", "a\x7fb", false},
		{"not ascii", "caf\U000000E9", false},
		{"invalid utf-8", "a\xffb", false},
		{"newline", "a\nb", false},
	} {
		req := httptest.NewRequest("GET", "/", nil)
		req.Header["X-Request-Id"] = []string{c.id}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-Id")
		if c.kept && got != c.id {
			t.Errorf("%s: id %q replaced by %q", c.name, c.id, got)
		}
		if !c.kept && (!strings.HasPrefix(got, "req-") || len(got) != len("req-00000000")) {
			t.Errorf("%s: got %.40q, want a generated id", c.name, got)
		}
		if seen := req.Header.Get("X-Request-Id"); seen != got {
			t.Errorf("%s: handlers downstream see %.40q, the reply says %.40q", c.name, seen, got)
		}
	}
}

// TestAbandonedRequestIsRecordedAs499: a request whose client left
// before it got a slot is never served, and must not be logged, traced
// and counted as a 200.
func TestAbandonedRequestIsRecordedAs499(t *testing.T) {
	var logged bytes.Buffer
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1})
	metrics, reg := registeredMetrics()
	ran := false
	h := Chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { ran = true }),
		RequestID(), Trace(tracer, "svc"), Logging(log.New(&logged, "", 0)), metrics.Middleware(), ConcurrencyLimit(1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/augment", nil).WithContext(ctx))

	if ran {
		t.Fatal("handler ran for a client that had gone")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("wrote %q to a client that had gone", rec.Body)
	}
	var line accessLine
	if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
		t.Fatalf("access line %q: %v", logged.Bytes(), err)
	}
	if line.Status != 499 || line.Shed {
		t.Errorf("access line says status %d shed %v, want 499 and not shed", line.Status, line.Shed)
	}
	snap := tracer.Snapshot()
	if len(snap.Recent) != 1 || len(snap.Recent[0].Spans) != 1 {
		t.Fatalf("traces: %+v", snap)
	}
	var status string
	for _, a := range snap.Recent[0].Spans[0].Attrs {
		if a.Key == "http.status" {
			status = a.Value
		}
	}
	if status != "499" {
		t.Errorf("span http.status = %q, want 499", status)
	}
	if counts, _, errs := pathCounts(reg); counts["/v1/augment"] != 1 || errs["/v1/augment"] != 0 {
		t.Errorf("requests %v, pas_http_errors_total %v: want the abandoned request timed once and not counted as an error response", counts, errs)
	}

	// The limiter on its own, with no recorder outside it, still just returns.
	bare := httptest.NewRecorder()
	ConcurrencyLimit(1)(okHandler()).ServeHTTP(bare, httptest.NewRequest("GET", "/", nil).WithContext(ctx))
	if bare.Body.Len() != 0 {
		t.Fatalf("bare limiter wrote %q", bare.Body)
	}
}

// nopResponse is the cheapest http.ResponseWriter: the guards below
// count the middlewares' allocations, not a recorder's.
type nopResponse struct{ h http.Header }

func (w *nopResponse) Header() http.Header         { return w.h }
func (w *nopResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponse) WriteHeader(int)             {}

// TestChainAllocations holds the per-request cost of passerve's seven
// middlewares, traced at the daemons' default of every request, around a
// handler that does nothing: 9 for an anonymous request and 14 for a
// keyed one, whose credential is fingerprinted once, by Tenant, and read
// by Logging off the recorder. The trace is one of them: its record, the
// span being its own context and its name and http.status rendered only
// when /debug/traces is read (13 and 18 before; CHANGES.md holds the
// history). The guard keeps fmt.Sprintf, json.Marshal, per-call hex, a
// per-span context value and the second fingerprint from drifting back
// in.
func TestChainAllocations(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	metrics, _ := registeredMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }),
		Recover(logger),
		RequestID(),
		Trace(obs.NewTracer(obs.TraceConfig{SampleEvery: 1}), "passerve"),
		Logging(logger),
		ConcurrencyLimitHint(256, nil),
		Tenant(),
		metrics.Middleware(),
	)
	for _, tc := range []struct {
		name, apiKey string
		max          float64
	}{
		{"anonymous", "", 9},
		{"X-Api-Key", "sk-live-0123456789abcdef", 14},
	} {
		req := httptest.NewRequest("POST", "/v1/augment", nil)
		req.Header.Set("Content-Type", "application/json")
		if tc.apiKey != "" {
			req.Header.Set(apiKeyHeader, tc.apiKey)
		}
		w := &nopResponse{h: http.Header{}}
		serve := func() {
			delete(req.Header, "X-Request-Id")
			clear(w.h)
			h.ServeHTTP(w, req)
		}
		serve()
		n := testing.AllocsPerRun(200, serve)
		t.Logf("chain allocations per %s request: %v", tc.name, n)
		if n > tc.max {
			t.Errorf("the seven-middleware chain allocates %v times per %s request, want <= %v", n, tc.name, tc.max)
		}
	}
}

// TestCacheHitReadsTheClockFourTimes: a cache hit through passerve's
// middlewares and the serving core reads the clock four times — the
// request's start and end, which the root span, the access line's
// dur_ms and the latency histogram share, and the core's two, which its
// spans and its own latency reuse — where it read twelve. The tracer's
// and the core's clocks are pinned, and counted.
func TestCacheHitReadsTheClockFourTimes(t *testing.T) {
	reads := 0
	at := time.Unix(1700000000, 0)
	clock := func() time.Time {
		reads++
		at = at.Add(time.Microsecond)
		return at
	}
	core, err := serving.New(func(prompt, salt string) string { return "complement" }, serving.Config{CacheSize: 16, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	logger := log.New(&logged, "", 0)
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1, Now: clock})
	metrics, reg := registeredMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, _, err := core.DoLevel(r.Context(), "prompt", "salt", "model"); err != nil {
			t.Error(err)
		}
	}), Recover(logger), RequestID(), Trace(tracer, "passerve"), Logging(logger), Tenant(), metrics.Middleware())
	serve := func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/augment", nil))
	}
	serve() // the miss fills the cache
	_, before, _ := pathCounts(reg)
	logged.Reset()
	reads = 0
	serve()
	if reads != 4 {
		t.Errorf("a cache hit read the clock %d times, want 4", reads)
	}

	// What the four readings timed: the request took 3µs between its
	// two, the core 1µs between its own.
	var line accessLine
	if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
		t.Fatalf("access line %q: %v", logged.Bytes(), err)
	}
	_, after, _ := pathCounts(reg)
	trace := tracer.Snapshot().Recent[0]
	durs := map[string]float64{}
	for _, s := range trace.Spans {
		durs[s.Name] = s.DurationMs
	}
	if line.DurMs != 0.003 || trace.DurationMs != 0.003 || math.Abs(after["/v1/augment"]-before["/v1/augment"]-3e-6) > 1e-12 {
		t.Errorf("the request took %vms in the access line, %vms in its trace and %vs in the histogram, want 3µs in each",
			line.DurMs, trace.DurationMs, after["/v1/augment"]-before["/v1/augment"])
	}
	if durs["serving.do"] != 0.001 || durs["serving.cache_lookup"] != 0.001 {
		t.Errorf("serving spans: %v, want 1µs each", durs)
	}
}

// TestTraceIsTimedOnTheRequestsClock: with Logging outside Trace, the
// request's start is read on Logging's clock, and the trace is timed on
// that clock throughout, not on the tracer's pinned one, so a child
// starts and ends inside its root.
func TestTraceIsTimedOnTheRequestsClock(t *testing.T) {
	pinned := func() time.Time { return time.Unix(1700000000, 0) }
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1, Now: pinned})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, child := obs.StartSpan(r.Context(), "child")
		child.End()
	}), Logging(nil), Trace(tracer, "passerve"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stats", nil))

	spans := tracer.Snapshot().Recent[0].Spans
	if len(spans) != 2 {
		t.Fatalf("%d spans, want the child and the root", len(spans))
	}
	child, root := spans[0], spans[1]
	end := func(s obs.SpanData) time.Time {
		return s.Start.Add(time.Duration(s.DurationMs * float64(time.Millisecond)))
	}
	if child.Start.Before(root.Start) || child.DurationMs < 0 || end(child).After(end(root)) {
		t.Errorf("child from %v for %vms, outside its root from %v for %vms",
			child.Start, child.DurationMs, root.Start, root.DurationMs)
	}
}
