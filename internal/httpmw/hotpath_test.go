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

	"repro/internal/obs"
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
// handler that does nothing: 13 for an anonymous request (39 before
// trace ids were rendered once and the access line was built by append,
// 15 while every span kept its id as text) and 18 for a keyed one, whose
// credential is fingerprinted once, by Tenant, and read by Logging off
// the recorder (22 when each resolved it for itself). The guard keeps
// fmt.Sprintf, json.Marshal, per-call hex and the second fingerprint
// from drifting back in.
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
		{"anonymous", "", 13},
		{"X-Api-Key", "sk-live-0123456789abcdef", 18},
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
