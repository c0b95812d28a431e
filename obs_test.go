package pas

// End-to-end observability: a request entering the proxy with no trace
// context must yield ONE trace spanning both services — proxy root,
// augmentation + serving-core spans, and the upstream LLM's own root
// continuing the same trace id — with that id stamped on both access
// logs. Plus the overhead guard: tracing compiled in but sampled out
// must not slow the cached hot path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chatapi"
	"repro/internal/httpmw"
	"repro/internal/obs"
	"repro/internal/simllm"
)

// tracedStack is pasllm behind pasproxy, with each service's tracer and
// access log captured for inspection.
type tracedStack struct {
	front       *httptest.Server
	proxyTracer *obs.Tracer
	llmTracer   *obs.Tracer
	proxyLog    *bytes.Buffer
	llmLog      *bytes.Buffer
}

func newTracedStack(t *testing.T) *tracedStack {
	t.Helper()
	st := &tracedStack{
		proxyTracer: obs.NewTracer(obs.TraceConfig{}),
		llmTracer:   obs.NewTracer(obs.TraceConfig{}),
		proxyLog:    &bytes.Buffer{},
		llmLog:      &bytes.Buffer{},
	}

	apiServer, err := chatapi.NewServer(chatapi.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(httpmw.Chain(apiServer.Handler(),
		httpmw.RequestID(),
		httpmw.Trace(st.llmTracer, "pasllm"),
		httpmw.Logging(log.New(st.llmLog, "", 0)),
	))
	t.Cleanup(upstream.Close)

	sys := NewSystem(testSystem(t).System.model)
	if err := sys.EnableServing(ServingConfig{
		CacheSize:   64,
		MaxInFlight: 4,
		QueueDepth:  4,
		QueueWait:   time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	st.front = httptest.NewServer(httpmw.Chain(proxy,
		httpmw.RequestID(),
		httpmw.Trace(st.proxyTracer, "pasproxy"),
		httpmw.Logging(log.New(st.proxyLog, "", 0)),
	))
	t.Cleanup(st.front.Close)
	return st
}

func (st *tracedStack) chat(t *testing.T, header string) *http.Response {
	t.Helper()
	body := `{"model":"gpt-4-0613","seed":"obs-e2e","messages":[{"role":"user","content":"Explain how tides form."}]}`
	req, err := http.NewRequest(http.MethodPost, st.front.URL+"/v1/chat/completions", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(obs.TraceparentHeader, header)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// spanNames flattens every recent trace with the given id into its span
// name set.
func spanNames(snap obs.TracesSnapshot, traceID string) map[string]bool {
	names := map[string]bool{}
	for _, tr := range snap.Recent {
		if tr.TraceID != traceID {
			continue
		}
		for _, sp := range tr.Spans {
			names[sp.Name] = true
		}
	}
	return names
}

// logTraceIDs extracts the trace_id of each JSON access-log line.
func logTraceIDs(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			TraceID string `json:"trace_id"`
			Status  int    `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %q is not JSON: %v", line, err)
		}
		ids = append(ids, rec.TraceID)
	}
	return ids
}

func TestTracePropagatesProxyToUpstream(t *testing.T) {
	st := newTracedStack(t)
	resp := st.chat(t, "") // no inbound trace context: proxy mints the root
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	echoed := resp.Header.Get(obs.TraceparentHeader)
	sc, ok := obs.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echoed)
	}
	traceID := sc.TraceID.String()

	proxySpans := spanNames(st.proxyTracer.Snapshot(), traceID)
	for _, want := range []string{
		"pasproxy POST /v1/chat/completions",
		"proxy.augment",
		"serving.do",
		"serving.cache_lookup",
		"serving.queue_wait",
		"serving.compute",
	} {
		if !proxySpans[want] {
			t.Errorf("proxy trace %s is missing span %q (have %v)", traceID, want, proxySpans)
		}
	}

	llmSpans := spanNames(st.llmTracer.Snapshot(), traceID)
	for _, want := range []string{
		"pasllm POST /v1/chat/completions",
		"chatllm.generate",
	} {
		if !llmSpans[want] {
			t.Errorf("upstream continued trace %s but is missing span %q (have %v)", traceID, want, llmSpans)
		}
	}

	for name, buf := range map[string]*bytes.Buffer{"proxy": st.proxyLog, "llm": st.llmLog} {
		ids := logTraceIDs(t, buf)
		if len(ids) == 0 {
			t.Fatalf("%s access log is empty", name)
		}
		if ids[len(ids)-1] != traceID {
			t.Errorf("%s access log has trace_id %q, want %q", name, ids[len(ids)-1], traceID)
		}
	}
}

func TestTraceContinuesValidInboundParent(t *testing.T) {
	st := newTracedStack(t)
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp := st.chat(t, inbound)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatal("response traceparent does not parse")
	}
	if got := sc.TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("proxy minted a new trace %s instead of continuing the inbound one", got)
	}
	if names := spanNames(st.llmTracer.Snapshot(), sc.TraceID.String()); !names["chatllm.generate"] {
		t.Errorf("upstream did not continue the client's trace (spans %v)", names)
	}
}

func TestTraceMalformedParentStartsFreshRoot(t *testing.T) {
	st := newTracedStack(t)
	for _, bad := range []string{
		"not-a-traceparent",
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase is invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
	} {
		resp := st.chat(t, bad)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traceparent %q: status %d", bad, resp.StatusCode)
		}
		sc, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
		if !ok {
			t.Fatalf("traceparent %q: response header does not parse", bad)
		}
		if got := sc.TraceID.String(); strings.Contains(strings.ToLower(bad), got) {
			t.Errorf("malformed traceparent %q was inherited as trace %s", bad, got)
		}
	}
}

// enhanceCachedSystem builds a serving-enabled system with the
// complement for benchPrompt already cached, so every measured
// iteration takes the cache-hit path.
func enhanceCachedSystem(tb testing.TB) (*System, Chatter) {
	tb.Helper()
	sys := NewSystem(testSystem(tb).System.model)
	if err := sys.EnableServing(ServingConfig{CacheSize: 64, MaxInFlight: 4, QueueDepth: 4, QueueWait: time.Second}); err != nil {
		tb.Fatal(err)
	}
	main := simllm.MustModel(simllm.GPT40613)
	if _, err := sys.EnhanceContext(context.Background(), main, benchPrompt, "bench"); err != nil {
		tb.Fatal(err)
	}
	return sys, main
}

const benchPrompt = "Explain how tides form."

// BenchmarkEnhanceCached measures the cache-hit hot path bare and with
// tracing compiled in but sampled out (SampleEvery < 0, the no-op
// exporter): the two must stay within a few percent of each other —
// TestObsOverheadGuard enforces 5%.
func BenchmarkEnhanceCached(b *testing.B) {
	sys, main := enhanceCachedSystem(b)
	run := func(ctx context.Context) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.EnhanceContext(ctx, main, benchPrompt, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("baseline", run(context.Background()))

	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: -1})
	tctx, span := tracer.StartSpan(context.Background(), "bench")
	defer span.End()
	b.Run("traced-noop", run(tctx))
}

// TestObsOverheadGuard is the CI guard behind the benchmark above: the
// sampled-out tracer must keep the cached hot path within 5% of the
// uninstrumented baseline. Timing comparisons are noisy, so the guard
// takes the best of a few attempts before failing.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped with -short")
	}
	if raceEnabled {
		// The detector's instrumentation is several times the 5% being
		// compared; CI holds this guard in a step of its own without it,
		// and TestObsOverheadAllocations holds under both.
		t.Skip("timing guard skipped under the race detector")
	}
	sys, main := enhanceCachedSystem(t)
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: -1})

	measure := func(ctx context.Context) float64 {
		const iters = 400
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sys.EnhanceContext(ctx, main, benchPrompt, "bench"); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start)) / iters
	}
	measure(context.Background()) // warm up code paths and the cache

	const attempts = 5
	var report []string
	for i := 0; i < attempts; i++ {
		base := measure(context.Background())
		tctx, span := tracer.StartSpan(context.Background(), "guard")
		traced := measure(tctx)
		span.End()
		if traced <= base*1.05 {
			return
		}
		report = append(report, fmt.Sprintf("attempt %d: baseline %.0fns/op, traced %.0fns/op (+%.1f%%)",
			i+1, base, traced, (traced/base-1)*100))
	}
	t.Errorf("sampled-out tracing exceeded the 5%% overhead budget on every attempt:\n%s",
		strings.Join(report, "\n"))
}

// TestObsOverheadAllocations is the same comparison in a unit that does
// not depend on the clock: what a sampled-out tracer adds to one cached
// EnhanceContext call is its three spans (serving.do,
// serving.cache_lookup, main.chat), each a span and a context value.
func TestObsOverheadAllocations(t *testing.T) {
	sys, main := enhanceCachedSystem(t)
	allocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := sys.EnhanceContext(ctx, main, benchPrompt, "bench"); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(context.Background())
	tctx, span := obs.NewTracer(obs.TraceConfig{SampleEvery: -1}).StartSpan(context.Background(), "guard")
	traced := allocs(tctx)
	span.End()
	t.Logf("allocations per cached EnhanceContext: %v untraced, %v traced", base, traced)
	if extra := traced - base; extra > 6 {
		t.Errorf("tracing adds %v allocations to a cached EnhanceContext (%v -> %v), want <= 6", extra, base, traced)
	}
}
