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
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
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

	sys := newSystem(testSystem(t).System.model)
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
	sys := newSystem(testSystem(tb).System.model)
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
// uninstrumented baseline. Untraced and traced calls alternate, each
// pair in the other order from the last, so both sides see the same
// host, and the guard judges the median of the paired ratios. Each
// traced call runs under a root of its own, started and ended outside
// the timing, as each request's spans go to a trace of its own. A
// control that pairs untraced with untraced must read within 3% of 1,
// or the pairing itself is biased and the measurement is taken again.
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
	untraced := context.Background()

	call := func(ctx context.Context) time.Duration {
		start := time.Now()
		if _, err := sys.EnhanceContext(ctx, main, benchPrompt, "bench"); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// pair times a call under ctx against an untraced one, in the order
	// i says, and returns their ratio.
	pair := func(i int, ctx context.Context) float64 {
		var base, other time.Duration
		if i%2 == 0 {
			base, other = call(untraced), call(ctx)
		} else {
			other, base = call(ctx), call(untraced)
		}
		return float64(other) / float64(base)
	}
	for i := 0; i < 200; i++ { // warm up code paths and the cache
		call(untraced)
	}

	const pairs, attempts = 4001, 3
	var report []string
	for a := 1; a <= attempts; a++ {
		traced, control := make([]float64, pairs), make([]float64, pairs)
		for i := range traced {
			tctx, span := tracer.StartSpan(untraced, "guard")
			traced[i] = pair(i, tctx)
			span.End()
			control[i] = pair(i, untraced)
		}
		tr, ctl := medianOf(traced), medianOf(control)
		t.Logf("attempt %d: traced/untraced %.4f, untraced/untraced %.4f (medians of %d pairs)", a, tr, ctl, pairs)
		if ctl < 0.97 || ctl > 1.03 {
			report = append(report, fmt.Sprintf("attempt %d: control %.4f", a, ctl))
			continue // the pairing is biased on this host right now; it judges nothing
		}
		if tr > 1.05 {
			t.Fatalf("sampled-out tracing costs %+.1f%% of a cached EnhanceContext, over the 5%% budget (control %.4f)", (tr-1)*100, ctl)
		}
		return
	}
	t.Errorf("no attempt had an unbiased control (untraced/untraced within 3%% of 1):\n%s", strings.Join(report, "\n"))
}

// medianOf returns the median of xs, reordering them.
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// TestObsOverheadAllocations is the same comparison in a unit that does
// not depend on the clock: what a sampled-out tracer adds to one cached
// EnhanceContext call is its three spans (serving.do,
// serving.cache_lookup, main.chat). Under a root that has outlived its
// record's room each is one allocation, the span with room for two
// attributes; a span is its own context, so there is no context value.
// The counts are means over a thousand calls, not testing.AllocsPerRun's
// truncated ones: under the race detector sync.Pool drops a random share
// of what is put back, and two truncated means of that noise differ by
// one or two either way.
func TestObsOverheadAllocations(t *testing.T) {
	sys, main := enhanceCachedSystem(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // count this goroutine's allocations only, as AllocsPerRun does
	allocs := func(ctx context.Context) float64 {
		const calls = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := sys.EnhanceContext(ctx, main, benchPrompt, "bench"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / calls
	}
	allocs(context.Background()) // warm up code paths and pools
	base := allocs(context.Background())
	tctx, span := obs.NewTracer(obs.TraceConfig{SampleEvery: -1}).StartSpan(context.Background(), "guard")
	traced := allocs(tctx)
	span.End()
	t.Logf("allocations per cached EnhanceContext: %.2f untraced, %.2f traced", base, traced)
	if extra := math.Round(traced - base); extra > 3 {
		t.Errorf("tracing adds %v allocations to a cached EnhanceContext (%.2f -> %.2f), want <= 3", extra, base, traced)
	}
}
