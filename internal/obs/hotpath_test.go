package obs

import (
	"context"
	"net/http"
	"runtime"
	"testing"
)

// TestSpanAllocations holds what a trace costs in allocations. The root
// is three: the trace record (the root span, the room for its four
// attributes and the room for eight finished spans are inside it), the
// trace id in hex, and the context value. A child is two: the span with
// its room for two attributes, and its context value. Nothing is
// allocated when a span ends.
func TestSpanAllocations(t *testing.T) {
	tracer := NewTracer(TraceConfig{SampleEvery: 1})
	trace := func(children, attrs int) float64 {
		return testing.AllocsPerRun(200, func() {
			ctx, root := tracer.StartSpan(context.Background(), "root")
			root.SetAttr("a", "1")
			root.SetAttr("b", "2")
			root.SetAttrBool("c", true)
			root.SetAttrInt("d", 42)
			for i := 0; i < children; i++ {
				_, s := StartSpan(ctx, "child")
				for j := 0; j < attrs; j++ {
					s.SetAttr("k", "v")
				}
				s.End()
			}
			root.End()
		})
	}
	const rootCost, childCost = 3, 2
	for _, tc := range []struct {
		name            string
		children, attrs int
		want            float64
	}{
		{"root alone", 0, 0, rootCost},
		{"a hit's two children", 2, 2, rootCost + 2*childCost},
		{"the record's inline room filled", 7, 2, rootCost + 7*childCost},
		{"a ninth span grows the list once", 8, 2, rootCost + 8*childCost + 1},
		{"a third attribute grows the child's room once", 2, 3, rootCost + 2*(childCost+1)},
	} {
		if got := trace(tc.children, tc.attrs); got > tc.want {
			t.Errorf("%s: %v allocations for the trace, want <= %v", tc.name, got, tc.want)
		}
	}
}

// servedTrace leaves the trace one /v1/augment request leaves: the root
// as httpmw.Trace dresses it, serving.do and serving.cache_lookup under
// it, and on a miss serving.queue_wait and serving.compute as well.
func servedTrace(tracer *Tracer, h http.Header, miss bool) {
	ctx, root := tracer.StartSpan(context.Background(), "passerve POST /v1/augment")
	root.SetAttr("http.method", "POST")
	root.SetAttr("http.path", "/v1/augment")
	root.SetAttr("request.id", "req-00000001")
	Inject(ctx, h)
	ctx, do := StartSpan(ctx, "serving.do")
	_, lookup := StartSpan(ctx, "serving.cache_lookup")
	if miss {
		lookup.SetStatus("miss")
		lookup.End()
		_, wait := StartSpan(ctx, "serving.queue_wait")
		wait.SetAttr("singleflight.role", "leader")
		wait.SetAttr("breaker.state", "closed")
		wait.End()
		_, compute := StartSpan(ctx, "serving.compute")
		compute.End()
	} else {
		lookup.SetStatus("hit")
		lookup.End()
		do.SetStatus("cache_hit")
	}
	do.End()
	root.SetAttrInt("http.status", 200)
	root.End()
}

// TestTraceBytes bounds the heap a request's trace costs at the default
// -trace-sample 1, where the daemon's collector runs once per ~2 MB
// allocated. Measured: 1,188 bytes in 10 allocations for a hit's three
// spans and 1,763 in 14 for a miss's five; when End copied each span
// into a SpanData and ids were kept as text the same traces were 2,260
// in 14 and 4,499 in 21.
func TestTraceBytes(t *testing.T) {
	tracer := NewTracer(TraceConfig{SampleEvery: 1})
	h := http.Header{}
	for _, tc := range []struct {
		name string
		miss bool
		max  uint64
	}{
		{"hit", false, 1300},
		{"miss", true, 2000},
	} {
		const traces = 2000
		servedTrace(tracer, h, tc.miss)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < traces; i++ {
			servedTrace(tracer, h, tc.miss)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / traces; got > tc.max {
			t.Errorf("a %s's trace allocates %d bytes (%d objects), want <= %d",
				tc.name, got, (after.Mallocs-before.Mallocs)/traces, tc.max)
		}
	}
}

// TestIDsAreRenderedOnceAndAgree: every surface that shows a trace's
// ids — the traceparent header, /debug/traces, the access log's and the
// exemplar's TraceIDFromContext — shows the same strings, and they are
// the ids' hex.
func TestIDsAreRenderedOnceAndAgree(t *testing.T) {
	tracer := NewTracer(TraceConfig{SampleEvery: 1, IDSeed: 7})
	remote := SpanContext{TraceID: TraceID{0xab, 1}, SpanID: SpanID{0xcd, 2}, Sampled: true}
	for name, ctx := range map[string]context.Context{
		"fresh":     context.Background(),
		"continued": ContextWithRemote(context.Background(), remote),
	} {
		ctx, root := tracer.StartSpan(ctx, "root")
		cctx, child := StartSpan(ctx, "child")
		sc := child.Context()

		traceHex, sampled := TraceIDFromContext(cctx)
		if traceHex != sc.TraceID.String() || !sampled {
			t.Errorf("%s: TraceIDFromContext = %q, %v; want %q, sampled", name, traceHex, sampled, sc.TraceID)
		}
		h := http.Header{}
		Inject(cctx, h)
		if got := h.Get(TraceparentHeader); got != sc.traceparent() {
			t.Errorf("%s: injected %q, want %q", name, got, sc.traceparent())
		}
		child.End()
		root.End()

		spans := tracer.Snapshot().Recent[0].Spans
		if len(spans) != 2 {
			t.Fatalf("%s: %d spans", name, len(spans))
		}
		c, r := spans[0], spans[1]
		if c.TraceID != traceHex || r.TraceID != traceHex || tracer.Snapshot().Recent[0].TraceID != traceHex {
			t.Errorf("%s: stored trace ids %q / %q, want %q", name, c.TraceID, r.TraceID, traceHex)
		}
		if c.SpanID != sc.SpanID.String() || c.ParentID != r.SpanID || r.SpanID != root.Context().SpanID.String() {
			t.Errorf("%s: child %q under %q, root %q", name, c.SpanID, c.ParentID, r.SpanID)
		}
		wantParent := ""
		if name == "continued" {
			wantParent = remote.SpanID.String()
		}
		if r.ParentID != wantParent {
			t.Errorf("%s: root's parent %q, want %q", name, r.ParentID, wantParent)
		}
	}
	// Without a span the remote parent's id is still visible, rendered on demand.
	if got, sampled := TraceIDFromContext(ContextWithRemote(context.Background(), remote)); got != remote.TraceID.String() || !sampled {
		t.Errorf("remote only: %q, %v", got, sampled)
	}
	if got, _ := TraceIDFromContext(context.Background()); got != "" {
		t.Errorf("empty context: %q", got)
	}
}
