package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestSpanAllocations holds what a trace costs in allocations: one, the
// trace record, which holds the root span, the trace id in hex, and
// room for four children, four attributes and eight finished spans. A
// span is its own context, so starting one adds no context value; a
// child inside the record's room allocates nothing, one past it is a
// single allocation with room for two attributes of its own, a ninth
// span grows the list of finished spans once, and nothing else is
// allocated when a span ends.
func TestSpanAllocations(t *testing.T) {
	tracer := NewTracer(TraceConfig{SampleEvery: 1})
	req := httptest.NewRequest("POST", "/v1/augment", nil)
	rec := WrapResponseWriter(httptest.NewRecorder())
	trace := func(children, attrs int) float64 {
		return testing.AllocsPerRun(200, func() {
			ctx, root := tracer.StartRequest(rec, req, "passerve", "req-00000001")
			for i := 0; i < children; i++ {
				_, s := StartSpan(ctx, "child")
				for j := 0; j < attrs; j++ {
					s.SetAttr("k", "v")
				}
				s.End()
			}
			root.EndRequest(200, rec.End())
		})
	}
	// twoAttrsPastRoom is a child in the record whose two attributes
	// find the record's attribute room spent: append grows them twice.
	const recordCost, pastRoomCost, twoAttrsPastRoom, listGrowth = 1, 1, 2, 1
	for _, tc := range []struct {
		name            string
		children, attrs int
		want            float64
	}{
		{"root alone", 0, 0, recordCost},
		{"a hit's two children", 2, 0, recordCost},
		{"a miss's four children, one attribute each", 4, 1, recordCost},
		{"a fifth child", 5, 0, recordCost + pastRoomCost},
		{"a fifth child past the attribute room", 5, 1, recordCost + pastRoomCost},
		{"two attributes on each of two children", 2, 2, recordCost},
		{"a third child's attributes, past the attribute room", 3, 2, recordCost + twoAttrsPastRoom},
		{"the record's inline room filled", 7, 2, recordCost + 2*twoAttrsPastRoom + 3*pastRoomCost},
		{"a ninth span grows the list once", 8, 2, recordCost + 2*twoAttrsPastRoom + 4*pastRoomCost + listGrowth},
	} {
		got := trace(tc.children, tc.attrs)
		t.Logf("%s: %v allocations", tc.name, got)
		if got > tc.want {
			t.Errorf("%s: %v allocations for the trace, want <= %v", tc.name, got, tc.want)
		}
	}

	// A root started by Tracer.StartSpan keeps its attributes in the
	// record's room too.
	got := testing.AllocsPerRun(200, func() {
		_, root := tracer.StartSpan(context.Background(), "root")
		root.SetAttr("a", "1")
		root.SetAttr("b", "2")
		root.SetAttrBool("c", true)
		root.SetAttrInt("d", 42)
		root.End()
	})
	if got > recordCost {
		t.Errorf("a root with four attributes: %v allocations, want <= %v", got, recordCost)
	}
}

// servedTrace leaves the trace one /v1/augment request leaves: the root
// as httpmw.Trace starts and ends it, serving.do and
// serving.cache_lookup under it, and on a miss serving.queue_wait and
// serving.compute as well.
func servedTrace(tracer *Tracer, rec *ResponseRecorder, req *http.Request, miss bool) {
	ctx, root := tracer.StartRequest(rec, req, "passerve", "req-00000001")
	Inject(ctx, rec.Header())
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
	root.EndRequest(200, rec.End())
}

// TestTraceBytes bounds the heap a request's trace costs at the default
// -trace-sample 1, where the daemon's collector runs once per ~2 MB
// allocated. Measured: 1,104 bytes in 3 allocations for a hit's three
// spans and the same for a miss's five — the 1,024-byte record and the
// traceparent header Inject writes; CHANGES.md holds the history.
func TestTraceBytes(t *testing.T) {
	tracer := NewTracer(TraceConfig{SampleEvery: 1})
	req := httptest.NewRequest("POST", "/v1/augment", nil)
	rec := WrapResponseWriter(httptest.NewRecorder())
	for _, tc := range []struct {
		name string
		miss bool
		max  uint64
	}{
		{"hit", false, 1150},
		{"miss", true, 1150},
	} {
		const traces = 2000
		servedTrace(tracer, rec, req, tc.miss)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < traces; i++ {
			servedTrace(tracer, rec, req, tc.miss)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / traces
		t.Logf("a %s's trace: %d bytes in %d objects", tc.name, got, (after.Mallocs-before.Mallocs)/traces)
		if got > tc.max {
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
	rec := WrapResponseWriter(httptest.NewRecorder())
	for name, req := range map[string]*http.Request{
		"fresh":     httptest.NewRequest("POST", "/v1/augment", nil),
		"continued": requestWithTraceparent(remote),
	} {
		ctx, root := tracer.StartRequest(rec, req, "passerve", "")
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
	if got, _ := TraceIDFromContext(context.Background()); got != "" {
		t.Errorf("empty context: %q", got)
	}
}
