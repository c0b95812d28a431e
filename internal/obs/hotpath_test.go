package obs

import (
	"context"
	"net/http"
	"testing"
)

// TestSpanAllocations holds what one child span costs from start to
// End with four attributes set: the span, its context value and its id
// in hex. The attributes live in the span's own room and the finished
// span in the trace's.
func TestSpanAllocations(t *testing.T) {
	tracer := NewTracer(TraceConfig{SampleEvery: 1})
	n := testing.AllocsPerRun(200, func() {
		ctx, root := tracer.StartSpan(context.Background(), "root")
		for i := 0; i < 3; i++ { // the trace has inline room for four spans
			_, s := StartSpan(ctx, "child")
			s.SetAttr("a", "1")
			s.SetAttr("b", "2")
			s.SetAttrBool("c", true)
			s.SetAttrInt("d", 42)
			s.End()
		}
		root.End()
	})
	const rootCost = 5 // span, context value, trace record, trace id and span id in hex
	if perChild := (n - rootCost) / 3; perChild > 4 {
		t.Fatalf("a span with four attributes allocates %v times from start to End (%v for the whole trace), want <= 4", perChild, n)
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
		if got := h.Get(TraceparentHeader); got != sc.Traceparent() {
			t.Errorf("%s: injected %q, want %q", name, got, sc.Traceparent())
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
