package obs

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{
		TraceID: TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36},
		SpanID:  SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7},
		Sampled: true,
	}
	v := sc.Traceparent()
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if v != want {
		t.Fatalf("Traceparent() = %q, want %q", v, want)
	}
	got, ok := ParseTraceparent(v)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a value we produced", v)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}

	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", valid[:54]},
		{"version 00 with trailing data", valid + "-extra"},
		{"forbidden version ff", "ff" + valid[2:]},
		{"uppercase hex", strings.ToUpper(valid)},
		{"bad separator", strings.Replace(valid, "-", "_", 1)},
		{"non-hex trace id", "00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"non-hex span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-zzf067aa0ba902b7-01"},
		{"non-hex flags", valid[:53] + "zz"},
		{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"all-zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"future version missing dash", "01" + valid[2:] + "x"},
	}
	for _, tc := range cases {
		if _, ok := ParseTraceparent(tc.in); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", tc.name, tc.in)
		}
	}
	// Future versions may carry dash-separated extras after the flags.
	future := "01" + valid[2:] + "-extra"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("future version with extras %q rejected, want accept", future)
	}
}

func TestExtractInject(t *testing.T) {
	h := http.Header{}
	if _, ok := Extract(h); ok {
		t.Fatal("Extract on empty headers reported ok")
	}
	h.Set(TraceparentHeader, "garbage")
	if _, ok := Extract(h); ok {
		t.Fatal("Extract accepted a garbage traceparent")
	}

	tr := newTestTracer(TraceConfig{})
	ctx, span := tr.StartSpan(context.Background(), "root")
	out := http.Header{}
	Inject(ctx, out)
	got, ok := Extract(out)
	if !ok {
		t.Fatalf("Extract rejected injected header %q", out.Get(TraceparentHeader))
	}
	if got.TraceID != span.Context().TraceID || got.SpanID != span.Context().SpanID {
		t.Fatalf("Extract = %+v, want the injected span context %+v", got, span.Context())
	}

	// Inject without an active span is a no-op.
	empty := http.Header{}
	Inject(context.Background(), empty)
	if empty.Get(TraceparentHeader) != "" {
		t.Fatal("Inject without a span wrote a traceparent")
	}
}

// testClock is a manually advanced clock for deterministic durations.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracer(cfg TraceConfig) *Tracer {
	if cfg.IDSeed == 0 {
		cfg.IDSeed = 42
	}
	if cfg.Now == nil {
		clk := &testClock{t: time.Unix(1700000000, 0)}
		cfg.Now = clk.now
	}
	return NewTracer(cfg)
}

func TestSpanNestingAndStore(t *testing.T) {
	clk := &testClock{t: time.Unix(1700000000, 0)}
	tr := newTestTracer(TraceConfig{Now: clk.now})

	ctx, root := tr.StartSpan(context.Background(), "serve")
	cctx, child := StartSpan(ctx, "cache.lookup")
	child.SetStatus("hit")
	clk.advance(5 * time.Millisecond)
	child.End()
	_, grand := StartSpan(cctx, "model.call")
	grand.AddEvent("retry.attempt", "n", "1")
	clk.advance(10 * time.Millisecond)
	grand.End()
	root.End()

	snap := tr.Snapshot()
	if snap.Kept != 1 || len(snap.Recent) != 1 {
		t.Fatalf("snapshot kept=%d recent=%d, want 1/1", snap.Kept, len(snap.Recent))
	}
	trace := snap.Recent[0]
	if len(trace.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(trace.Spans), trace.Spans)
	}
	byName := map[string]SpanData{}
	for _, s := range trace.Spans {
		if s.TraceID != trace.TraceID {
			t.Errorf("span %s trace id %s, want %s", s.Name, s.TraceID, trace.TraceID)
		}
		byName[s.Name] = s
	}
	if byName["cache.lookup"].ParentID != byName["serve"].SpanID {
		t.Errorf("cache.lookup parent = %s, want serve's span id %s",
			byName["cache.lookup"].ParentID, byName["serve"].SpanID)
	}
	if byName["model.call"].ParentID != byName["cache.lookup"].SpanID {
		t.Errorf("model.call parent = %s, want cache.lookup's span id %s",
			byName["model.call"].ParentID, byName["cache.lookup"].SpanID)
	}
	if byName["serve"].DurationMs != 15 {
		t.Errorf("root duration = %vms, want 15", byName["serve"].DurationMs)
	}
	if byName["cache.lookup"].Status != "hit" {
		t.Errorf("cache.lookup status = %q, want hit", byName["cache.lookup"].Status)
	}
	if ev := byName["model.call"].Events; len(ev) != 1 || ev[0].Name != "retry.attempt" {
		t.Errorf("model.call events = %+v, want one retry.attempt", ev)
	}
}

func TestStartSpanWithoutTracerIsNoOp(t *testing.T) {
	ctx := context.Background()
	octx, span := StartSpan(ctx, "orphan")
	if span != nil {
		t.Fatal("StartSpan without a tracer returned a non-nil span")
	}
	if octx != ctx {
		t.Fatal("StartSpan without a tracer changed the context")
	}
	// All nil-span methods must be safe.
	span.SetAttr("k", "v")
	span.SetAttrInt("n", 1)
	span.SetAttrBool("b", true)
	span.AddEvent("e")
	span.SetError(nil)
	span.SetStatus("s")
	span.End()
	if span.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	AddEvent(ctx, "e") // package-level helper, same guarantee
}

func TestRemoteParentContinuation(t *testing.T) {
	tr := newTestTracer(TraceConfig{})
	remote := SpanContext{
		TraceID: TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		SpanID:  SpanID{8, 7, 6, 5, 4, 3, 2, 1},
		Sampled: true,
	}
	ctx := ContextWithRemote(context.Background(), remote)
	_, span := tr.StartSpan(ctx, "downstream")
	sc := span.Context()
	if sc.TraceID != remote.TraceID {
		t.Fatalf("continuation trace id %s, want upstream %s", sc.TraceID, remote.TraceID)
	}
	if !sc.Sampled {
		t.Fatal("continuation dropped the upstream sampled flag")
	}
	span.End()
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("kept %d traces, want 1", len(snap.Recent))
	}
	if got := snap.Recent[0].Spans[0].ParentID; got != remote.SpanID.String() {
		t.Fatalf("downstream root parent = %s, want remote span %s", got, remote.SpanID)
	}

	// An unsampled upstream verdict is honored: no error, not slow, not kept.
	remote.Sampled = false
	ctx = ContextWithRemote(context.Background(), remote)
	_, span = tr.StartSpan(ctx, "downstream2")
	span.End()
	if snap := tr.Snapshot(); snap.Discarded != 1 {
		t.Fatalf("unsampled continuation: discarded=%d, want 1", snap.Discarded)
	}
}

func TestHeadSamplingAndPromotion(t *testing.T) {
	clk := &testClock{t: time.Unix(1700000000, 0)}
	tr := newTestTracer(TraceConfig{SampleEvery: -1, Now: clk.now, SlowThreshold: 100 * time.Millisecond})

	// Head sampling disabled: a clean fast trace is discarded.
	_, s := tr.StartSpan(context.Background(), "fast")
	s.End()
	if snap := tr.Snapshot(); snap.Kept != 0 || snap.Discarded != 1 {
		t.Fatalf("clean fast trace: kept=%d discarded=%d, want 0/1", snap.Kept, snap.Discarded)
	}

	// An errored trace is promoted regardless of sampling.
	_, s = tr.StartSpan(context.Background(), "errored")
	s.SetError(context.DeadlineExceeded)
	s.End()
	snap := tr.Snapshot()
	if snap.Kept != 1 || !snap.Recent[0].Error {
		t.Fatalf("errored trace not promoted: %+v", snap)
	}

	// A slow trace is promoted and lands in the slowest list.
	_, s = tr.StartSpan(context.Background(), "slow")
	clk.advance(150 * time.Millisecond)
	s.End()
	snap = tr.Snapshot()
	if snap.Kept != 2 {
		t.Fatalf("slow trace not promoted: kept=%d", snap.Kept)
	}
	if len(snap.Slowest) == 0 || snap.Slowest[0].Root != "slow" {
		t.Fatalf("slowest list = %+v, want slow first", snap.Slowest)
	}
}

func TestSampleEveryN(t *testing.T) {
	tr := newTestTracer(TraceConfig{SampleEvery: 4})
	kept := 0
	for i := 0; i < 12; i++ {
		_, s := tr.StartSpan(context.Background(), "r")
		s.End()
		if s.Context().Sampled {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("SampleEvery=4 over 12 roots sampled %d, want 3", kept)
	}
	if snap := tr.Snapshot(); snap.Kept != 3 || snap.Discarded != 9 {
		t.Fatalf("store kept=%d discarded=%d, want 3/9", snap.Kept, snap.Discarded)
	}
}

func TestStoreBounds(t *testing.T) {
	tr := newTestTracer(TraceConfig{MaxTraces: 4, MaxSlow: 2, MaxSpansPerTrace: 2})
	for i := 0; i < 10; i++ {
		ctx, root := tr.StartSpan(context.Background(), "root")
		for j := 0; j < 5; j++ {
			_, c := StartSpan(ctx, "child")
			c.End()
		}
		root.End()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap.Recent))
	}
	if len(snap.Slowest) != 2 {
		t.Fatalf("slow list holds %d, want 2", len(snap.Slowest))
	}
	for _, tr := range snap.Recent {
		if len(tr.Spans) != 2 {
			t.Fatalf("trace buffered %d spans, want cap 2", len(tr.Spans))
		}
		// 5 children + 1 root = 6 ended spans, 2 stored.
		if tr.Dropped != 4 {
			t.Fatalf("trace dropped %d spans, want 4", tr.Dropped)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := newTestTracer(TraceConfig{})
	_, s := tr.StartSpan(context.Background(), "once")
	s.End()
	s.End()
	s.End()
	if snap := tr.Snapshot(); snap.Kept != 1 || len(snap.Recent[0].Spans) != 1 {
		t.Fatalf("repeated End duplicated the trace: %+v", snap)
	}
}

// TestTraceDurationIsTheRootSpans: the trace's duration is the root
// span's, whatever the clock difference — it used to be read back from
// the span's float milliseconds, which loses a nanosecond on about one
// duration in fifty (249ns came back as 248).
func TestTraceDurationIsTheRootSpans(t *testing.T) {
	clk := &testClock{t: time.Unix(1700000000, 0)}
	tr := newTestTracer(TraceConfig{Now: clk.now})
	for _, d := range []time.Duration{249, 251, 489, 1234567, 15 * time.Millisecond} {
		_, root := tr.StartSpan(context.Background(), "root")
		clk.advance(d)
		root.End()
		trace := tr.Snapshot().Recent[0]
		if want := durationMs(d); trace.DurationMs != want || trace.Spans[0].DurationMs != want {
			t.Errorf("root of %v: trace duration_ms %v, root span's %v, want %v", d, trace.DurationMs, trace.Spans[0].DurationMs, want)
		}
	}
}

// TestSnapshotRacesLiveTraces reads the store while the traces in it are
// still in use: a child ends after its root did, setters are called on
// spans that have ended. Run under -race; what a snapshot shows of a
// span must be the span as it ended.
func TestSnapshotRacesLiveTraces(t *testing.T) {
	tr := NewTracer(TraceConfig{MaxTraces: 8, MaxSlow: 4, SlowThreshold: time.Nanosecond})
	stop := make(chan struct{})
	var reader, writers sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := tr.Snapshot()
			for _, trace := range append(snap.Recent, snap.Slowest...) {
				for _, sp := range trace.Spans {
					if sp.TraceID != trace.TraceID {
						t.Errorf("span %s of trace %s carries trace id %s", sp.Name, trace.TraceID, sp.TraceID)
					}
					for _, a := range sp.Attrs {
						if a.Key == "after" {
							t.Errorf("span %s shows an attribute set after it ended", sp.Name)
						}
					}
					if sp.Name == "child" && (len(sp.Attrs) != 3 || len(sp.Events) != 1 || sp.Status != "done") {
						t.Errorf("child span read torn: %+v", sp)
					}
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				ctx, root := tr.StartSpan(context.Background(), "root")
				_, late := StartSpan(ctx, "late")
				_, child := StartSpan(ctx, "child")
				child.SetAttr("a", "1")
				child.SetAttr("b", "2")
				child.SetAttrInt("c", 3) // outgrows the span's own room
				child.AddEvent("ev", "k", "v")
				child.SetStatus("done")
				child.End()
				root.SetAttr("http.status", "200")
				root.End()
				// The trace is in the store from here on.
				child.SetAttr("after", "end")
				child.SetStatus("after end")
				root.SetAttr("after", "end")
				late.SetAttr("ended", "after root")
				late.SetError(errors.New("late"))
				late.End()
				late.SetAttr("after", "end")
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()
}

func TestIDGenNonZeroAndUnique(t *testing.T) {
	var g idGen
	g.init(0) // random base path
	seen := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		id := g.spanID()
		if id.IsZero() {
			t.Fatal("generated an all-zero span id")
		}
		if seen[id] {
			t.Fatalf("duplicate span id %s", id)
		}
		seen[id] = true
	}
	if g.traceID().IsZero() {
		t.Fatal("generated an all-zero trace id")
	}
}

// FuzzParseTraceparent: the header arrives from any client, so parsing
// must not panic on any string, and whatever it accepts must be a valid
// context that survives rendering and a second parse unchanged — the
// value this hop forwards continues the same trace.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",
		"00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected the value but returned %+v", v, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", v, sc)
		}
		again, ok := ParseTraceparent(sc.Traceparent())
		if !ok || again != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its rendering %q parses to %+v, %v", v, sc, sc.Traceparent(), again, ok)
		}
	})
}
