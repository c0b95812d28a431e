package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tracesGoldenRun is one scripted run of the tracer on a pinned clock
// and seeded ids. It returns every text the tracer lets out of the
// process: the traceparent Inject writes and the id TraceIDFromContext
// reads under each span as it starts, then the /debug/traces body.
func tracesGoldenRun(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	clk := &testClock{t: time.Unix(1700000000, 0).UTC()}
	tr := NewTracer(TraceConfig{
		Now:              clk.now,
		IDSeed:           20,
		SlowThreshold:    100 * time.Millisecond,
		MaxTraces:        32,
		MaxSlow:          4,
		MaxSpansPerTrace: 12,
	})
	note := func(ctx context.Context, label string) {
		h := http.Header{}
		Inject(ctx, h)
		id, sampled := TraceIDFromContext(ctx)
		fmt.Fprintf(&out, "%s: traceparent=%q trace_id=%q sampled=%v\n", label, h.Get(TraceparentHeader), id, sampled)
	}
	remote := func(n byte, flags string) context.Context {
		v := fmt.Sprintf("00-4bf92f3577b34da6a3ce929d0e0e47%02x-00f067aa0ba902%02x-%s", n, n, flags)
		sc, ok := ParseTraceparent(v)
		if !ok {
			t.Fatalf("script traceparent %q does not parse", v)
		}
		return ContextWithRemote(context.Background(), sc)
	}
	// dress sets n attributes, and one event for every two of them, the
	// second with attributes of its own.
	dress := func(s *Span, n int) {
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				s.SetAttr("k"+strconv.Itoa(i), "v"+strconv.Itoa(i))
			case 1:
				s.SetAttrInt("n"+strconv.Itoa(i), int64(1000*i))
			case 2:
				s.SetAttrBool("b"+strconv.Itoa(i), i%2 == 0)
			}
			if i%2 == 1 {
				clk.advance(1500 * time.Nanosecond)
				if i == 1 {
					s.addEvent("ev.plain")
				} else {
					s.addEvent("ev.kv", "attempt", strconv.Itoa(i), "odd")
				}
			}
		}
	}
	attrCounts := []int{0, 2, 3, 5}

	// Roots with 0..9 children, fresh and continued in turn; each third
	// child hangs off the one before it. The tick is an odd number of
	// nanoseconds so durations do not land on round milliseconds.
	for k := 0; k <= 9; k++ {
		label := "fresh" + strconv.Itoa(k)
		ctx := context.Background()
		if k%2 == 1 {
			label = "continued" + strconv.Itoa(k)
			ctx = remote(byte(k), "01")
			note(ctx, label+" before root")
		}
		ctx, root := tr.StartSpan(ctx, "root "+label)
		note(ctx, label)
		dress(root, attrCounts[k%4])
		parent := ctx
		for i := 0; i < k; i++ {
			cctx, child := StartSpan(parent, "child"+strconv.Itoa(i))
			note(cctx, label+"/child"+strconv.Itoa(i))
			dress(child, attrCounts[(k+i+1)%4])
			if i%2 == 0 {
				child.SetStatus("hit")
			}
			clk.advance(time.Duration(333333*(i+1)+7*k) * time.Nanosecond)
			parent = ctx
			if i%3 == 1 {
				parent = cctx
			}
			child.End()
		}
		clk.advance(1234567 * time.Nanosecond)
		root.End()
	}

	// An unsampled trace that stays clean and fast is discarded.
	ctx, root := tr.StartSpan(remote(0xa0, "00"), "root unsampled-clean")
	note(ctx, "unsampled-clean")
	_, child := StartSpan(ctx, "child")
	clk.advance(time.Millisecond)
	child.End()
	root.End()

	// An errored child promotes an unsampled trace.
	ctx, root = tr.StartSpan(remote(0xa1, "00"), "root unsampled-errored")
	note(ctx, "unsampled-errored")
	_, child = StartSpan(ctx, "child")
	child.SetError(errors.New("upstream refused"))
	clk.advance(2 * time.Millisecond)
	child.End()
	root.SetAttrInt("http.status", 502)
	root.End()

	// Slow roots, more of them than MaxSlow, two of them equally slow.
	for i, d := range []time.Duration{
		150*time.Millisecond + 1, 400 * time.Millisecond, 120*time.Millisecond + 333,
		400 * time.Millisecond, 250*time.Millisecond + 999999, 100 * time.Millisecond,
	} {
		ctx, root = tr.StartSpan(remote(byte(0xb0+i), "00"), "root slow"+strconv.Itoa(i))
		note(ctx, "slow"+strconv.Itoa(i))
		clk.advance(d)
		root.End()
	}

	// A child ended after its root, a child never ended, and every
	// setter called again after End.
	ctx, root = tr.StartSpan(context.Background(), "root stragglers")
	note(ctx, "stragglers")
	_, late := StartSpan(ctx, "late")
	_, never := StartSpan(ctx, "never-ended")
	never.SetAttr("seen", "no")
	_, done := StartSpan(ctx, "done")
	done.SetAttr("kept", "yes")
	clk.advance(3 * time.Millisecond)
	done.End()
	done.SetAttr("after", "end")
	done.SetAttrInt("after.n", 1)
	done.SetStatus("after end")
	done.addEvent("after.end")
	done.End()
	clk.advance(time.Millisecond)
	root.End()
	root.SetAttr("after", "end")
	clk.advance(5 * time.Millisecond)
	late.SetAttr("ended", "after root")
	late.End()

	// SetError after End leaves the span as it ended and still marks the
	// trace errored.
	ctx, root = tr.StartSpan(context.Background(), "root error-after-end")
	note(ctx, "error-after-end")
	_, child = StartSpan(ctx, "child")
	clk.advance(time.Millisecond)
	child.End()
	root.End()
	child.SetError(errors.New("too late for the span"))

	// More spans than MaxSpansPerTrace.
	ctx, root = tr.StartSpan(context.Background(), "root overfull")
	note(ctx, "overfull")
	for i := 0; i < 15; i++ {
		_, child = StartSpan(ctx, "child"+strconv.Itoa(i))
		clk.advance(10 * time.Microsecond)
		child.End()
	}
	root.End()

	// No span at all: a remote parent alone, and nothing.
	note(remote(0xc0, "01"), "remote only")
	note(remote(0xc1, "00"), "remote only unsampled")
	note(context.Background(), "empty")

	body, err := json.MarshalIndent(tr.Snapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out.Write(body)
	out.WriteByte('\n')
	return out.String()
}

// TestTracesGolden replays the scripted run against
// testdata/traces.golden, which the code before a span became its own
// record wrote: what /debug/traces, traceparent and the access line's
// trace id read must not depend on how a finished span is stored.
func TestTracesGolden(t *testing.T) {
	got := tracesGoldenRun(t)
	path := filepath.Join("testdata", "traces.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("traces drifted from the golden file at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("traces drifted from the golden file: %d lines, want %d", len(gl), len(wl))
	}
}
