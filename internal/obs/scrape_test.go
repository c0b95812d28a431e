package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// registryText renders a registry the same way /metricsz does.
func registryText(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestParseRoundTrip: ParseExposition consumes exactly what WriteText
// produces — counters, labeled gauges, histogram series and escaped
// label values all survive the trip.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pas_requests_total", "Total requests.").Add(41)
	r.RegisterCollector(func(e *Emitter) {
		e.Gauge("pas_member_state", "Member state.", 2, "replica", `http://a:1`)
		e.Gauge("pas_member_state", "Member state.", 1, "replica", "weird\"quote\nnewline\\slash")
	})
	h := r.Histogram("pas_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	fams, err := ParseExposition(strings.NewReader(registryText(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	c, ok := byName["pas_requests_total"]
	if !ok || c.Type != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != 41 {
		t.Fatalf("counter family wrong: %+v", c)
	}
	if c.Help != "Total requests." {
		t.Fatalf("help = %q", c.Help)
	}

	g := byName["pas_member_state"]
	if g.Type != "gauge" || len(g.Samples) != 2 {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	found := false
	for _, s := range g.Samples {
		if len(s.Labels) == 1 && s.Labels[0].Value == "weird\"quote\nnewline\\slash" {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label value did not round-trip: %+v", g.Samples)
	}

	hist := byName["pas_latency_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram type = %q", hist.Type)
	}
	// 2 finite buckets + +Inf bucket + sum + count = 5 series.
	if len(hist.Samples) != 5 {
		t.Fatalf("histogram series = %d, want 5: %+v", len(hist.Samples), hist.Samples)
	}
	for _, s := range hist.Samples {
		if s.Suffix == "_count" && s.Value != 3 {
			t.Fatalf("histogram count = %v, want 3", s.Value)
		}
		if s.Suffix == "" {
			t.Fatalf("histogram series %+v not folded to its family", s)
		}
	}
}

// TestParseMalformed: broken sample lines fail with the line number
// rather than silently dropping data.
func TestParseMalformed(t *testing.T) {
	cases := []string{
		"pas_x{le=\"0.1\" 3",            // unterminated label block
		"pas_x not-a-number",            // bad value
		"pas_x{oops} 1",                 // label without '='
		"pas_x{k=\"v} 1",                // unterminated quote
		"{} 1",                          // no metric name
		"# TYPE pas_x\npas_x oop",       // TYPE missing the type, then bad value
		"pas_x 1\n# TYPE pas_x counter", // TYPE after the family's samples
	}
	for _, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseExposition(%q) succeeded, want error", in)
		}
	}
	// Empty input and bare comments are fine.
	if fams, err := ParseExposition(strings.NewReader("\n# just a comment\n")); err != nil || len(fams) != 0 {
		t.Fatalf("comment-only exposition: %v %v", fams, err)
	}
}

// TestMergeExpositions: two members' scrapes fold into one exposition
// where every series carries its instance label and both values are
// present — and the merged output renders and re-parses cleanly.
func TestMergeExpositions(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("pas_serving_cache_hits_total", "Cache hits.").Add(10)
	r2.Counter("pas_serving_cache_hits_total", "Cache hits.").Add(4)
	r2.Counter("pas_only_on_two_total", "Loner.").Add(1)

	parse := func(r *Registry) []Family {
		t.Helper()
		fams, err := ParseExposition(strings.NewReader(registryText(t, r)))
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	merged := MergeExpositions([]ScrapedExposition{
		{Instance: "http://a:1", Families: parse(r1)},
		{Instance: "http://b:1", Families: parse(r2)},
	})

	byName := map[string]Family{}
	for _, f := range merged {
		byName[f.Name] = f
	}
	hits := byName["pas_serving_cache_hits_total"]
	if len(hits.Samples) != 2 {
		t.Fatalf("merged hits series = %d, want 2", len(hits.Samples))
	}
	got := map[string]float64{}
	for _, s := range hits.Samples {
		if len(s.Labels) == 0 || s.Labels[0].Key != "instance" {
			t.Fatalf("sample missing leading instance label: %+v", s)
		}
		got[s.Labels[0].Value] = s.Value
	}
	if got["http://a:1"] != 10 || got["http://b:1"] != 4 {
		t.Fatalf("merged values = %v", got)
	}
	if len(byName["pas_only_on_two_total"].Samples) != 1 {
		t.Fatal("family present on one member only was lost")
	}

	var b strings.Builder
	if err := Write(&b, merged, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `pas_serving_cache_hits_total{instance="http://a:1"} 10`) {
		t.Fatalf("rendered rollup missing instance series:\n%s", out)
	}
	reparsed, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("merged output does not re-parse: %v\n%s", err, out)
	}
	if len(reparsed) != len(merged) {
		t.Fatalf("re-parse family count %d != %d", len(reparsed), len(merged))
	}
}

// sameFamilies is reflect.DeepEqual over []Family with values compared
// by bit pattern, so a NaN sample equals itself.
func sameFamilies(a, b []Family) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d families, want %d", len(b), len(a))
	}
	for i, fa := range a {
		fb := b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return fmt.Errorf("family %d: {%q %q %q %d samples}, want {%q %q %q %d samples}", i,
				fb.Name, fb.Help, fb.Type, len(fb.Samples), fa.Name, fa.Help, fa.Type, len(fa.Samples))
		}
		for j, sa := range fa.Samples {
			sb := fb.Samples[j]
			same := sa.Suffix == sb.Suffix && len(sa.Labels) == len(sb.Labels) && sa.Exemplar == sb.Exemplar &&
				math.Float64bits(sa.Value) == math.Float64bits(sb.Value)
			for k := 0; same && k < len(sa.Labels); k++ {
				same = sa.Labels[k] == sb.Labels[k]
			}
			if !same {
				return fmt.Errorf("family %s sample %d: %+v, want %+v", fa.Name, j, sb, sa)
			}
		}
	}
	return nil
}

// TestGatherSurvivesTheWire: for seeded random registries — counters,
// gauges, multi-child histograms with exemplars, collector-emitted
// series, label values full of the characters the format escapes —
// parsing either rendered flavor gives back exactly what Gather
// produced, exemplars aside (the parser drops them). This is what lets
// the cluster rollup treat its own registry and a scraped replica alike.
func TestGatherSurvivesTheWire(t *testing.T) {
	alphabet := []string{"a", "Z", "0", "/", " ", `"`, `\`, "\n", "n", "}", "{", ",", "=", "#", "é", "\t"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		word := func() string {
			var b strings.Builder
			for n := rng.Intn(6); n >= 0; n-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			return b.String()
		}
		values := []float64{0, 1, -2.5, 1e21, 1234567, math.Inf(1), math.NaN(), 5e-324}
		reg := NewRegistry()
		for i := 0; i < 1+rng.Intn(3); i++ {
			cv := reg.CounterVec(fmt.Sprintf("pas_c%d_total", i), "Counts \\n things,\nin two lines.", "k", "path")
			gauge := fmt.Sprintf("pas_g%d", i)
			hv := reg.HistogramVec(fmt.Sprintf("pas_h%d_seconds", i), `A "histogram".`, []float64{0.001, 0.1, 2.5}, "path")
			for n := rng.Intn(4); n >= 0; n-- {
				cv.With(word(), word()).Add(float64(rng.Intn(1000)))
				k, v := word(), values[rng.Intn(len(values))]
				reg.RegisterCollector(func(e *Emitter) { e.Gauge(gauge, "", v, "k", k) })
				h := hv.With(word())
				for m := rng.Intn(5); m > 0; m-- {
					h.ObserveExemplar(rng.Float64()*3, []string{"", "0af7651916cd43dd8448eb211c80319c"}[rng.Intn(2)])
				}
			}
		}
		reg.Histogram("pas_plain_seconds", "Unlabeled.", DefaultLatencyBuckets).Observe(0.2)
		reg.CounterVec("pas_never_used_total", "No children, so no family.", "k")
		owned := NewHistogramVec("pas_owned_seconds", "Owned by its collector.", []float64{1}, "outcome")
		owned.With("hit").Observe(0.5)
		w1, w2 := word(), word()
		reg.RegisterCollector(func(e *Emitter) {
			e.Gauge("pas_emitted", "Emitted.", 2, "b", w1)
			e.Gauge("pas_emitted", "Emitted.", 1, "a", w2)
			e.Counter("pas_c0_total", "merges with the registered family", 3, "k", "x", "path", "y")
			e.Histogram(owned)
		})

		want := reg.Gather()
		sawExemplar := false
		for i := range want {
			if want[i].Name == "pas_never_used_total" {
				t.Fatalf("seed %d: Gather kept a family with no samples", seed)
			}
			for j := range want[i].Samples {
				sawExemplar = sawExemplar || want[i].Samples[j].Exemplar.TraceID != ""
				want[i].Samples[j].Exemplar = Exemplar{}
			}
		}
		if seed == 1 && !sawExemplar {
			t.Fatal("the generator produced no exemplar; the OpenMetrics leg checks nothing")
		}
		for name, write := range map[string]func(*strings.Builder) error{
			"text":        func(b *strings.Builder) error { return reg.WriteText(b) },
			"openmetrics": func(b *strings.Builder) error { return reg.WriteOpenMetrics(b) },
		} {
			var b strings.Builder
			if err := write(&b); err != nil {
				t.Fatal(err)
			}
			got, err := ParseExposition(strings.NewReader(b.String()))
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, name, err, b.String())
			}
			if err := sameFamilies(want, got); err != nil {
				t.Fatalf("seed %d %s: parsed exposition differs from Gather: %v\n%s", seed, name, err, b.String())
			}
		}
	}
}

// FuzzParseExposition: the parser reads other replicas' bytes in the
// cluster rollup, so on any input it must not panic, and whatever it
// accepts must survive Write and a second parse unchanged — the rollup
// re-renders exactly what it read.
func FuzzParseExposition(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, seed := range []string{
		"",
		"# just a comment\n\n",
		"pas_x 1 1700000000\n",
		"pas_x{a=\"b\",c=\"d\\\"e\\\\f\\ng\"} +Inf\n",
		"# HELP pas_h two\\nlines and a \\\\n\n# TYPE pas_h histogram\npas_h_bucket{le=\"1\"} 2 # {trace_id=\"abc\"} 0.5\npas_h_bucket{le=\"+Inf\"} 3\npas_h_sum 4.5\npas_h_count 3\n# EOF\n",
		"pas_h_bucket 1\n# TYPE pas_h histogram\npas_h_bucket 2\n",
		"# TYPE pas_h histogram\n# TYPE pas_h_sum summary\npas_h_sum_count 1\npas_h_sum 2\n",
		"# TYPE pas_x counter\npas_x 1\n# TYPE pas_x gauge\n",
		"x{a = \"1\" b=\"2\",} NaN\n",
		"x{=\"\"}1\n#TYPE y a b\n",
		"pas_x{le=\"0.1\" 3",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fams, err := ParseExposition(bytes.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := Write(&b, fams, false); err != nil {
			t.Fatal(err)
		}
		again, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parsing what Write rendered: %v\n%q", err, b.String())
		}
		if err := sameFamilies(fams, again); err != nil {
			t.Fatalf("round trip changed the families: %v\nrendered %q", err, b.String())
		}
	})
}
