package obs

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(name, help, "counter", nil).child()}
}

// Histogram registers (or returns the existing) unlabeled histogram
// over the given bucket upper bounds (ascending; +Inf is implicit).
// Production code counts and times through the Vec families; these
// tests build plain instruments with these two.
func (r *Registry) Histogram(name, help string, bounds []float64) Histogram {
	in := r.register(name, help, "histogram", bounds)
	return Histogram{in.child(), in.bounds}
}

// goldenRegistry builds a registry with one of every instrument kind at
// pinned values, mirroring the families the serving stack exposes.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("pas_requests_total", "Total requests served.").Add(42)
	rv := r.CounterVec("pas_cache_ops_total", "Cache operations by verdict.", "verdict")
	rv.With("hit").Add(10)
	rv.With("miss").Add(4)
	h := r.Histogram("pas_request_seconds", "Request latency in seconds.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.RegisterCollector(func(e *Emitter) {
		e.Gauge("pas_breaker_state", "Breaker state (0 closed, 1 open).", 0, "name", "llm")
		e.Gauge("pas_inflight", "Requests currently in flight.", 3)
		e.Counter("pas_retries_total", "Retry attempts.", 7)
	})
	return r
}

func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionParses walks the scrape line-by-line as a Prometheus
// scraper would: every line is a comment or `name{labels} value`, every
// family has HELP and TYPE before its samples, names carry the pas_
// prefix, and histogram buckets are monotone and cumulative.
func TestExpositionParses(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}

	type famState struct{ help, typ bool }
	fams := map[string]*famState{}
	current := ""
	buckets := map[string][]float64{} // histogram name -> cumulative counts seen, per label sig
	var lastLE, lastCount float64
	lastSig := ""

	for ln, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			current = parts[0]
			if fams[current] != nil {
				t.Fatalf("line %d: family %s emitted twice", ln+1, current)
			}
			fams[current] = &famState{help: true}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 || parts[0] != current {
				t.Fatalf("line %d: TYPE out of order: %q (current family %s)", ln+1, line, current)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			fams[current].typ = true
			continue
		}

		// Sample line: name{labels} value
		name := ""
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			name, labels = line[:i], line[i+1:j]
			line = line[:i] + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: want `name value`, got %q", ln+1, line)
		}
		if name == "" {
			name = fields[0]
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, fields[1], err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !strings.HasPrefix(base, "pas_") {
			t.Errorf("line %d: metric %s missing pas_ prefix", ln+1, name)
		}
		if base != current {
			t.Errorf("line %d: sample %s under family %s", ln+1, name, current)
		}
		st := fams[current]
		if st == nil || !st.help || !st.typ {
			t.Fatalf("line %d: sample before HELP/TYPE: %q", ln+1, name)
		}

		if strings.HasSuffix(name, "_bucket") {
			// Monotone, cumulative buckets within one label signature.
			le := ""
			sig := ""
			for _, kv := range strings.Split(labels, ",") {
				if strings.HasPrefix(kv, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
				} else {
					sig += kv + ";"
				}
			}
			var bound float64
			if le == "+Inf" {
				bound = infLE
			} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("line %d: bad le %q", ln+1, le)
			}
			key := name + "|" + sig
			if key != lastSig {
				lastSig, lastLE, lastCount = key, -1, 0
			}
			if bound != infLE && bound <= lastLE {
				t.Errorf("line %d: bucket bounds not ascending: %v after %v", ln+1, bound, lastLE)
			}
			if val < lastCount {
				t.Errorf("line %d: bucket counts not cumulative: %v after %v", ln+1, val, lastCount)
			}
			lastLE, lastCount = bound, val
			buckets[key] = append(buckets[key], val)
		}
	}

	for name, st := range fams {
		if !st.help || !st.typ {
			t.Errorf("family %s missing HELP or TYPE", name)
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
}

const infLE = 1e308

func TestHistogramCumulativeCounts(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pas_h", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`pas_h_bucket{le="1"} 1`,
		`pas_h_bucket{le="2"} 2`,
		`pas_h_bucket{le="4"} 3`,
		`pas_h_bucket{le="+Inf"} 4`,
		`pas_h_sum 105`,
		`pas_h_count 4`,
	}
	out := b.String()
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}
}

func TestRegistryReRegister(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("pas_x_total", "x")
	c2 := r.Counter("pas_x_total", "x")
	c1.Inc()
	c2.Inc()
	if got := r.Gather()[0].Samples[0].Value; got != 2 {
		t.Fatalf("re-registered counter is a different instrument: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Histogram("pas_x_total", "x", nil)
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("pas_esc_total", "esc", "path").With(`a"b\c` + "\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `pas_esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("escaped label missing; got:\n%s", b.String())
	}
}

func TestResponseRecorderWrapOnce(t *testing.T) {
	inner := httptest.NewRecorder()
	rr := WrapResponseWriter(inner)
	if again := WrapResponseWriter(rr); again != rr {
		t.Fatal("WrapResponseWriter re-wrapped an existing recorder")
	}
	if rr.StatusOr200() != http.StatusOK {
		t.Fatalf("StatusOr200 before write = %d", rr.StatusOr200())
	}
	if rr.Status() != 0 {
		t.Fatalf("StatusOr200 mutated the recorder: Status() = %d", rr.Status())
	}
	if _, err := rr.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if rr.Status() != http.StatusOK || rr.BytesWritten() != 5 {
		t.Fatalf("after write: status=%d bytes=%d", rr.Status(), rr.BytesWritten())
	}

	rr2 := WrapResponseWriter(httptest.NewRecorder())
	rr2.WriteHeader(http.StatusTeapot)
	if rr2.Status() != http.StatusTeapot {
		t.Fatalf("explicit status lost: %d", rr2.Status())
	}
}

// TestEmitterFields: a tagged field is one sample (a bool 0 or 1, a
// name{k=v} carrying its label), an untagged struct is walked in
// place, an "each" slice labels every element's samples, and every
// other field is left out.
func TestEmitterFields(t *testing.T) {
	type inner struct {
		Hits int64 `metric:"counter hits_total Hits."`
	}
	type row struct {
		ID    string
		Depth int `metric:"gauge row_depth Depth, by row."`
	}
	type snapshot struct {
		Up      bool    `metric:"gauge up Up."`
		Down    bool    `metric:"gauge down Down."`
		Full    int64   `metric:"counter shed_total{reason=full} Sheds."`
		Late    int64   `metric:"counter shed_total{reason=late} Sheds."`
		Ratio   float64 `metric:"gauge ratio Ratio."`
		Skipped int64
		Inner   inner
		Rows    []row `metric:"each row ID"`
	}
	e := &Emitter{index: map[string]int{}}
	e.Fields("pas_x_", snapshot{Up: true, Full: 2, Late: 3, Ratio: 0.5, Skipped: 9, Inner: inner{Hits: 4},
		Rows: []row{{"a", 1}, {"b", 2}}})
	var got []string
	for _, f := range e.fams {
		for _, s := range f.Samples {
			line := f.Type + " " + f.Name
			for _, l := range s.Labels {
				line += " " + l.Key + "=" + l.Value
			}
			got = append(got, line+" "+strconv.FormatFloat(s.Value, 'g', -1, 64)+" "+f.Help)
		}
	}
	want := []string{
		"gauge pas_x_up 1 Up.",
		"gauge pas_x_down 0 Down.",
		"counter pas_x_shed_total reason=full 2 Sheds.",
		"counter pas_x_shed_total reason=late 3 Sheds.",
		"gauge pas_x_ratio 0.5 Ratio.",
		"counter pas_x_hits_total 4 Hits.",
		"gauge pas_x_row_depth row=a 1 Depth, by row.",
		"gauge pas_x_row_depth row=b 2 Depth, by row.",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Fields emitted\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
