package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestObserveExemplarOpenMetricsOutput(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pas_test_latency_seconds", "test latencies",
		[]float64{0.01, 0.1, 1}, "path", "/v1/augment")
	h.ObserveExemplar(0.005, "aaaabbbbccccdddd0000111122223333")
	h.ObserveExemplar(0.5, "ffffeeeeddddcccc0000111122223333")
	h.ObserveExemplar(5, "99998888777766660000111122223333") // +Inf slot
	h.Observe(0.02)                                          // no exemplar

	var om strings.Builder
	if err := reg.writeOpenMetrics(&om); err != nil {
		t.Fatalf("writeOpenMetrics: %v", err)
	}
	out := om.String()

	wants := []string{
		`le="0.01"} 1 # {trace_id="aaaabbbbccccdddd0000111122223333"} 0.005`,
		`le="1"} 3 # {trace_id="ffffeeeeddddcccc0000111122223333"} 0.5`,
		`le="+Inf"} 4 # {trace_id="99998888777766660000111122223333"} 5`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q\n%s", want, out)
		}
	}
	// The 0.1 bucket saw only the exemplar-less Observe(0.02): its
	// cumulative count includes it but no exemplar suffix is attached.
	if !strings.Contains(out, "le=\"0.1\"} 2\n") {
		t.Errorf("expected bare le=\"0.1\" bucket line with count 2\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output must end with # EOF, got tail %q", out[max(0, len(out)-40):])
	}

	// The 0.0.4 exposition must stay exemplar-free: every # starts a
	// HELP/TYPE comment line, never a mid-line exemplar.
	var txt strings.Builder
	if err := reg.WriteText(&txt); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, line := range strings.Split(txt.String(), "\n") {
		if i := strings.IndexByte(line, '#'); i > 0 {
			t.Errorf("WriteText line has mid-line #: %q", line)
		}
	}
	if strings.Contains(txt.String(), "trace_id") {
		t.Errorf("WriteText output leaked exemplars:\n%s", txt.String())
	}
}

func TestParseExpositionTolerantOfExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pas_test_seconds", "test", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "0af7651916cd43dd8448eb211c80319c")
	h.ObserveExemplar(2, "b7ad6b7169203331aaaabbbbccccdddd")
	reg.Counter("pas_test_total", "count").Add(3)

	var om strings.Builder
	if err := reg.writeOpenMetrics(&om); err != nil {
		t.Fatalf("writeOpenMetrics: %v", err)
	}
	fams, err := ParseExposition(strings.NewReader(om.String()))
	if err != nil {
		t.Fatalf("ParseExposition of OpenMetrics output: %v\n%s", err, om.String())
	}
	byName := make(map[string]Family)
	for _, f := range fams {
		byName[f.Name] = f
	}
	hist, ok := byName["pas_test_seconds"]
	if !ok {
		t.Fatalf("pas_test_seconds not parsed; families: %v", fams)
	}
	var count float64 = -1
	for _, s := range hist.Samples {
		if s.Suffix == "_count" {
			count = s.Value
		}
	}
	if count != 2 {
		t.Errorf("parsed _count = %v, want 2", count)
	}
	if c, ok := byName["pas_test_total"]; !ok || len(c.Samples) != 1 || c.Samples[0].Value != 3 {
		t.Errorf("pas_test_total parsed wrong: %+v", byName["pas_test_total"])
	}
}

func TestMetricsHandlerNegotiatesOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pas_neg_seconds", "test", []float64{1})
	h.ObserveExemplar(0.5, "1234567890abcdef1234567890abcdef")

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	get := func(path string, accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String(), resp.Header.Get("Content-Type")
	}

	body, ct := get("/", "")
	if ct != TextContentType {
		t.Errorf("default content type = %q, want %q", ct, TextContentType)
	}
	if strings.Contains(body, "trace_id") {
		t.Errorf("default scrape leaked exemplars:\n%s", body)
	}

	body, ct = get("/?exemplars=1", "")
	if ct != OpenMetricsContentType {
		t.Errorf("?exemplars=1 content type = %q, want %q", ct, OpenMetricsContentType)
	}
	if !strings.Contains(body, `trace_id="1234567890abcdef1234567890abcdef"`) {
		t.Errorf("?exemplars=1 scrape missing exemplar:\n%s", body)
	}

	body, ct = get("/", "application/openmetrics-text; version=1.0.0")
	if ct != OpenMetricsContentType {
		t.Errorf("Accept-negotiated content type = %q, want %q", ct, OpenMetricsContentType)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("Accept-negotiated body missing # EOF terminator")
	}
}
