package obs

import (
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// TextContentType is the Prometheus text exposition content type.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the content type writeOpenMetrics serves
// under — the OpenMetrics 1.0 text format, which is where exemplars
// live (the 0.0.4 format has no syntax for them).
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Family is one metric family — the # HELP / # TYPE header plus every
// sample line under it — and the one form metrics travel in: Gather
// produces it, ParseExposition reads it back from another process's
// scrape, MergeExpositions combines it, Write renders it.
type Family struct {
	Name string
	Help string
	// Type is the TYPE line's value — counter, gauge, histogram,
	// summary, or untyped when an exposition never declared one.
	Type    string
	Samples []Sample
}

// Sample is one exposition line of its family. A histogram's series are
// plain samples told apart by Suffix ("_bucket" with the bound as a
// trailing le label, "_sum", "_count"), which is exactly what a
// re-render or a merge needs; other samples have an empty Suffix.
type Sample struct {
	Suffix string
	Labels []Attr
	Value  float64
	// Exemplar, on a gathered _bucket sample, is the last sampled
	// observation that fell in that bucket; the zero value means none.
	Exemplar Exemplar
}

// Exemplar links one observed value to the trace that produced it, in
// the OpenMetrics sense, so a slow p99 bucket resolves to a span in
// /debug/traces.
type Exemplar struct {
	TraceID string
	Value   float64
}

// WriteText renders the registry in Prometheus text exposition format
// 0.0.4. The output is deterministic for a given registry state.
func (r *Registry) WriteText(w io.Writer) error { return Write(w, r.Gather(), false) }

// writeOpenMetrics renders the same exposition in OpenMetrics flavor,
// the only one with syntax for trace-ID exemplars.
func (r *Registry) writeOpenMetrics(w io.Writer) error { return Write(w, r.Gather(), true) }

// Write renders fams in the order given: per family a HELP line (when
// there is help), a TYPE line, then one `name[suffix]{labels} value`
// line per sample. With openMetrics, samples that carry an exemplar
// gain a ` # {trace_id="..."} value` suffix and the output ends with
// the mandatory `# EOF`; nothing else differs between the two flavors.
func Write(w io.Writer, fams []Family, openMetrics bool) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.Name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.Help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Type)
		b.WriteByte('\n')
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			writeLabels(&b, s.Labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			if openMetrics && s.Exemplar.TraceID != "" {
				b.WriteString(` # {trace_id="`)
				b.WriteString(escapeLabel(s.Exemplar.TraceID))
				b.WriteString(`"} `)
				b.WriteString(formatValue(s.Exemplar.Value))
			}
			b.WriteByte('\n')
		}
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders the {k="v",...} block; no labels renders nothing.
func writeLabels(b *strings.Builder, labels []Attr) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// sortSamples orders a family's samples by label signature. The sort is
// stable and a _bucket sample's le does not count, so the series of one
// histogram child stay together in the order they were produced.
func sortSamples(samples []Sample) {
	type keyed struct {
		sig string
		Sample
	}
	ks := make([]keyed, len(samples))
	for i, s := range samples {
		var b strings.Builder
		for _, l := range s.Labels {
			if s.Suffix == "_bucket" && l.Key == "le" {
				continue
			}
			b.WriteString(l.Key)
			b.WriteByte('\x00')
			b.WriteString(l.Value)
			b.WriteByte('\x00')
		}
		ks[i] = keyed{b.String(), s}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return strings.Compare(a.sig, b.sig) })
	for i, k := range ks {
		samples[i] = k.Sample
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry in text exposition format; mount at
// GET /metricsz. A scrape asking for OpenMetrics (Accept:
// application/openmetrics-text, or ?exemplars=1 for humans) gets
// writeOpenMetrics, the only flavor that carries trace-ID exemplars.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("exemplars") == "1" ||
			strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			if err := r.writeOpenMetrics(w); err != nil {
				log.Printf("obs: writing metrics: %v", err)
			}
			return
		}
		w.Header().Set("Content-Type", TextContentType)
		if err := r.WriteText(w); err != nil {
			log.Printf("obs: writing metrics: %v", err)
		}
	})
}
