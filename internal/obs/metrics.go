package obs

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Registry is the process-wide metrics registry: a list of scrape-time
// collectors. Every number is held by its owner — a counter it already
// keeps, a gauge it reads, a Histogram it observes into — and its
// owner's collector emits it when /metricsz is scraped; Gather snapshots
// the collectors into []Family and Write renders that, so one Registry
// feeds one /metricsz. Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// Collector emits scrape-time samples into e; registered with
// RegisterCollector. It runs under the registry's scrape, so it must
// not block on slow work.
type Collector func(e *Emitter)

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCollector adds a scrape-time sample source; it runs on every
// scrape.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Histogram is a bounded-bucket distribution (cumulative buckets plus
// sum and count, the Prometheus shape), held by the code that observes
// into it and emitted by that code's collector (Emitter.Histogram).
type Histogram struct {
	bounds []float64

	// buckets holds per-bucket (not cumulative) counts, len(bounds)+1
	// with the last slot for +Inf; exemplars, the most recent exemplar
	// per bucket, has the same shape and stays nil until the first
	// ObserveExemplar with a trace id.
	mu        sync.Mutex
	buckets   []int64
	sum       float64
	exemplars []Exemplar
}

// NewHistogram creates a histogram over bounds, the ascending bucket
// upper bounds (+Inf is implicit).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]int64, len(bounds)+1)}
}

// Observe records one value: one bucket increment under the
// histogram's own mutex, no allocation.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and, when traceID is non-empty,
// attaches it as the exemplar of the bucket the value falls in,
// replacing that bucket's previous one. Exemplars appear only in the
// OpenMetrics exposition (writeOpenMetrics); WriteText stays
// 0.0.4-clean.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	slot := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) is +Inf
	h.mu.Lock()
	h.buckets[slot]++
	h.sum += v
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.bounds)+1)
		}
		h.exemplars[slot] = Exemplar{TraceID: traceID, Value: v}
	}
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, b := range h.buckets {
		n += b
	}
	return n
}

// DefaultLatencyBuckets are exposition bounds for request latencies in
// seconds, 1ms to 10s.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Emitter receives one scrape's samples from the collectors;
// same-named families merge.
type Emitter struct {
	fams  []Family
	index map[string]int
}

// family returns the named family, valid until the next call.
func (e *Emitter) family(name, help, typ string) *Family {
	i, ok := e.index[name]
	if !ok {
		i = len(e.fams)
		e.index[name] = i
		e.fams = append(e.fams, Family{Name: name, Help: help, Type: typ})
	}
	return &e.fams[i]
}

func (e *Emitter) emit(name, help, typ string, value float64, labels []string) {
	f := e.family(name, help, typ)
	f.Samples = append(f.Samples, Sample{Labels: pairs(labels), Value: value})
}

// pairs reads key/value pairs as labels.
func pairs(labels []string) []Attr {
	var attrs []Attr
	for i := 0; i+1 < len(labels); i += 2 {
		attrs = append(attrs, Attr{Key: labels[i], Value: labels[i+1]})
	}
	return attrs
}

// Counter emits one counter sample; labels lists key/value pairs.
func (e *Emitter) Counter(name, help string, value float64, labels ...string) {
	e.emit(name, help, "counter", value, labels)
}

// Gauge emits one gauge sample; labels lists key/value pairs.
func (e *Emitter) Gauge(name, help string, value float64, labels ...string) {
	e.emit(name, help, "gauge", value, labels)
}

// Histogram emits h as one child of the named histogram family; labels
// lists key/value pairs. The child is its cumulative _bucket series (le
// last, +Inf equal to _count, each carrying its bucket's exemplar), then
// _sum and _count.
func (e *Emitter) Histogram(name, help string, h *Histogram, labels ...string) {
	h.mu.Lock()
	buckets := append([]int64(nil), h.buckets...)
	exemplars := append([]Exemplar(nil), h.exemplars...)
	sum := h.sum
	h.mu.Unlock()

	attrs := pairs(labels)
	f := e.family(name, help, "histogram")
	var count int64
	for i, n := range buckets {
		count += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		s := Sample{Suffix: "_bucket", Value: float64(count),
			Labels: append(attrs[:len(attrs):len(attrs)], Attr{Key: "le", Value: le})}
		if exemplars != nil {
			s.Exemplar = exemplars[i]
		}
		f.Samples = append(f.Samples, s)
	}
	f.Samples = append(f.Samples,
		Sample{Suffix: "_sum", Labels: attrs, Value: sum},
		Sample{Suffix: "_count", Labels: attrs, Value: float64(count)})
}

// Fields emits the struct v as samples named under prefix, so a
// snapshot declares each series once, beside its JSON key:
//
//   - a field tagged `metric:"counter|gauge name help"` is one sample,
//     a bool reading 0 or 1; name may end in one constant label,
//     name{key=value};
//   - an untagged struct field is walked in place;
//   - a slice of structs tagged `metric:"each key Field"` is walked once
//     per element, each sample labelled key with the element's Field.
//
// Other fields are not metrics. A malformed tag panics on first scrape.
func (e *Emitter) Fields(prefix string, v any) { e.fields(prefix, reflect.ValueOf(v), nil) }

func (e *Emitter) fields(prefix string, v reflect.Value, labels []string) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		kind, rest, _ := strings.Cut(v.Type().Field(i).Tag.Get("metric"), " ")
		switch kind {
		case "":
			if f.Kind() == reflect.Struct {
				e.fields(prefix, f, labels)
			}
		case "each":
			key, field, _ := strings.Cut(rest, " ")
			for j := 0; j < f.Len(); j++ {
				el := f.Index(j)
				e.fields(prefix, el, append(slices.Clip(labels), key, el.FieldByName(field).String()))
			}
		case "counter", "gauge":
			name, help, _ := strings.Cut(rest, " ")
			l := labels
			if n, kv, ok := strings.Cut(strings.TrimSuffix(name, "}"), "{"); ok {
				k, v, _ := strings.Cut(kv, "=")
				name, l = n, append(slices.Clip(labels), k, v)
			}
			e.emit(prefix+name, help, kind, number(f), l)
		default:
			panic(fmt.Sprintf("obs: field %s: metric kind %q", v.Type().Field(i).Name, kind))
		}
	}
}

// number reads an integer, float or bool field as a sample value.
func number(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanFloat():
		return v.Float()
	case v.Kind() == reflect.Bool && v.Bool():
		return 1
	case v.Kind() == reflect.Bool:
		return 0
	}
	panic(fmt.Sprintf("obs: a %s is not a metric value", v.Type()))
}

// Gather runs the collectors and returns what they emitted in
// exposition order: families sorted by name, each one's samples by label
// signature with a histogram child's series kept together. A family
// exists only once a sample is emitted into it.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	e := &Emitter{index: make(map[string]int)}
	for _, c := range collectors {
		c(e)
	}
	for _, f := range e.fams {
		sortSamples(f.Samples)
	}
	sort.Slice(e.fams, func(i, j int) bool { return e.fams[i].Name < e.fams[j].Name })
	return e.fams
}
