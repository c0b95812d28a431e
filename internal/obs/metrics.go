package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the process-wide metrics registry: registered instruments
// (counters, histograms) updated on the hot path, plus scrape-time
// collectors for subsystems that already keep their own counters and
// for every gauge (the serving core, breakers, caches, the runtime).
// Every number leaves it the same way — Gather snapshots it into
// []Family and Write renders that — so one Registry feeds one /metricsz.
// Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	instr      map[string]*instrument
	collectors []Collector
}

// Collector emits scrape-time samples into e; registered with
// RegisterCollector. It runs under the registry's scrape, so it must
// not block on slow work.
type Collector func(e *Emitter)

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{instr: make(map[string]*instrument)}
}

// instrument is one metric family and its children (one per
// label-value combination; the empty combination for unlabeled
// instruments).
type instrument struct {
	name   string
	help   string
	typ    string // "counter" or "histogram"
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	labelValues []string

	// counter value: float64 bits, atomically updated.
	bits atomic.Uint64

	// histogram state, guarded by mu. buckets holds per-bucket (not
	// cumulative) counts, len(bounds)+1 with the last slot for +Inf;
	// exemplars, the most recent exemplar per bucket, has the same
	// shape and stays nil until the first ObserveExemplar.
	mu        sync.Mutex
	buckets   []int64
	sum       float64
	exemplars []Exemplar
}

func newInstrument(name, help, typ string, bounds []float64, labels []string) *instrument {
	return &instrument{name: name, help: help, typ: typ, labels: labels, bounds: bounds,
		children: make(map[string]*child)}
}

func (r *Registry) register(name, help, typ string, bounds []float64, labels ...string) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instr[name]; ok {
		if in.typ != typ || len(in.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labels), in.typ, len(in.labels)))
		}
		return in
	}
	in := newInstrument(name, help, typ, bounds, labels)
	r.instr[name] = in
	return in
}

func (in *instrument) child(labelValues ...string) *child {
	if len(labelValues) != len(in.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d", in.name, len(in.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	in.mu.Lock()
	defer in.mu.Unlock()
	c, ok := in.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if in.typ == "histogram" {
			c.buckets = make([]int64, len(in.bounds)+1)
		}
		in.children[key] = c
	}
	return c
}

// Counter is a monotonically increasing count.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds n (must be >= 0 to keep the counter monotone).
func (c Counter) Add(n float64) {
	for {
		old := c.c.bits.Load()
		v := math.Float64frombits(old) + n
		if c.c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a bounded-bucket distribution (cumulative buckets plus
// sum and count, the Prometheus shape).
type Histogram struct {
	c      *child
	bounds []float64
}

// Observe records one value: one bucket increment under the child's own
// mutex, no allocation.
func (h Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and, when traceID is non-empty,
// attaches it as the exemplar of the bucket the value falls in,
// replacing that bucket's previous one. Exemplars appear only in the
// OpenMetrics exposition (writeOpenMetrics); WriteText stays
// 0.0.4-clean.
func (h Histogram) ObserveExemplar(v float64, traceID string) {
	slot := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) is +Inf
	h.c.mu.Lock()
	h.c.buckets[slot]++
	h.c.sum += v
	if traceID != "" {
		if h.c.exemplars == nil {
			h.c.exemplars = make([]Exemplar, len(h.bounds)+1)
		}
		h.c.exemplars[slot] = Exemplar{TraceID: traceID, Value: v}
	}
	h.c.mu.Unlock()
}

// Count returns the number of observations so far.
func (h Histogram) Count() int64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	var n int64
	for _, b := range h.c.buckets {
		n += b
	}
	return n
}

// DefaultLatencyBuckets are exposition bounds for request latencies in
// seconds, 1ms to 10s.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CounterVec is a counter family with labels.
type CounterVec struct{ in *instrument }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, "counter", nil, labels...)}
}

// With returns the counter for one label-value combination.
func (v CounterVec) With(labelValues ...string) Counter {
	return Counter{v.in.child(labelValues...)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ in *instrument }

// NewHistogramVec builds a histogram family that belongs to no
// registry: its owner observes into it from the start and a collector
// exposes it with Emitter.Histogram once a registry exists (the serving
// core is built before, and in tests without, one).
func NewHistogramVec(name, help string, bounds []float64, labels ...string) HistogramVec {
	return HistogramVec{newInstrument(name, help, "histogram", bounds, labels)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, "histogram", bounds, labels...)}
}

// With returns the histogram for one label-value combination. It joins
// the label values and takes the family's lock; hot paths resolve their
// children once and keep them.
func (v HistogramVec) With(labelValues ...string) Histogram {
	return Histogram{v.in.child(labelValues...), v.in.bounds}
}

// RegisterCollector adds a scrape-time sample source; it runs on every
// scrape after the registered instruments are gathered.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Emitter receives one scrape's samples, from registered instruments
// and collectors alike; same-named families merge.
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
	s := Sample{Value: value}
	for i := 0; i+1 < len(labels); i += 2 {
		s.Labels = append(s.Labels, Attr{Key: labels[i], Value: labels[i+1]})
	}
	f := e.family(name, help, typ)
	f.Samples = append(f.Samples, s)
}

// Counter emits one counter sample; labels lists key/value pairs.
func (e *Emitter) Counter(name, help string, value float64, labels ...string) {
	e.emit(name, help, "counter", value, labels)
}

// Gauge emits one gauge sample; labels lists key/value pairs.
func (e *Emitter) Gauge(name, help string, value float64, labels ...string) {
	e.emit(name, help, "gauge", value, labels)
}

// Histogram emits every child of a histogram family its collector owns
// (see NewHistogramVec).
func (e *Emitter) Histogram(v HistogramVec) { e.instrument(v.in) }

// instrument snapshots in's children into its family: one sample per
// counter child; per histogram child the cumulative _bucket
// series (le last, +Inf equal to _count, each carrying its bucket's
// exemplar), then _sum and _count.
func (e *Emitter) instrument(in *instrument) {
	in.mu.Lock()
	children := make([]*child, 0, len(in.children))
	for _, c := range in.children {
		children = append(children, c)
	}
	in.mu.Unlock()

	f := e.family(in.name, in.help, in.typ)
	for _, c := range children {
		var labels []Attr
		for i, l := range in.labels {
			labels = append(labels, Attr{Key: l, Value: c.labelValues[i]})
		}
		if in.typ != "histogram" {
			f.Samples = append(f.Samples, Sample{Labels: labels, Value: math.Float64frombits(c.bits.Load())})
			continue
		}
		c.mu.Lock()
		buckets := append([]int64(nil), c.buckets...)
		exemplars := append([]Exemplar(nil), c.exemplars...)
		sum := c.sum
		c.mu.Unlock()
		var count int64
		for i, n := range buckets {
			count += n
			le := "+Inf"
			if i < len(in.bounds) {
				le = formatValue(in.bounds[i])
			}
			s := Sample{Suffix: "_bucket", Value: float64(count),
				Labels: append(labels[:len(labels):len(labels)], Attr{Key: "le", Value: le})}
			if exemplars != nil {
				s.Exemplar = exemplars[i]
			}
			f.Samples = append(f.Samples, s)
		}
		f.Samples = append(f.Samples,
			Sample{Suffix: "_sum", Labels: labels, Value: sum},
			Sample{Suffix: "_count", Labels: labels, Value: float64(count)})
	}
}

// Gather snapshots the registry — registered instruments first, then
// collectors — in exposition order: families sorted by name, each one's
// samples by label signature with a histogram child's series kept
// together. Families with no samples are left out.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	instr := make([]*instrument, 0, len(r.instr))
	for _, in := range r.instr {
		instr = append(instr, in)
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	e := &Emitter{index: make(map[string]int)}
	for _, in := range instr {
		e.instrument(in)
	}
	for _, c := range collectors {
		c(e)
	}
	fams := e.fams[:0]
	for _, f := range e.fams {
		if len(f.Samples) > 0 {
			sortSamples(f.Samples)
			fams = append(fams, f)
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}
