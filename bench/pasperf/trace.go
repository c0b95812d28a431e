package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	pas "repro"
	"repro/internal/httpmw"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/serving"
	"repro/internal/sft"
)

// The traced run re-composes the daemons' stacks in this process from
// their public constructors and puts a benchmark-owned span around
// every layer boundary. Spans inside the program are a later issue.

// layer names a span; the names are the prefixes of the per-layer
// metrics.
type layer uint8

const (
	layerEdge    layer = iota // client send -> last reply byte: net/http both sides and loopback
	layerHTTPMW               // outside httpmw.Chain(...)
	layerServer               // System.Handler(), or System as the proxy's Augmenter
	layerProxy                // pas.Proxy's handler, reverse-proxy hop included
	layerRing                 // ring.Client as the proxy's Augmenter
	layerRingHop              // the RoundTripper in ring.Config.HTTPClient
	layerStub                 // the stub upstream's handler
	numLayers
)

var layerNames = [numLayers]string{"edge", "httpmw", "server", "proxy", "ring", "ring.hop", "upstream_stub"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Seq        int32
	Layer      layer
	Start, End int64
}

// recorder keeps spans in memory; they are analysed and written out
// after the run. add is lock-free: a slot is claimed by one atomic
// increment and written by its owner alone.
type recorder struct {
	epoch time.Time
	n     atomic.Int64
	buf   []span
}

// maxSpans bounds the recorder (24 MiB). A traced run of a few seconds
// records well under a tenth of it.
const maxSpans = 1 << 20

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), buf: make([]span, maxSpans)}
}

func (r *recorder) add(seq int, l layer, start, end time.Time) {
	if r == nil || seq == 0 {
		return
	}
	if i := r.n.Add(1) - 1; i < int64(len(r.buf)) {
		r.buf[i] = span{Seq: int32(seq), Layer: l, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	}
}

// spans returns what was recorded and how many spans did not fit. Call
// it only after every goroutine that records has stopped.
func (r *recorder) spans() (recorded []span, dropped int64) {
	n := r.n.Load()
	if n > int64(len(r.buf)) {
		return r.buf, n - int64(len(r.buf))
	}
	return r.buf[:n], 0
}

// placed is a span with its place in the request's tree.
type placed struct {
	span
	Parent int   // index into the request's spans, -1 for the root
	Self   int64 // duration minus the part its children cover
}

// placeSpans builds one request's span tree by containment and computes
// self times. A span's parent is the innermost span that contains it.
// A span is clipped to the root, whose handlers may return after the
// client has its reply, and to the end of an earlier sibling it
// overlaps, so that the self times of a tree add up to the root's
// duration exactly. ok is false when the request has no
// edge span to root the tree.
func placeSpans(spans []span) (out []placed, ok bool) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End > b.End
		}
		return a.Layer < b.Layer
	})
	if len(spans) == 0 || spans[0].Layer != layerEdge {
		return nil, false
	}
	out = make([]placed, 0, len(spans))
	covered := make([]int64, 0, len(spans)) // per span: end of its latest child
	var stack []int
	for _, s := range spans {
		// Leave every span that ended before this one started, and every
		// span but the root that ends before this one does: the two
		// overlap without nesting, so they are siblings (a hedged hop).
		for len(stack) > 0 {
			top := out[stack[len(stack)-1]]
			if top.End > s.Start && (len(stack) == 1 || s.End <= top.End) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		p := placed{span: s, Parent: -1}
		if len(stack) > 0 {
			p.Parent = stack[len(stack)-1]
			parent := &out[p.Parent]
			if p.Start < covered[p.Parent] {
				p.Start = covered[p.Parent]
			}
			if p.End > parent.End {
				p.End = parent.End
			}
			if p.End <= p.Start {
				continue // wholly inside an earlier sibling
			}
			parent.Self -= p.End - p.Start
			covered[p.Parent] = p.End
		} else if len(out) > 0 {
			continue // started after the root ended: not part of this exchange
		}
		p.Self = p.End - p.Start
		out = append(out, p)
		covered = append(covered, p.Start)
		stack = append(stack, len(out)-1)
	}
	return out, true
}

// attribution is the traced run's result for one workload.
type attribution struct {
	requests int
	dropped  int64
	e2e      []float64            // microseconds per request
	self     [numLayers][]float64 // microseconds per request, 0 where the layer is absent
	written  []spanOut
}

// spanOut is the trace file's record.
type spanOut struct {
	Seq     int32   `json:"seq"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // index into this file's spans, -1 for a request's root
	SelfUS  float64 `json:"self_us"`
}

// traceFileRequests bounds the trace file; the metrics use every
// request.
const traceFileRequests = 2000

// attribute groups spans by request, keeps requests numbered in
// (fromSeq, toSeq] — the timed part of the run — and sums self time by
// layer.
func attribute(spans []span, dropped int64, fromSeq, toSeq int) *attribution {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	a := &attribution{dropped: dropped}
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].Seq == spans[i].Seq {
			j++
		}
		group := spans[i:j]
		i = j
		if seq := int(group[0].Seq); seq <= fromSeq || seq > toSeq {
			continue
		}
		tree, ok := placeSpans(group)
		if !ok {
			continue
		}
		var self [numLayers]int64
		for _, p := range tree {
			self[p.Layer] += p.Self
		}
		a.requests++
		a.e2e = append(a.e2e, float64(tree[0].End-tree[0].Start)/1e3)
		for l := range self {
			a.self[l] = append(a.self[l], float64(self[l])/1e3)
		}
		if a.requests <= traceFileRequests {
			base := len(a.written)
			for _, p := range tree {
				parent := -1
				if p.Parent >= 0 {
					parent = base + p.Parent
				}
				a.written = append(a.written, spanOut{
					Seq: p.Seq, Name: layerNames[p.Layer], Parent: parent,
					StartUS: float64(p.Start) / 1e3, EndUS: float64(p.End) / 1e3, SelfUS: float64(p.Self) / 1e3,
				})
			}
		}
	}
	return a
}

// writeTrace writes the trace file of one workload.
func writeTrace(path, workload string, seed uint64, a *attribution) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload         string    `json:"workload"`
		Seed             uint64    `json:"seed"`
		Note             string    `json:"note"`
		RequestsMeasured int       `json:"requests_measured"`
		RequestsWritten  int       `json:"requests_written"`
		SpansDropped     int64     `json:"spans_dropped"`
		Spans            []spanOut `json:"spans"`
	}{
		Workload: workload, Seed: seed,
		Note:             "spans of one request share seq; parent indexes this array; times are microseconds since the traced run began; self_us = duration minus children",
		RequestsMeasured: a.requests, RequestsWritten: min(a.requests, traceFileRequests),
		SpansDropped: a.dropped, Spans: a.written,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type seqKey struct{}

func seqFrom(ctx context.Context) int {
	seq, _ := ctx.Value(seqKey{}).(int)
	return seq
}

// spanHandler records h as one span of the request named by its
// sequence header, and hands the number down in the context for the
// layers that see no headers. A nil recorder returns h itself: the
// spans-off run has no wrappers at all.
func spanHandler(rec *recorder, l layer, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.Atoi(r.Header.Get(hdrSeq))
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), seqKey{}, seq)))
		rec.add(seq, l, start, time.Now())
	})
}

// levelAugmenter is what the proxy is handed: *pas.System and
// *ring.Client both implement both interfaces.
type levelAugmenter interface {
	pas.Augmenter
	pas.LevelAugmenter
}

// spanAugmenter records the proxy's call into its augmentation source.
type spanAugmenter struct {
	inner levelAugmenter
	rec   *recorder
	layer layer
}

func (a spanAugmenter) AugmentContextDegraded(ctx context.Context, prompt, salt string) (string, bool, error) {
	start := time.Now()
	aug, degraded, err := a.inner.AugmentContextDegraded(ctx, prompt, salt)
	a.rec.add(seqFrom(ctx), a.layer, start, time.Now())
	return aug, degraded, err
}

func (a spanAugmenter) AugmentContextLevel(ctx context.Context, prompt, salt string) (string, string, error) {
	start := time.Now()
	aug, level, err := a.inner.AugmentContextLevel(ctx, prompt, salt)
	a.rec.add(seqFrom(ctx), a.layer, start, time.Now())
	return aug, level, err
}

func withSpan(rec *recorder, l layer, inner levelAugmenter) pas.Augmenter {
	if rec == nil {
		return inner
	}
	return spanAugmenter{inner: inner, rec: rec, layer: l}
}

// spanTransport records the ring client's HTTP hop up to the reply's
// headers and passes the sequence number on to the replica. Health
// probes share the client and carry no number; they pass unrecorded.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	seq := seqFrom(req.Context())
	if seq == 0 {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(hdrSeq, strconv.Itoa(seq))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.rec.add(seq, layerRingHop, start, time.Now())
	return resp, err
}

// Daemon defaults, copied from the flag declarations in cmd/passerve
// and cmd/pasproxy: the composition must run what the daemons run when
// only -model, -addr, -upstream and -replicas are set.
var daemonServing = pas.ServingConfig{
	CacheSize: 4096, MaxInFlight: 64, QueueDepth: 256, QueueWait: 100 * time.Millisecond,
	Retries: 1, RetryBudget: 500 * time.Millisecond,
	BreakerThreshold: 8, BreakerCooldown: 2 * time.Second,
	Degrade: true, LimitFloor: 1, DefaultTenantWeight: 1,
}

const daemonConcurrency = 256 // passerve -concurrency

// daemonCore is the serving.Config that System.EnableServing derives
// from daemonServing, for the replay and the probes, which build bare
// cores.
func daemonCore() serving.Config {
	return serving.Config{
		CacheSize: daemonServing.CacheSize, MaxInFlight: daemonServing.MaxInFlight,
		QueueDepth: daemonServing.QueueDepth, QueueWait: daemonServing.QueueWait,
		BreakerThreshold: daemonServing.BreakerThreshold, BreakerCooldown: daemonServing.BreakerCooldown,
		LimitFloor: daemonServing.LimitFloor, DefaultTenantWeight: daemonServing.DefaultTenantWeight,
	}
}

// inproc is the in-process composition of one workload's daemons.
type inproc struct {
	target  string
	servers []*http.Server
	done    []chan struct{}
	cancel  context.CancelFunc // stops the ring's prober
	log     *os.File
}

func (p *inproc) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	// The mux and the timeouts are the daemons'.
	mux := http.NewServeMux()
	mux.Handle("/", h)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns ErrServerClosed on close
	}()
	p.servers = append(p.servers, srv)
	p.done = append(p.done, done)
	return "http://" + l.Addr().String(), nil
}

// close shuts every server down and waits for its handlers, so that all
// spans are in the recorder when it returns.
func (p *inproc) close() {
	if p.cancel != nil {
		p.cancel()
	}
	for i, srv := range p.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // graceful shutdown timed out; cut the connections
		}
		cancel()
		<-p.done[i]
	}
	if p.log != nil {
		_ = p.log.Close() // an access log nobody reads after a clean run
	}
}

// loadSystem loads the model and enables the serving core as the
// daemons do.
func loadSystem(modelPath string) (*pas.System, error) {
	sys, err := pas.LoadSystem(modelPath)
	if err != nil {
		return nil, err
	}
	return sys, sys.EnableServing(daemonServing)
}

// serveStack is cmd/passerve's handler: System.Handler() behind its
// seven middlewares, the tracer sampling every request.
func serveStack(modelPath string, rec *recorder, logger *log.Logger) (http.Handler, error) {
	sys, err := loadSystem(modelPath)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	metrics := httpmw.NewMetrics()
	metrics.Register(reg)
	sys.RegisterMetrics(reg)
	return spanHandler(rec, layerHTTPMW, httpmw.Chain(spanHandler(rec, layerServer, sys.Handler()),
		httpmw.Recover(logger),
		httpmw.RequestID(),
		httpmw.Trace(obs.NewTracer(obs.TraceConfig{SampleEvery: 1}), "passerve"),
		httpmw.Logging(logger),
		httpmw.ConcurrencyLimitHint(daemonConcurrency, sys.RetryAfterHint),
		httpmw.Tenant(),
		metrics.Middleware(),
	)), nil
}

// proxyStack is cmd/pasproxy's handler: the proxy behind its six
// middlewares (pasproxy has no concurrency limiter).
func proxyStack(aug pas.Augmenter, stubURL string, rec *recorder, logger *log.Logger) (http.Handler, error) {
	proxy, err := pas.NewProxyWith(aug, stubURL)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	metrics := httpmw.NewMetrics()
	metrics.Register(reg)
	return spanHandler(rec, layerHTTPMW, httpmw.Chain(spanHandler(rec, layerProxy, proxy),
		httpmw.Recover(logger),
		httpmw.RequestID(),
		httpmw.Trace(obs.NewTracer(obs.TraceConfig{SampleEvery: 1}), "pasproxy"),
		httpmw.Logging(logger),
		httpmw.Tenant(),
		metrics.Middleware(),
	)), nil
}

// startInproc composes the workload's stack. The access log goes to a
// file, as the daemons' does.
func startInproc(workload, modelPath, stubURL, runDir string, rec *recorder) (_ *inproc, err error) {
	p := &inproc{}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.log, err = os.Create(filepath.Join(runDir, "inproc.stderr")); err != nil {
		return nil, err
	}
	logger := log.New(p.log, "inproc: ", 0)
	var h http.Handler
	switch workload {
	case serveHot, serveCold:
		h, err = serveStack(modelPath, rec, logger)
	case proxyChat:
		var sys *pas.System
		if sys, err = loadSystem(modelPath); err != nil {
			return nil, err
		}
		h, err = proxyStack(withSpan(rec, layerServer, sys), stubURL, rec, logger)
	case clusterZipf:
		var urls []string
		for i := 0; i < 3; i++ {
			rh, err := serveStack(modelPath, rec, logger)
			if err != nil {
				return nil, err
			}
			u, err := p.listen(rh)
			if err != nil {
				return nil, err
			}
			urls = append(urls, u)
		}
		// The transport is ring.NewClient's default; the rest are
		// cmd/pasproxy's flag defaults.
		var rt http.RoundTripper = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
		if rec != nil {
			rt = spanTransport{base: rt, rec: rec}
		}
		var client *ring.Client
		client, err = ring.NewClient(ring.Config{
			Replicas: urls, VNodes: ring.DefaultVNodes, RequestTimeout: 5 * time.Second,
			BreakerThreshold: 8, BreakerCooldown: 2 * time.Second,
			HedgeMin: 20 * time.Millisecond, HedgeMax: 2 * time.Second, Degrade: true,
			Health:     ring.HealthConfig{ProbeInterval: 2 * time.Second, ProbeTimeout: time.Second, DownAfter: 3},
			HTTPClient: &http.Client{Transport: rt},
		})
		if err != nil {
			return nil, err
		}
		var ctx context.Context
		ctx, p.cancel = context.WithCancel(context.Background())
		client.Start(ctx)
		h, err = proxyStack(withSpan(rec, layerRing, client), stubURL, rec, logger)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if p.target, err = p.listen(h); err != nil {
		return nil, err
	}
	return p, nil
}

// replayResult splits what System hides below the server span.
type replayResult struct {
	core       []float64 // every DoLevel call, microseconds
	hit        []float64 // DoLevel on a cache hit
	missSelf   []float64 // DoLevel on a miss, minus the complement computation
	complement []float64 // the recorded model.Complement calls
}

// replay runs the workload's request sequence through bare serving
// cores — one per replica, keyed like the ring keys them — whose
// complement function records its own duration.
func replay(in *inputs, model *sft.Model, clients, replicas, n int, budget time.Duration) (*replayResult, error) {
	var computeNS int64
	fn := func(prompt, salt string) string {
		start := time.Now()
		c := model.Complement(prompt, salt)
		computeNS = time.Since(start).Nanoseconds()
		return c
	}
	r := ring.New(ring.DefaultVNodes)
	names := make([]string, replicas)
	cores := map[string]*serving.Core{}
	for i := range names {
		names[i] = "replica-" + strconv.Itoa(i)
		core, err := serving.New(fn, daemonCore())
		if err != nil {
			return nil, err
		}
		cores[names[i]] = core
	}
	r.SetMembers(names)
	ctx := context.Background()
	base, salt := model.BaseName(), in.salt()
	do := func(id int) (time.Duration, error) {
		prompt := in.prompt(id)
		owner, _ := r.Owner(serving.Key(prompt, salt, ""))
		computeNS = 0
		start := time.Now()
		_, _, err := cores[owner].DoLevel(ctx, prompt, salt, base)
		return time.Since(start), err
	}
	for id := range in.hot {
		if _, err := do(id); err != nil {
			return nil, err
		}
	}
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = in.stream(c, clients)
	}
	res := &replayResult{}
	deadline := time.Now().Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		d, err := do(streams[i%clients].nextID())
		if err != nil {
			return nil, err
		}
		us := float64(d.Nanoseconds()) / 1e3
		res.core = append(res.core, us)
		if computeNS == 0 {
			res.hit = append(res.hit, us)
		} else {
			res.missSelf = append(res.missSelf, float64(d.Nanoseconds()-computeNS)/1e3)
			res.complement = append(res.complement, float64(computeNS)/1e3)
		}
	}
	return res, nil
}
