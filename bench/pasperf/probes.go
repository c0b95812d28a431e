package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	pas "repro"
	"repro/internal/facet"
	"repro/internal/httpmw"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/serving"
	"repro/internal/sft"
)

// The probes call single layers directly, in this process, over the
// run's generated inputs. They report ns/op and exact allocations per
// op; a _par probe runs the same op on one goroutine per CPU and
// reports wall time per op, so perfect scaling halves the serial figure
// on two CPUs and a contended lock does not.

// probeSink defeats dead-code elimination of pure ops.
var probeSink string

// measure runs op until budget is spent and returns ns/op and
// allocations/op. op receives the iteration number.
func measure(budget time.Duration, op func(i int)) (ns, allocs float64) {
	for i := 0; i < 16; i++ {
		op(i) // settle pools and lazy initialisation
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	start := time.Now()
	for batch := 64; time.Since(start) < budget; batch *= 2 {
		for i := 0; i < batch; i++ {
			op(n + i)
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// measurePar runs op on one goroutine per CPU, each with its own state
// from mk, and returns wall nanoseconds per op over all of them.
func measurePar(budget time.Duration, mk func(g int) func(i int)) float64 {
	workers := runtime.GOMAXPROCS(0)
	ops := make([]func(int), workers)
	for g := range ops {
		ops[g] = mk(g)
		for i := 0; i < 16; i++ {
			ops[g](i)
		}
	}
	counts := make([]int, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for batch := 64; time.Since(start) < budget; batch *= 2 {
				for i := 0; i < batch; i++ {
					ops[g](counts[g] + i)
				}
				counts[g] += batch
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(elapsed.Nanoseconds()) / float64(total)
}

// nopWriter is the cheapest ResponseWriter: the probes time handlers,
// not sockets.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// reusableBody lets one request be served again without allocating a
// reader per op.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// probeRequest builds a POST that can be replayed: rewind resets its
// body and drops what middlewares added to its headers.
func probeRequest(path string, body []byte) (req *http.Request, w *nopWriter, rewind func()) {
	rb := &reusableBody{}
	req, err := http.NewRequest(http.MethodPost, "http://probe"+path, rb)
	if err != nil {
		panic(err) // constant method and URL
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	w = &nopWriter{h: http.Header{}}
	rewind = func() {
		rb.Reset(body)
		req.Body = rb
		req.ContentLength = int64(len(body))
		delete(req.Header, "X-Request-Id")
		req.Header.Set("Content-Length", strconv.Itoa(len(body)))
		clear(w.h)
	}
	return req, w, rewind
}

// memTransport answers every round trip from memory, so the proxy's
// rewrite is timed without a socket.
type memTransport struct{}

func (memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body) // the proxy's rewritten body is consumed, as a socket would
		_ = req.Body.Close()                 // a reader over memory
	}
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(stubReply))),
		ContentLength: int64(len(stubReply)), Request: req,
	}, nil
}

// constAugmenter appends a fixed complement: the proxy probe times the
// rewrite, not M_p.
type constAugmenter struct{}

func (constAugmenter) AugmentContextDegraded(_ context.Context, prompt, _ string) (string, bool, error) {
	return prompt + "\nState your assumptions and number the steps.", false, nil
}

// chainFor builds the seven-middleware chain cmd/passerve runs, around
// a handler that does nothing, with or without the tracer.
func chainFor(traced bool) http.Handler {
	logger := log.New(io.Discard, "", 0)
	reg := obs.NewRegistry()
	metrics := httpmw.NewMetrics()
	metrics.Register(reg)
	var tracer *obs.Tracer // nil disables the Trace middleware
	if traced {
		tracer = obs.NewTracer(obs.TraceConfig{SampleEvery: 1})
	}
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	return httpmw.Chain(noop,
		httpmw.Recover(logger),
		httpmw.RequestID(),
		httpmw.Trace(tracer, "passerve"),
		httpmw.Logging(logger),
		httpmw.ConcurrencyLimitHint(daemonConcurrency, nil),
		httpmw.Tenant(),
		metrics.Middleware(),
	)
}

// runProbes measures every direct probe within about total and returns
// metric name -> value.
func runProbes(in *inputs, model *sft.Model, modelPath string, total time.Duration) (map[string]float64, error) {
	const probes = 19 // timed sections below
	budget := total / probes
	out := map[string]float64{}
	ctx := context.Background()

	prompts := make([]string, hotPrompts)
	for i := range prompts {
		prompts[i] = promptAt(in.seed, uint64(i))
	}
	pick := func(i int) string { return prompts[i%len(prompts)] }

	// M_p and what it is made of.
	out["sft.complement_ns"], out["sft.complement_allocs"] = measure(budget, func(i int) {
		probeSink = model.Complement(pick(i), augmentSalt)
	})
	out["sft.complement_cheap_ns"], _ = measure(budget, func(i int) {
		probeSink = model.ComplementCheap(pick(i), augmentSalt)
	})
	out["facet.analyze_ns"], _ = measure(budget, func(i int) {
		a := facet.AnalyzePrompt(pick(i))
		probeSink = a.Category.String()
	})
	facets := []facet.Facet{facet.Specificity, facet.Reasoning, facet.Structure}
	out["facet.render_ns"], _ = measure(budget, func(i int) {
		probeSink = facet.RenderDirectives(facets, pick(i))
	})

	// The serving core under the daemons' configuration, with a constant
	// complement so the numbers are the core's own.
	base := model.BaseName()
	constFn := func(prompt, salt string) string { return "State your assumptions." }
	newCore := func() (*serving.Core, error) { return serving.New(constFn, daemonCore()) }
	out["serving.key_ns"], _ = measure(budget, func(i int) {
		probeSink = serving.Key(pick(i), augmentSalt, base)
	})
	hitCore, err := newCore()
	if err != nil {
		return nil, err
	}
	hit := func(sink *string) func(int) {
		return func(i int) {
			v, _, err := hitCore.DoLevel(ctx, pick(i), augmentSalt, base)
			if err != nil {
				panic(fmt.Sprintf("pasperf: serving hit probe: %v", err)) // an unloaded core never sheds
			}
			*sink = v
		}
	}
	out["serving.hit_ns"], out["serving.hit_allocs"] = measure(budget, hit(&probeSink))
	out["serving.hit_par_ns"] = measurePar(budget, func(int) func(int) {
		var sink string // one per goroutine
		return hit(&sink)
	})

	// Misses: every key new, the cache full, so each op is single-flight
	// + admission + put + evict.
	missCore, err := newCore()
	if err != nil {
		return nil, err
	}
	missPrompts := make([]string, 1<<14)
	for i := range missPrompts {
		missPrompts[i] = promptAt(in.seed, coldBase+uint64(i))
	}
	miss := func(lane int, sink *string) func(int) {
		// The salt makes every op a new key without building a string
		// inside the timed loop.
		salts := make([]string, 1024)
		for r := range salts {
			salts[r] = strconv.Itoa(lane) + "/" + strconv.Itoa(r)
		}
		return func(i int) {
			round := i / len(missPrompts) % len(salts)
			v, _, err := missCore.DoLevel(ctx, missPrompts[i%len(missPrompts)], salts[round], base)
			if err != nil {
				panic(fmt.Sprintf("pasperf: serving miss probe: %v", err))
			}
			*sink = v
		}
	}
	out["serving.miss_ns"], out["serving.miss_allocs"] = measure(budget, miss(0, &probeSink))
	out["serving.miss_par_ns"] = measurePar(budget, func(g int) func(int) {
		var sink string
		return miss(g+1, &sink)
	})

	// The middleware chain around a no-op handler.
	chain := chainFor(true)
	chainOp := func(h http.Handler) func(int) {
		req, w, rewind := probeRequest("/v1/augment", nil)
		return func(int) {
			rewind()
			h.ServeHTTP(w, req)
		}
	}
	out["httpmw.chain_ns"], out["httpmw.chain_allocs"] = measure(budget, chainOp(chain))
	out["httpmw.chain_par_ns"] = measurePar(budget, func(int) func(int) { return chainOp(chain) })
	out["httpmw.chain_untraced_ns"], _ = measure(budget, chainOp(chainFor(false)))
	out["obs.trace_overhead_ns"] = out["httpmw.chain_ns"] - out["httpmw.chain_untraced_ns"]

	// System.Handler() on a warm cache: JSON decode, core hit, JSON encode.
	sys, err := loadSystem(modelPath)
	if err != nil {
		return nil, err
	}
	handler := sys.Handler()
	bodies := make([][]byte, len(prompts))
	for i, p := range prompts {
		bodies[i] = augmentBody(p)
	}
	req, w, _ := probeRequest("/v1/augment", nil)
	rb := req.Body.(*reusableBody)
	for _, b := range bodies { // fill the cache: the probe times hits
		rb.Reset(b)
		handler.ServeHTTP(w, req)
	}
	out["server.augment_hit_ns"], out["server.augment_hit_allocs"] = measure(budget, func(i int) {
		rb.Reset(bodies[i%len(bodies)])
		handler.ServeHTTP(w, req)
	})

	// The proxy's body rewrite, long and short payload.
	rewrite := func(body []byte) (ns, allocs float64, err error) {
		proxy, err := pas.NewProxyWith(constAugmenter{}, "http://upstream.invalid")
		if err != nil {
			return 0, 0, err
		}
		req, w, rewind := probeRequest("/v1/chat/completions", body)
		// pas.Proxy's reverse proxy has no Transport of its own and falls
		// back to the default one; this process sends nothing else while
		// the probe runs.
		saved := http.DefaultTransport
		http.DefaultTransport = memTransport{}
		defer func() { http.DefaultTransport = saved }()
		ns, allocs = measure(budget, func(int) {
			rewind()
			proxy.ServeHTTP(w, req)
		})
		return ns, allocs, nil
	}
	long := mustJSON(longChat(in.seed, 0, prompts[0]))
	if out["proxy.rewrite_ns"], out["proxy.rewrite_allocs"], err = rewrite(long); err != nil {
		return nil, err
	}
	if out["proxy.rewrite_short_ns"], _, err = rewrite(mustJSON(shortChat(prompts[0]))); err != nil {
		return nil, err
	}

	// Routing: the ring lookup the cluster proxy does per request.
	r := ring.New(ring.DefaultVNodes)
	r.SetMembers([]string{"http://127.0.0.1:8431", "http://127.0.0.1:8432", "http://127.0.0.1:8433"})
	keys := make([]string, len(prompts))
	for i, p := range prompts {
		keys[i] = serving.Key(p, chatSalt, "")
	}
	out["ring.owner_ns"], _ = measure(budget, func(i int) {
		probeSink, _ = r.Owner(keys[i%len(keys)])
	})
	return out, nil
}
