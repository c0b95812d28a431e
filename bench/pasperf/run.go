package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sft"
)

// runner holds what every workload run shares.
type runner struct {
	root      string
	binDir    string
	runDir    string // per-run scratch: model, daemon stderr; removed on success
	resultDir string // reports and traces
	modelPath string
	model     *sft.Model
	seed      uint64
	seconds   float64
	setupReps int
	clients   int
	stub      *stub
}

// setupRepetitions is how often a run brings the system up; setup_s is
// the median, so one slow exec does not decide it.
const setupRepetitions = 21

func newRunner(seed uint64, seconds float64, resultDir string) (*runner, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	r := &runner{root: root, seed: seed, seconds: seconds, setupReps: setupRepetitions, clients: clientCount()}
	if r.binDir, err = buildDaemons(root); err != nil {
		return nil, err
	}
	if r.runDir, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-"); err != nil {
		return nil, err
	}
	r.resultDir = resultDir
	if !filepath.IsAbs(resultDir) {
		r.resultDir = filepath.Join(root, resultDir)
	}
	r.modelPath = filepath.Join(r.runDir, "pas-model.json")
	if r.model, err = trainModel(r.modelPath); err != nil {
		return nil, err
	}
	if r.stub, err = startStub(); err != nil {
		return nil, err
	}
	return r, nil
}

// close stops the stub and, after a clean run, removes the scratch
// directory. After a failure the directory stays and its path is
// printed: the daemons' stderr is in it.
func (r *runner) close(failed bool) {
	r.stub.close()
	if failed {
		fmt.Fprintf(os.Stderr, "pasperf: daemon stderr and the model are kept in %s\n", r.runDir)
		return
	}
	_ = os.RemoveAll(r.runDir) // scratch under .bench_build; a leftover is harmless
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp brings the workload's system up setupReps times — train and
// save the model, spawn the daemons, wait until all answer — and keeps
// the last one running. It returns each repetition's duration in
// seconds.
func (r *runner) setUp(workload string, reps int) (tb *testbed, took []float64, stolenShare float64, err error) {
	used0, stolen0 := hostCPU()
	for i := 0; i < reps; i++ {
		if tb != nil {
			tb.stop()
		}
		start := time.Now()
		if _, err := trainModel(r.modelPath); err != nil {
			return nil, nil, 0, err
		}
		if tb, err = startTestbed(workload, r.binDir, r.runDir, r.modelPath, r.stub.url); err != nil {
			return nil, nil, 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	used1, stolen1 := hostCPU()
	if wanted := used1 - used0 + stolen1 - stolen0; wanted > 0 {
		stolenShare = (stolen1 - stolen0) / wanted
	}
	return tb, took, stolenShare, nil
}

// blackbox is one run against the real daemons.
type blackbox struct {
	in     *inputs
	argv   [][]string
	setups []float64
	// setupStolen is the share of the CPU time set-up asked for that the
	// hypervisor took.
	setupStolen float64
	prewarm     counts
	load        *loadResult
	before      coreStats
	after       coreStats
	rssMB       float64
	failures    []string
}

// runBlackbox drives the daemons as subprocesses: set-up, pre-warm,
// warm-up, timed windows, then the reference check of a sample of
// complements against M_p computed in this process.
func (r *runner) runBlackbox(workload string, setupReps int, warm, windowLen time.Duration, windows int) (*blackbox, error) {
	in, err := newInputs(workload, r.seed)
	if err != nil {
		return nil, err
	}
	bb := &blackbox{in: in}
	tb, setups, setupStolen, err := r.setUp(workload, setupReps)
	if err != nil {
		return nil, err
	}
	defer tb.stop()
	bb.setups, bb.setupStolen, bb.argv = setups, setupStolen, tb.argv()

	m := newMemo()
	fails := &failures{}
	r.stub.use(in, m)
	d := &driver{in: in, target: tb.target, memo: m, fails: fails}
	bb.prewarm = d.prewarm()

	ctx := context.Background()
	hc := &http.Client{Timeout: 5 * time.Second}
	if bb.before, err = tb.coreStats(ctx, hc); err != nil {
		return nil, err
	}
	bb.load, err = d.runLoad(r.clients, warm, windowLen, windows, func() (mark, error) {
		cpu, err := tb.cpuMicros()
		_, stolen := hostCPU()
		return mark{daemonCPU: cpu, selfCPU: selfCPUMicros(), steal: stolen}, err
	})
	if err != nil {
		return nil, err
	}
	if bb.after, err = tb.coreStats(ctx, hc); err != nil {
		return nil, err
	}
	if bb.rssMB, err = tb.rssPeakMB(); err != nil {
		return nil, err
	}
	// Daemons and the reference must agree byte for byte on M_p.
	for id, got := range m.sample(64) {
		if want := r.model.Complement(in.prompt(id), in.salt()); got != want {
			fails.note("request id %d: daemon complement %q differs from the reference %q", id, clip(got), clip(want))
		}
	}
	bb.failures = fails.msgs
	return bb, nil
}

// report turns a black-box run into metrics.
func (bb *blackbox) report(clients int) *WorkloadReport {
	wr := &WorkloadReport{
		Name: bb.in.workload, SequenceHash: sequenceHash(bb.in, clients, 2048), Clients: clients,
		DaemonArgv: bb.argv, Failures: bb.failures,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{},
		Phases: map[string]counts{"prewarm": bb.prewarm, "warmup": bb.load.warmup, "timed": bb.load.timed},
	}
	var p50, rps, cpu, serveCPU, proxyCPU, selfCPU, ref, steal, ticks, all []float64
	for i, w := range bb.load.windows {
		from, to := bb.load.starts[i], bb.load.ends[i]
		n := float64(w.Requests)
		if n == 0 {
			n = 1 // a window with no reply reports its CPU whole; the run is failing anyway
		}
		wr.WindowRequests = append(wr.WindowRequests, w.Requests)
		p50 = append(p50, percentile(w.lat, 0.5))
		ref = append(ref, percentile(w.ref, 0.5))
		rps = append(rps, float64(w.Requests)/to.at.Sub(from.at).Seconds())
		s := (to.daemonCPU["passerve"] - from.daemonCPU["passerve"]) / n
		p := (to.daemonCPU["pasproxy"] - from.daemonCPU["pasproxy"]) / n
		serveCPU, proxyCPU, cpu = append(serveCPU, s), append(proxyCPU, p), append(cpu, s+p)
		selfCPU = append(selfCPU, (to.selfCPU-from.selfCPU)/n)
		steal = append(steal, to.steal-from.steal)
		ticks = append(ticks, to.at.Sub(from.at).Seconds()*clockTick*float64(runtime.NumCPU()))
		all = append(all, w.lat...)
	}
	wr.WindowSteal = steal

	// Two things this box does to a run have nothing to do with PAS, and
	// both can be read off while the run is measured.
	//
	// Its speed differs from run to run, and within one, by a third (a
	// neighbour on the memory system). The median of refOp over a window
	// moves in step with the window's median latency, so latency and rate
	// are scaled, window by window, to a box on which refOp takes
	// referenceOpMicros. CPU time is scaled by the generator's own CPU
	// time per request instead — toolchain and benchmark code only — since
	// the kernel charges a process for the time the hypervisor took while
	// it ran, the generator and the daemons alike.
	//
	// And the hypervisor takes the CPUs away, a few milliseconds at a time
	// and for minutes on end. The kernel counts those ticks as steal, so
	// the gated metrics are medians over the third of the windows that
	// lost the fewest, each corrected for what it did lose.
	//
	// A rate loses all stolen time and more: a request alternates between
	// the generator's CPU and a daemon's, each is there for the share of
	// time not stolen, and over runs that lost a twentieth to a half the
	// rate fell as that share to the power of the CPUs in the path.
	//
	// What a median latency loses depends on the workload: a stall
	// lengthens the requests it hits and leaves the others alone, so
	// serve_hot's 200 us median does not move when half the time is
	// stolen, and serve_cold's doubles. The run itself tells which: its
	// windows lost different shares, and the slope of their medians
	// against the share kept (log-log, Theil-Sen, between "no effect" and
	// the square) is taken out of each. See bench/README.md for the
	// evidence behind both.
	refCPU := referenceClientCPU[bb.in.workload]
	p50n, cpun, rpsn := make([]float64, len(steal)), make([]float64, len(steal)), make([]float64, len(steal))
	logKept, logP50 := make([]float64, len(steal)), make([]float64, len(steal))
	for i := range steal {
		slow, slowCPU := 1.0, 1.0 // this window against the reference box
		if ref[i] > 0 {
			slow = ref[i] / referenceOpMicros
		}
		if selfCPU[i] > 0 {
			slowCPU = selfCPU[i] / refCPU
		}
		kept := max(0.1, 1-steal[i]/ticks[i]) // below a tenth the window is hopeless anyway
		p50n[i] = p50[i] / slow
		cpun[i] = cpu[i] / slowCPU
		rpsn[i] = rps[i] * slow / math.Pow(kept, float64(min(2, runtime.NumCPU())))
		logKept[i], logP50[i] = math.Log(kept), math.Log(max(p50n[i], 1e-3))
	}
	stallExp := min(2, max(0, -theilSen(logKept, logP50, 0.02)))
	for i := range p50n {
		p50n[i] *= math.Exp(stallExp * logKept[i])
	}
	quiet := quietest(steal, max(3, (len(steal)+2)/3))
	p50n, cpun, rpsn = pick(p50n, quiet), pick(cpun, quiet), pick(rpsn, quiet)
	wr.set("latency_p50_us", overWindows(p50n))
	wr.set("cpu_us_per_req", overWindows(cpun))
	wr.set("throughput_rps", overWindows(rpsn))
	wr.set("rss_peak_mb", Metric{Value: bb.rssMB})
	// Set-up runs one thing after another, so it is stretched by the share
	// of the CPU time it asked for that was stolen.
	setups := make([]float64, len(bb.setups))
	for i, d := range bb.setups {
		setups[i] = d * (1 - bb.setupStolen)
	}
	wr.set("setup_s", overWindows(setups))

	// The same three as the clock gave them, over every window.
	wr.set("raw.latency_p50_us", overWindows(p50))
	wr.set("raw.cpu_us_per_req", overWindows(cpu))
	wr.set("raw.throughput_rps", overWindows(rps))
	wr.set("raw.setup_s", overWindows(bb.setups))
	wr.set("host.setup_steal_ratio", Metric{Value: bb.setupStolen})
	var stolen, total float64
	for i := range steal {
		stolen, total = stolen+steal[i], total+ticks[i]
	}
	wr.set("host.steal_ratio", Metric{Value: stolen / total})

	t := wr.total()
	ratio := func(n int64) float64 {
		if t.Sent == 0 {
			return 0
		}
		return float64(n) / float64(t.Sent)
	}
	wr.set("fail_ratio", Metric{Value: ratio(t.Failed)})
	wr.set("degraded_ratio", Metric{Value: ratio(t.Degraded)})
	// Tails are reported, not gated: across sets of runs p99 spread two
	// to three times as wide as p50.
	wr.set("edge.latency_p99_us", Metric{Value: percentile(all, 0.99)})
	wr.set("edge.latency_p999_us", Metric{Value: sortedPercentile(all, 0.999)})
	wr.set("edge.tail_samples", Metric{Value: float64(len(all))})
	wr.set("passerve.cpu_us_per_req", overWindows(serveCPU))
	wr.set("pasproxy.cpu_us_per_req", overWindows(proxyCPU))
	wr.set("harness.client_cpu_us_per_req", overWindows(selfCPU))
	wr.set("harness.ref_op_p50_us", overWindows(ref))
	wr.set("host.stall_exponent", Metric{Value: stallExp})
	hits, misses := bb.after.Hits-bb.before.Hits, bb.after.Misses-bb.before.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	wr.set("serving.hit_ratio", Metric{Value: hitRatio})
	wr.set("serving.evictions", Metric{Value: bb.after.Evictions - bb.before.Evictions})
	return wr
}

// windowSeconds is the length of a timed window. The issue sized
// four-second windows; stolen time comes in episodes of a few seconds,
// and one-second windows leave enough untouched ones to choose from.
const windowSeconds = 1.0

// referenceOpMicros is refOp's median, and referenceClientCPU the
// generator's CPU time per request, in microseconds, on the box and the
// day the benchmark was defined. The time-based end-to-end metrics are
// scaled to them, so they read as microseconds on that box. Changing a
// value rescales the metrics and is a change to the benchmark.
const referenceOpMicros = 15.0

var referenceClientCPU = map[string]float64{serveHot: 90, serveCold: 120, proxyChat: 360, clusterZipf: 270}

// pick returns the values of xs at the indices idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// quietest returns the indices of the k windows with the least stolen
// time, earlier windows first among equals, in time order.
func quietest(steal []float64, k int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:min(k, len(idx))]
	sort.Ints(idx)
	return idx
}

// endToEnd is the untraced run: set-up repeated, then the timed windows
// (shorter than windowSeconds only when -seconds is under five).
func (r *runner) endToEnd(workload string) (*WorkloadReport, error) {
	windows := max(5, int(r.seconds/windowSeconds))
	windowLen := seconds(r.seconds / float64(windows))
	warm := min(2*time.Second, seconds(r.seconds/5))
	bb, err := r.runBlackbox(workload, r.setupReps, warm, windowLen, windows)
	if err != nil {
		return nil, err
	}
	return bb.report(r.clients), nil
}

// hostCPU returns, from /proc/stat's cpu line, the ticks the box's CPUs
// spent running anything (user, nice, system, irq, softirq) and the
// ticks the hypervisor took while they had work to do (steal).
func hostCPU() (used, stolen float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for _, i := range []int{1, 2, 3, 6, 7} {
		v, _ := strconv.ParseFloat(f[i], 64)
		used += v
	}
	stolen, _ = strconv.ParseFloat(f[8], 64)
	return used, stolen
}

// stubDirect measures generator -> stub, the floor an HTTP exchange
// costs on this box with the workload's own payloads.
func (r *runner) stubDirect(in *inputs, d time.Duration) (float64, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	st := in.stream(0, 1)
	var lat []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		req, err := http.NewRequest(http.MethodPost, r.stub.url+in.path(), bytes.NewReader(st.nextRequest().body))
		if err != nil {
			return 0, err
		}
		req.Header.Set(hdrDirect, "1")
		start := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, fmt.Errorf("generator -> stub: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // drained; the copy's error is the one that counts
		if err != nil {
			return 0, fmt.Errorf("generator -> stub: %w", err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return percentile(lat, 0.5), nil
}

// inprocRun drives the in-process composition once, spans on when rec
// is set, and returns the load result.
func (r *runner) inprocRun(in *inputs, rec *recorder, warm, length time.Duration) (*loadResult, []string, error) {
	r.stub.rec.Store(rec)
	defer r.stub.rec.Store(nil)
	stack, err := startInproc(in.workload, r.modelPath, r.stub.url, r.runDir, rec)
	if err != nil {
		return nil, nil, err
	}
	m := newMemo()
	fails := &failures{}
	r.stub.use(in, m)
	d := &driver{in: in, target: stack.target, memo: m, fails: fails, rec: rec}
	d.prewarm()
	res, err := d.runLoad(r.clients, warm, length, 1, func() (mark, error) { return mark{}, nil })
	stack.close() // waits for the handlers: every span is recorded after this
	return res, fails.msgs, err
}

// layers is the traced run: a short black-box run for the per-daemon
// counters, the generator -> stub floor, the in-process composition
// with spans on and off, the replay below the server span, and the
// direct probes. Shares of -seconds: 0.30, 0.05, 0.24 + 0.24, 0.03,
// 0.14.
func (r *runner) layers(workload string) (*WorkloadReport, error) {
	s := r.seconds
	bb, err := r.runBlackbox(workload, 1, seconds(0.05*s), seconds(0.125*s), 2)
	if err != nil {
		return nil, err
	}
	wr := bb.report(r.clients)
	wr.EndToEnd = nil // a traced run reports layers only
	in := bb.in
	set := func(name string, v float64) { wr.set(name, Metric{Value: v}) }

	direct, err := r.stubDirect(in, seconds(0.05*s))
	if err != nil {
		return nil, err
	}
	set("edge.stub_direct_p50_us", direct)

	rec := newRecorder()
	on, onFails, err := r.inprocRun(in, rec, seconds(0.04*s), seconds(0.2*s))
	if err != nil {
		return nil, err
	}
	off, offFails, err := r.inprocRun(in, nil, seconds(0.04*s), seconds(0.2*s))
	if err != nil {
		return nil, err
	}
	wr.Phases["inproc_spans_on"] = sumCounts(on.warmup, on.timed)
	wr.Phases["inproc_spans_off"] = sumCounts(off.warmup, off.timed)
	wr.Failures = append(append(wr.Failures, onFails...), offFails...)

	spans, dropped := rec.spans()
	attr := attribute(spans, dropped, on.starts[0].seq, on.ends[0].seq)
	if attr.requests == 0 {
		return nil, fmt.Errorf("workload %s: the traced run recorded no complete request", workload)
	}
	if err := writeTrace(filepath.Join(r.resultDir, "trace-"+workload+".json"), workload, r.seed, attr); err != nil {
		return nil, err
	}

	replicas := 1
	if workload == clusterZipf {
		replicas = 3
	}
	rp, err := replay(in, r.model, r.clients, replicas, attr.requests, seconds(0.03*s))
	if err != nil {
		return nil, err
	}
	core := percentile(rp.core, 0.5)

	// The in-tree layers add up to the request per request; medians do
	// not add, and the residual is what their sum misses of the traced
	// end-to-end median. The server span holds the serving core and M_p,
	// which System does not expose: server.self is the span's median
	// less the replayed core's.
	e2e := percentile(attr.e2e, 0.5)
	var inTree float64
	for l := layer(0); l < numLayers; l++ {
		p := percentile(attr.self[l], 0.5)
		inTree += p
		switch l {
		case layerServer:
			set("server.self_p50_us", max(0, p-core))
		case layerRingHop:
			set("ring.hop_p50_us", p)
		default:
			set(layerNames[l]+".self_p50_us", p)
		}
	}
	set("serving.core_p50_us", core)
	set("serving.hit_self_p50_us", percentile(rp.hit, 0.5))
	set("serving.miss_self_p50_us", percentile(rp.missSelf, 0.5))
	set("sft.complement_p50_us", percentile(rp.complement, 0.5))
	set("residual_p50_us", e2e-inTree)
	set("trace.e2e_p50_us", e2e)
	// The three runs compared here are seconds apart, and the box changes
	// speed in less: each median latency is taken in units of refOp's
	// median over the same windows.
	offP50 := median(windowP50s(off))
	set("trace.overhead_ratio", median(windowP50s(on))/offP50)
	set("trace.inproc_vs_daemon_p50_ratio", offP50/median(windowP50s(bb.load)))

	probes, err := runProbes(in, r.model, r.modelPath, seconds(0.14*s))
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		set(name, v)
	}
	return wr, nil
}

// windowP50s returns each window's median latency as a multiple of
// refOp's median over the same window.
func windowP50s(l *loadResult) []float64 {
	var out []float64
	for _, w := range l.windows {
		if ref := percentile(w.ref, 0.5); ref > 0 {
			out = append(out, percentile(w.lat, 0.5)/ref)
		}
	}
	return out
}

func sumCounts(cs ...counts) counts {
	var t counts
	for _, c := range cs {
		t.add(c)
	}
	return t
}
