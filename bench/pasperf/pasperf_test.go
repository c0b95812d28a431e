package main

import (
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if xs[0] != 9 {
		t.Errorf("median reordered its argument: %v", xs)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{16, 1, 4, 2, 8}); !near(got, 10.5/4) {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
	if got := percentile([]float64{40, 10, 30, 20}, 0.5); !near(got, 25) {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := percentile([]float64{40, 10, 30, 20}, 1); !near(got, 40) {
		t.Errorf("p100 = %v, want 40", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	// One stalled window must not move the reported value.
	m := overWindows([]float64{225, 231, 980, 228, 224})
	if !near(m.Value, 228) {
		t.Errorf("median over windows = %v, want 228", m.Value)
	}
	if !(m.Q1 < m.Value && m.Value < m.Q3) || len(m.Windows) != 5 {
		t.Errorf("quartiles %v..%v do not bracket %v over %d windows", m.Q1, m.Q3, m.Value, len(m.Windows))
	}
}

func TestQuietest(t *testing.T) {
	got := quietest([]float64{40, 0, 3, 0, 90, 1}, 3)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("quietest = %v, want the windows with steal 0, 0 and 1 in time order: [1 3 5]", got)
	}
	if got := quietest([]float64{5, 5}, 3); len(got) != 2 {
		t.Errorf("quietest of two windows = %v", got)
	}
}

func TestTheilSen(t *testing.T) {
	// y = 3 - 2x, with one point thrown far off: the fit does not tilt.
	xs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 - 2*x
	}
	ys[3] = 40
	if got := theilSen(xs, ys, 0.02); !near(got, -2) {
		t.Errorf("slope = %v, want -2", got)
	}
	// Points too close together in x say nothing about a slope.
	if got := theilSen([]float64{0, 0.001, 0.002, 0.003, 0.004}, []float64{1, 2, 3, 4, 5}, 0.02); got != 0 {
		t.Errorf("slope over no spread in x = %v, want 0", got)
	}
}

// TestSpeedAndStealCorrection builds a run of six windows on a box that
// is a quarter slower in half of them and loses a fifth of one window
// to the hypervisor, and requires the gated metrics to read as on the
// reference box, with the raw ones left as measured.
func TestSpeedAndStealCorrection(t *testing.T) {
	in, err := newInputs(serveHot, 1)
	if err != nil {
		t.Fatal(err)
	}
	refCPU := referenceClientCPU[serveHot]
	bb := &blackbox{in: in, setups: []float64{0.025, 0.0125, 0.0375}, setupStolen: 0.2, rssMB: 15, load: &loadResult{}}
	at := time.Unix(1000, 0)
	var daemon, self, steal float64
	for w := 0; w < 6; w++ {
		slow, stolen := 1.0, 0.0
		if w%2 == 1 {
			slow = 1.25
		}
		if w == 2 {
			stolen = 0.2
		}
		n := int(8000 / slow)
		bb.load.starts = append(bb.load.starts, mark{at: at, daemonCPU: map[string]float64{"passerve": daemon}, selfCPU: self, steal: steal})
		at = at.Add(time.Second)
		daemon += 100 * slow * float64(n)
		self += refCPU * slow * float64(n)
		steal += stolen * clockTick * float64(runtime.NumCPU())
		bb.load.ends = append(bb.load.ends, mark{at: at, daemonCPU: map[string]float64{"passerve": daemon}, selfCPU: self, steal: steal})
		bb.load.windows = append(bb.load.windows, window{Requests: n,
			lat: []float64{190 * slow, 200 * slow, 210 * slow},
			ref: []float64{referenceOpMicros * slow, referenceOpMicros * slow}})
		bb.load.timed.add(counts{Sent: int64(n), Succeeded: int64(n)})
	}
	wr := bb.report(2)
	within := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > want*1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	within("latency_p50_us", wr.EndToEnd["latency_p50_us"].Value, 200)
	within("cpu_us_per_req", wr.EndToEnd["cpu_us_per_req"].Value, 100)
	within("throughput_rps", wr.EndToEnd["throughput_rps"].Value, 8000)
	within("setup_s", wr.EndToEnd["setup_s"].Value, 0.02)
	if n := len(wr.EndToEnd["latency_p50_us"].Windows); n != 3 {
		t.Errorf("%d windows behind the gated metrics, want the quietest third, at least 3", n)
	}
	within("raw.latency_p50_us", wr.PerLayer["raw.latency_p50_us"].Value, 225)
	within("raw.setup_s", wr.PerLayer["raw.setup_s"].Value, 0.025)
	within("harness.ref_op_p50_us", wr.PerLayer["harness.ref_op_p50_us"].Value, referenceOpMicros*1.125)
	within("host.steal_ratio", wr.PerLayer["host.steal_ratio"].Value, 0.2/6)

	// A run in which every window lost a fifth: the rate is taken over
	// the share of time both CPUs in a request's path were there.
	tick := clockTick * float64(runtime.NumCPU())
	stealRun := func(lost []float64, stretch func(kept float64) float64) *WorkloadReport {
		var sum float64
		for i := range bb.load.windows {
			bb.load.starts[i].steal = sum
			sum += lost[i] * tick
			bb.load.ends[i].steal = sum
			slow := 1.0
			if i%2 == 1 {
				slow = 1.25
			}
			f := stretch(1 - lost[i])
			bb.load.windows[i].lat = []float64{190 * slow * f, 200 * slow * f, 210 * slow * f}
		}
		return bb.report(2)
	}
	flat := func(float64) float64 { return 1 }
	kept := math.Pow(0.8, float64(min(2, runtime.NumCPU())))
	wr = stealRun([]float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.2}, flat)
	within("throughput_rps under steal", wr.EndToEnd["throughput_rps"].Value, 8000/kept)
	within("latency_p50_us, all windows alike", wr.EndToEnd["latency_p50_us"].Value, 200)

	// Windows that lost different shares, on a workload whose median
	// stretches with the share lost and on one whose median does not: the
	// run's own slope is taken out, and nothing where there is none.
	lost := []float64{0.5, 0.1, 0.4, 0.2, 0.45, 0.3}
	wr = stealRun(lost, func(kept float64) float64 { return 1 / kept })
	within("latency_p50_us, stretched by stalls", wr.EndToEnd["latency_p50_us"].Value, 200)
	within("host.stall_exponent, stretched", wr.PerLayer["host.stall_exponent"].Value, 1)
	wr = stealRun(lost, flat)
	within("latency_p50_us, untouched by stalls", wr.EndToEnd["latency_p50_us"].Value, 200)
	if e := wr.PerLayer["host.stall_exponent"].Value; e != 0 {
		t.Errorf("host.stall_exponent = %v on a median that does not move, want 0", e)
	}
}

func TestSpanSelfTime(t *testing.T) {
	sum := func(tree []placed) (total int64, byLayer [numLayers]int64) {
		for _, p := range tree {
			total += p.Self
			byLayer[p.Layer] += p.Self
		}
		return
	}
	t.Run("nested", func(t *testing.T) {
		tree, ok := placeSpans([]span{
			{Seq: 1, Layer: layerServer, Start: 30, End: 60},
			{Seq: 1, Layer: layerEdge, Start: 0, End: 100},
			{Seq: 1, Layer: layerHTTPMW, Start: 20, End: 80},
		})
		if !ok {
			t.Fatal("tree not rooted")
		}
		total, by := sum(tree)
		if total != 100 || by[layerEdge] != 40 || by[layerHTTPMW] != 30 || by[layerServer] != 30 {
			t.Errorf("self times %v (sum %d), want edge 40, httpmw 30, server 30", by, total)
		}
		if tree[1].Parent != 0 || tree[2].Parent != 1 {
			t.Errorf("parents %d, %d, want 0, 1", tree[1].Parent, tree[2].Parent)
		}
	})
	t.Run("overlapping children", func(t *testing.T) {
		// A hedged hop: two children of one parent overlap in [40, 50].
		// The parent's self time is its duration minus the union, and
		// the tree still adds up to the root.
		tree, ok := placeSpans([]span{
			{Seq: 1, Layer: layerEdge, Start: 0, End: 100},
			{Seq: 1, Layer: layerRingHop, Start: 10, End: 50},
			{Seq: 1, Layer: layerRingHop, Start: 40, End: 80},
		})
		if !ok {
			t.Fatal("tree not rooted")
		}
		total, by := sum(tree)
		if by[layerEdge] != 30 || by[layerRingHop] != 70 || total != 100 {
			t.Errorf("self times edge %d, hop %d, sum %d; want 30, 70, 100", by[layerEdge], by[layerRingHop], total)
		}
	})
	t.Run("child outlives parent", func(t *testing.T) {
		// A handler's span can end after the client has the reply.
		tree, _ := placeSpans([]span{
			{Seq: 1, Layer: layerEdge, Start: 0, End: 100},
			{Seq: 1, Layer: layerHTTPMW, Start: 20, End: 130},
		})
		if total, by := sum(tree); total != 100 || by[layerHTTPMW] != 80 {
			t.Errorf("sum %d, httpmw %d; want 100, 80", total, by[layerHTTPMW])
		}
	})
	t.Run("no root", func(t *testing.T) {
		if _, ok := placeSpans([]span{{Seq: 1, Layer: layerServer, Start: 0, End: 10}}); ok {
			t.Error("a request without an edge span was accepted")
		}
	})
	t.Run("attribute keeps the timed requests", func(t *testing.T) {
		a := attribute([]span{
			{Seq: 1, Layer: layerEdge, Start: 0, End: 10}, // warm-up
			{Seq: 2, Layer: layerEdge, Start: 10, End: 110},
			{Seq: 2, Layer: layerProxy, Start: 20, End: 60},
			{Seq: 3, Layer: layerProxy, Start: 200, End: 210}, // edge span missing
		}, 0, 1, 3)
		if a.requests != 1 || !near(a.e2e[0], 0.1) || !near(a.self[layerProxy][0], 0.04) || !near(a.self[layerEdge][0], 0.06) {
			t.Errorf("attribution %+v", a)
		}
		if len(a.written) != 2 || a.written[1].Parent != 0 || a.written[0].Parent != -1 {
			t.Errorf("trace records %+v", a.written)
		}
	})
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(w, 7)
		c, _ := newInputs(w, 8)
		ha, hb, hc := sequenceHash(a, 2, 300), sequenceHash(b, 2, 300), sequenceHash(c, 2, 300)
		if ha != hb {
			t.Errorf("%s: same seed gave %s then %s", w, ha, hb)
		}
		if ha == hc {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", w, ha)
		}
	}
	if _, err := newInputs("serve_warm", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestGeneratorPrompts(t *testing.T) {
	if len(templates) < 14 {
		t.Fatalf("%d templates, the issue asks for at least 14", len(templates))
	}
	seen := map[string]bool{}
	for i := uint64(0); i < 20000; i++ {
		p := promptAt(3, i)
		if seen[p] {
			t.Fatalf("prompt %d repeats: %q", i, p)
		}
		seen[p] = true
	}
	// augmentBody skips JSON escaping; the vocabulary must never need it.
	for i := uint64(0); i < 2000; i++ {
		p := promptAt(5, i*1543)
		var got struct{ Prompt, Salt string }
		if err := json.Unmarshal(augmentBody(p), &got); err != nil || got.Prompt != p || got.Salt != augmentSalt {
			t.Fatalf("augmentBody(%q) does not round-trip: %v %+v", p, err, got)
		}
	}
	// serve_cold: two clients never share a prompt.
	in, _ := newInputs(serveCold, 1)
	ids := map[int]bool{}
	for c := 0; c < 2; c++ {
		s := in.stream(c, 2)
		for i := 0; i < 1000; i++ {
			id := s.nextID()
			if ids[id] {
				t.Fatalf("serve_cold id %d sent twice", id)
			}
			ids[id] = true
		}
	}
	// proxy_chat: 14 messages, about 7 KiB.
	in, _ = newInputs(proxyChat, 1)
	var req chatRequest
	if err := json.Unmarshal(in.body(0), &req); err != nil {
		t.Fatal(err)
	}
	if n := len(in.body(0)); len(req.Messages) != 14 || n < 6000 || n > 8500 {
		t.Errorf("proxy_chat payload: %d messages, %d bytes", len(req.Messages), n)
	}
}

func TestAugmentOracle(t *testing.T) {
	reply := func(prompt, complement, augmented string) []byte {
		return mustJSON(map[string]any{"prompt": prompt, "complement": complement, "augmented": augmented, "model": "m"})
	}
	if c, err := checkAugment("p", reply("p", "c", "p\nc"), ""); err != nil || c != "c" {
		t.Errorf("a correct reply was rejected: %q, %v", c, err)
	}
	bad := map[string][]byte{
		"empty complement":   reply("p", "", "p\n"),
		"prompt rewritten":   reply("p", "c", "P\nc"),
		"wrong echo":         reply("q", "c", "q\nc"),
		"complement dropped": reply("p", "c", "p"),
		"not json":           []byte("<html>"),
	}
	for name, body := range bad {
		if _, err := checkAugment("p", body, ""); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	if _, err := checkAugment("p", reply("p", "", "p"), "1"); err != errDegraded {
		t.Errorf("flagged passthrough: %v, want errDegraded", err)
	}
	if _, err := checkAugment("p", reply("p", "", "rewritten"), "1"); err == nil || err == errDegraded {
		t.Errorf("a degraded reply that altered the prompt passed: %v", err)
	}
	m := newMemo()
	if err := m.check(4, "c"); err != nil {
		t.Fatal(err)
	}
	if err := m.check(4, "c"); err != nil {
		t.Errorf("same complement again: %v", err)
	}
	if err := m.check(4, "d"); err == nil {
		t.Error("a changed complement for the same request id was not caught")
	}
}

// TestChatOracleBites feeds the stub's oracle what a broken proxy could
// forward and requires each to be caught.
func TestChatOracleBites(t *testing.T) {
	in, err := newInputs(proxyChat, 11)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := in.original(5)
	forwarded := func(edit func(*chatRequest)) []byte {
		var req chatRequest
		if err := json.Unmarshal(in.body(5), &req); err != nil {
			t.Fatal(err)
		}
		req.Messages[13].Content += "\nState your assumptions."
		edit(&req)
		return mustJSON(req)
	}
	if c, err := checkChat(orig, forwarded(func(*chatRequest) {})); err != nil || c != "State your assumptions." {
		t.Fatalf("a correct rewrite was rejected: %q, %v", c, err)
	}
	// A byte-surgical proxy keeps key order and spacing; a re-marshaling
	// one does not. Both must pass: the comparison is on values.
	var loose map[string]any
	_ = json.Unmarshal(forwarded(func(*chatRequest) {}), &loose)
	spaced, _ := json.MarshalIndent(loose, "", "  ")
	if _, err := checkChat(orig, spaced); err != nil {
		t.Errorf("re-marshaled payload rejected: %v", err)
	}
	bad := map[string]func(*chatRequest){
		"dropped message":     func(r *chatRequest) { r.Messages = append(r.Messages[:3], r.Messages[4:]...) },
		"edited earlier turn": func(r *chatRequest) { r.Messages[2].Content += "!" },
		"missing complement":  func(r *chatRequest) { r.Messages[13].Content = in.hot[5] },
		"empty complement":    func(r *chatRequest) { r.Messages[13].Content = in.hot[5] + "\n" },
		"prompt rewritten":    func(r *chatRequest) { r.Messages[13].Content = "Rephrased. " + r.Messages[13].Content },
		"temperature changed": func(r *chatRequest) { r.Temperature = 0 },
		"seed changed":        func(r *chatRequest) { r.Seed = 8 },
		"model changed":       func(r *chatRequest) { r.Model = "gpt-3.5" },
		"role changed":        func(r *chatRequest) { r.Messages[13].Role = "system" },
	}
	for name, edit := range bad {
		if _, err := checkChat(orig, forwarded(edit)); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	var extra map[string]any
	_ = json.Unmarshal(forwarded(func(*chatRequest) {}), &extra)
	extra["stream"] = true
	if _, err := checkChat(orig, mustJSON(extra)); err == nil {
		t.Error("added field: not caught")
	}
	delete(extra, "stream")
	delete(extra, "seed")
	if _, err := checkChat(orig, mustJSON(extra)); err == nil {
		t.Error("dropped field: not caught")
	}

	// The stub applies the same oracle and reports through its header.
	s := &stub{}
	s.use(in, newMemo())
	if v := s.judge("5", forwarded(func(*chatRequest) {})); v != "ok" {
		t.Errorf("stub verdict on a correct rewrite: %s", v)
	}
	if v := s.judge("5", in.body(5)); v == "ok" {
		t.Error("stub passed a payload without a complement")
	}
	if v := s.judge("", in.body(5)); v == "ok" {
		t.Error("stub passed a request without its id header")
	}
}

func TestCompareJudge(t *testing.T) {
	lower := benchMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "throughput_rps", Better: "higher", Bound: 0.15}
	steady := func(v float64) Metric { return overWindows([]float64{v * 0.99, v, v * 1.01, v, v}) }
	cases := []struct {
		name   string
		def    benchMetric
		a, b   Metric
		status string
	}{
		{"within bound", lower, steady(200), steady(215), "ok"},
		{"latency up a fifth", lower, steady(200), steady(240), "BREACH"},
		{"latency down", lower, steady(200), steady(100), "ok"},
		{"throughput down a fifth", higher, steady(1000), steady(800), "BREACH"},
		{"throughput up", higher, steady(1000), steady(1300), "ok"},
		{"windows too wide to tell", lower, steady(200), overWindows([]float64{150, 400, 240, 180, 330}), "unresolved"},
	}
	for _, c := range cases {
		if v := judge(c.def, c.a, c.b); v.status != c.status {
			t.Errorf("%s: %s (worse %.3f, spread %.3f), want %s", c.name, v.status, v.worse, v.spread, c.status)
		}
	}
	a := &Report{Workloads: []*WorkloadReport{{Name: serveHot, EndToEnd: map[string]Metric{"latency_p50_us": steady(200)},
		Phases: map[string]counts{"timed": {Sent: 10, Succeeded: 10}}}}}
	b := &Report{Workloads: []*WorkloadReport{{Name: serveHot, EndToEnd: map[string]Metric{"latency_p50_us": steady(201)},
		Phases: map[string]counts{"timed": {Sent: 10, Succeeded: 9, Failed: 1}}}}}
	vs := compareReports(&benchmarkFile{EndToEnd: []benchMetric{lower}}, a, b)
	if len(vs) != 2 || vs[0].status != "ok" || vs[1].status != "BREACH" {
		t.Errorf("a new failed request must breach: %+v", vs)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark contract and
// to what the binary reports.
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, pasperf's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if runs := 4 + 22*len(bf.Workloads); runs*(bf.RunSeconds+6) > 3420-120 {
		t.Errorf("%d runs of %d s and their set-up do not fit the driver's 3420 s", runs, bf.RunSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the binary runs %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the binary %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || used[g.Name] {
				t.Errorf("%s %q (%s): name or unit outside the contract, or used twice", kind, g.Name, g.Unit)
			}
			used[g.Name] = true
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics, true)
	check("per_layer", bf.PerLayer, perLayerMetrics, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Error("too many metrics for the contract")
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || len(bf.Command) < 2 || bf.Command[1] != "bench/run.sh" {
		t.Errorf("command %v / paths %v: the benchmark lives under bench/ and starts at bench/run.sh", bf.Command, bf.Paths)
	}
}

// TestSmoke runs every workload against the real daemons for a second,
// and the traced run on the workload that crosses every layer. It
// checks structure and correctness, never speed: it may share the box
// with other tests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemons")
	}
	r, err := newRunner(42, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.setupReps = 1
	failed := true
	defer func() { r.close(failed) }()

	checkLine := func(wr *WorkloadReport, traced bool, defs []metricDef) {
		t.Helper()
		line, err := driverLine(wr, traced)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int64                     `json:"attempted"`
			Failed    *int64                     `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(string(line)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil || res.Correct == nil || res.Attempted == nil || res.Failed == nil {
			t.Fatalf("%s: result line %s: %v", wr.Name, line, err)
		}
		if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d; failures: %v", wr.Name, *res.Correct, *res.Attempted, *res.Failed, wr.Failures)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics in the result, want %d", wr.Name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing from the result", wr.Name, d.Name)
			}
		}
	}
	for _, w := range workloadNames {
		wr, err := r.endToEnd(w)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkLine(wr, false, endToEndMetrics)
		for _, d := range endToEndMetrics {
			if wr.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w, d.Name, wr.EndToEnd[d.Name].Value)
			}
		}
		hit := wr.PerLayer["serving.hit_ratio"].Value
		switch w {
		case serveHot, proxyChat:
			if hit != 1 {
				t.Errorf("%s: hit ratio %v, the pre-warmed set must always hit", w, hit)
			}
		case serveCold:
			if hit != 0 {
				t.Errorf("%s: hit ratio %v, every prompt is new", w, hit)
			}
		}
	}
	wr, err := r.layers(clusterZipf)
	if err != nil {
		t.Fatal(err)
	}
	checkLine(wr, true, perLayerMetrics)
	for _, name := range []string{"edge.self_p50_us", "httpmw.self_p50_us", "proxy.self_p50_us", "ring.self_p50_us", "ring.hop_p50_us", "upstream_stub.self_p50_us", "trace.e2e_p50_us"} {
		if wr.PerLayer[name].Value <= 0 {
			t.Errorf("cluster_zipf crosses every layer, yet %s = %v", name, wr.PerLayer[name].Value)
		}
	}
	failed = t.Failed()
}
