package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef fixes a metric's name, unit and direction. BENCHMARK.json
// carries the same lists (TestMetricsMatchBenchmarkJSON); the binary
// keeps its own copy so that a run reports exactly these whatever file
// sits in the checkout.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are what a user of PAS pays per request, and what it
// costs to bring PAS up.
var endToEndMetrics = []metricDef{
	{"latency_p50_us", "us", "lower"},
	{"cpu_us_per_req", "us", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerMetrics = []metricDef{
	// Black-box runs of the daemons.
	{"raw.latency_p50_us", "us", "lower"},
	{"raw.cpu_us_per_req", "us", "lower"},
	{"raw.throughput_rps", "1/s", "higher"},
	{"raw.setup_s", "s", "lower"},
	{"host.steal_ratio", "ratio", "lower"},
	{"host.setup_steal_ratio", "ratio", "lower"},
	{"host.stall_exponent", "ratio", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"degraded_ratio", "ratio", "lower"},
	{"edge.latency_p99_us", "us", "lower"},
	{"edge.latency_p999_us", "us", "lower"},
	{"edge.tail_samples", "count", "higher"},
	{"passerve.cpu_us_per_req", "us", "lower"},
	{"pasproxy.cpu_us_per_req", "us", "lower"},
	{"serving.hit_ratio", "ratio", "higher"},
	{"serving.evictions", "count", "lower"},
	{"edge.stub_direct_p50_us", "us", "lower"},
	{"harness.client_cpu_us_per_req", "us", "lower"},
	{"harness.ref_op_p50_us", "us", "lower"},
	// The traced in-process run: median self time per request.
	{"edge.self_p50_us", "us", "lower"},
	{"httpmw.self_p50_us", "us", "lower"},
	{"server.self_p50_us", "us", "lower"},
	{"proxy.self_p50_us", "us", "lower"},
	{"ring.self_p50_us", "us", "lower"},
	{"ring.hop_p50_us", "us", "lower"},
	{"upstream_stub.self_p50_us", "us", "lower"},
	{"serving.core_p50_us", "us", "lower"},
	{"serving.hit_self_p50_us", "us", "lower"},
	{"serving.miss_self_p50_us", "us", "lower"},
	{"sft.complement_p50_us", "us", "lower"},
	{"residual_p50_us", "us", "lower"},
	{"trace.e2e_p50_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.inproc_vs_daemon_p50_ratio", "ratio", "higher"},
	// Direct probes.
	{"sft.complement_ns", "ns", "lower"},
	{"sft.complement_allocs", "count", "lower"},
	{"sft.complement_cheap_ns", "ns", "lower"},
	{"facet.analyze_ns", "ns", "lower"},
	{"facet.render_ns", "ns", "lower"},
	{"serving.key_ns", "ns", "lower"},
	{"serving.hit_ns", "ns", "lower"},
	{"serving.hit_par_ns", "ns", "lower"},
	{"serving.hit_allocs", "count", "lower"},
	{"serving.miss_ns", "ns", "lower"},
	{"serving.miss_par_ns", "ns", "lower"},
	{"serving.miss_allocs", "count", "lower"},
	{"httpmw.chain_ns", "ns", "lower"},
	{"httpmw.chain_par_ns", "ns", "lower"},
	{"httpmw.chain_allocs", "count", "lower"},
	{"httpmw.chain_untraced_ns", "ns", "lower"},
	{"obs.trace_overhead_ns", "ns", "lower"},
	{"server.augment_hit_ns", "ns", "lower"},
	{"server.augment_hit_allocs", "count", "lower"},
	{"proxy.rewrite_ns", "ns", "lower"},
	{"proxy.rewrite_allocs", "count", "lower"},
	{"proxy.rewrite_short_ns", "ns", "lower"},
	{"ring.owner_ns", "ns", "lower"},
}

// Metric is one reported value. Windows holds the per-window (or, for
// setup_s, per-repetition) values the median was taken over; Q1 and Q3
// are their quartiles.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// overWindows reports the median of per-window values with their
// quartiles beside it.
func overWindows(xs []float64) Metric {
	q1, q3 := quartiles(xs)
	return Metric{Value: median(xs), Q1: q1, Q3: q3, Windows: xs}
}

// WorkloadReport is everything measured on one workload.
type WorkloadReport struct {
	Name         string            `json:"name"`
	SequenceHash string            `json:"sequence_hash"`
	Clients      int               `json:"clients"`
	DaemonArgv   [][]string        `json:"daemon_argv,omitempty"`
	EndToEnd     map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]Metric `json:"per_layer,omitempty"`
	// Phases counts requests by phase: prewarm, warmup, timed, and the
	// traced run's inproc_spans_on / inproc_spans_off.
	Phases map[string]counts `json:"phases"`
	// WindowRequests is the sample count behind each window's median.
	WindowRequests []int `json:"window_requests,omitempty"`
	// WindowSteal is the hypervisor steal, in clock ticks over all
	// CPUs, during each window.
	WindowSteal []float64 `json:"window_steal,omitempty"`
	Failures    []string  `json:"failures,omitempty"`
}

// set files a measured metric under its name, end to end or per layer
// as the lists above have it, with the unit they give.
func (w *WorkloadReport) set(name string, m Metric) {
	for _, d := range endToEndMetrics {
		if d.Name == name {
			m.Unit = d.Unit
			w.EndToEnd[name] = m
			return
		}
	}
	for _, d := range perLayerMetrics {
		if d.Name == name {
			m.Unit = d.Unit
			w.PerLayer[name] = m
			return
		}
	}
	panic("pasperf: metric " + name + " is in neither list of report.go") // a typo in this package
}

// total sums the phases.
func (w *WorkloadReport) total() counts {
	var c counts
	for _, p := range w.Phases {
		c.add(p)
	}
	return c
}

// Provenance says what was measured, on what.
type Provenance struct {
	Revision    string  `json:"revision"`
	Dirty       bool    `json:"dirty"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	ModelSHA256 string  `json:"model_sha256"`
}

// Report is the -out file, and the input of -compare.
type Report struct {
	Provenance Provenance        `json:"provenance"`
	Workloads  []*WorkloadReport `json:"workloads"`
}

// gitState returns the checkout's revision and whether it has local
// changes. A checkout that is not a git repository — the benchmark
// driver's is not — reports "nogit".
func gitState(root string) (rev string, dirty bool) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "nogit", false
	}
	status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

func provenance(root string, seed uint64, seconds float64, modelSHA string) Provenance {
	rev, dirty := gitState(root)
	return Provenance{
		Revision: rev, Dirty: dirty, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, ModelSHA256: modelSHA,
	}
}

func writeReport(path string, rep *Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printWorkload prints every metric of a workload by name with its
// unit, and the quartiles where the value is a median over windows.
func printWorkload(w io.Writer, wr *WorkloadReport) {
	fmt.Fprintf(w, "\n== %s  (sequence %s, %d clients)\n", wr.Name, wr.SequenceHash, wr.Clients)
	for _, argv := range wr.DaemonArgv {
		fmt.Fprintf(w, "   daemon: %s\n", strings.Join(argv, " "))
	}
	phases := make([]string, 0, len(wr.Phases))
	for phase := range wr.Phases {
		phases = append(phases, phase)
	}
	sort.Strings(phases)
	for _, phase := range phases {
		c := wr.Phases[phase]
		fmt.Fprintf(w, "   phase %-16s sent %d  succeeded %d  failed %d  degraded %d\n", phase, c.Sent, c.Succeeded, c.Failed, c.Degraded)
	}
	if len(wr.WindowRequests) > 0 {
		fmt.Fprintf(w, "   samples per window: %v\n", wr.WindowRequests)
	}
	section := func(title string, defs []metricDef, got map[string]Metric) {
		if len(got) == 0 {
			return
		}
		fmt.Fprintf(w, "   -- %s\n", title)
		for _, d := range defs {
			m, ok := got[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-34s %14.4f %-6s", d.Name, m.Value, m.Unit)
			if len(m.Windows) > 0 {
				fmt.Fprintf(w, "  q1 %.4f  q3 %.4f  n=%d", m.Q1, m.Q3, len(m.Windows))
			}
			fmt.Fprintln(w)
		}
	}
	section("end to end", endToEndMetrics, wr.EndToEnd)
	section("per layer", perLayerMetrics, wr.PerLayer)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   FAILURE: %s\n", f)
	}
}

// driverResult is the one-line result the benchmark contract asks for.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine renders a workload's result: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. A degraded
// reply counts as failed: no workload here loads a daemon enough to
// justify one.
func driverLine(wr *WorkloadReport, traced bool) ([]byte, error) {
	defs, got := endToEndMetrics, wr.EndToEnd
	if traced {
		defs, got = perLayerMetrics, wr.PerLayer
	}
	t := wr.total()
	res := driverResult{Attempted: t.Sent, Failed: t.Failed + t.Degraded, Metrics: map[string]driverValue{}}
	res.Correct = res.Failed == 0 && len(wr.Failures) == 0 && res.Attempted > 0
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", wr.Name, d.Name)
		}
		res.Metrics[d.Name] = driverValue{Value: m.Value, Unit: d.Unit}
	}
	return json.Marshal(res)
}
