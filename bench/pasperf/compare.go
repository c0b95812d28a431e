package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the contract later PRs are judged
// by. pasperf reads the bounds from it and nothing else.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// verdict is one workload x end-to-end metric judged.
type verdict struct {
	workload, metric string
	a, b             Metric
	worse            float64 // share of A by which B is worse; negative = better
	spread           float64 // the wider of the two runs' window spreads
	bound            float64
	status           string // ok, unresolved, BREACH
}

// judge compares B against A on one metric. A metric whose windows
// spread wider than its bound cannot be told apart from noise in a
// single pair of runs and is reported as unresolved, not as unchanged.
func judge(def benchMetric, a, b Metric) verdict {
	v := verdict{metric: def.Name, a: a, b: b, bound: def.Bound}
	if a.Value != 0 {
		v.worse = (b.Value - a.Value) / a.Value
		if def.Better == "higher" {
			v.worse = -v.worse
		}
	}
	v.spread = max(spread(a.Windows), spread(b.Windows))
	switch {
	case v.spread > def.Bound:
		v.status = "unresolved"
	case v.worse > def.Bound:
		v.status = "BREACH"
	default:
		v.status = "ok"
	}
	return v
}

// compareReports judges every workload x end-to-end metric both reports
// hold. A failed or degraded request in B that A did not have is a
// breach of its own.
func compareReports(bf *benchmarkFile, a, b *Report) []verdict {
	var out []verdict
	byName := map[string]*WorkloadReport{}
	for _, w := range a.Workloads {
		byName[w.Name] = w
	}
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			continue
		}
		for _, def := range bf.EndToEnd {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v := judge(def, ma, mb)
			v.workload = wb.Name
			out = append(out, v)
		}
		ta, tb := wa.total(), wb.total()
		bad := verdict{workload: wb.Name, metric: "failed+degraded", status: "ok",
			a: Metric{Value: float64(ta.Failed + ta.Degraded)}, b: Metric{Value: float64(tb.Failed + tb.Degraded)}}
		if bad.b.Value > bad.a.Value {
			bad.status = "BREACH"
		}
		out = append(out, bad)
	}
	return out
}

// runCompare prints the table and returns the exit code: 1 on a breach.
func runCompare(w io.Writer, pathA, pathB string) int {
	var bf *benchmarkFile
	var a, b *Report
	root, err := moduleRoot()
	if err == nil {
		bf, err = readBenchmarkFile(root)
	}
	if err == nil {
		a, err = readReport(pathA)
	}
	if err == nil {
		b, err = readReport(pathB)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasperf: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s  revision %s seed %d\nB: %s  revision %s seed %d\n",
		pathA, a.Provenance.Revision, a.Provenance.Seed, pathB, b.Provenance.Revision, b.Provenance.Seed)
	fmt.Fprintf(w, "%-13s %-16s %12s %21s %12s %21s %8s %7s %7s  %s\n",
		"workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "worse", "spread", "bound", "status")
	code := 0
	for _, v := range compareReports(bf, a, b) {
		fmt.Fprintf(w, "%-13s %-16s %12.3f %21s %12.3f %21s %+7.1f%% %6.1f%% %6.1f%%  %s\n",
			v.workload, v.metric, v.a.Value, quartileText(v.a), v.b.Value, quartileText(v.b),
			100*v.worse, 100*v.spread, 100*v.bound, v.status)
		if v.status == "BREACH" {
			code = 1
		}
	}
	return code
}

func quartileText(m Metric) string {
	if len(m.Windows) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f..%.3f", m.Q1, m.Q3)
}
