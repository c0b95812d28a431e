// Command pasperf is the repository's performance benchmark. It builds
// cmd/passerve and cmd/pasproxy from the tree, drives them black-box
// with seeded closed-loop load on four workloads, checks every reply
// against the paper's contract, and attributes a request's time layer
// by layer in a traced in-process composition. See bench/README.md.
//
//	go run -C bench ./pasperf                              # all workloads, both runs, report + traces
//	go run -C bench ./pasperf -workload serve_hot -trace 0 # one run, result as the last line
//	go run -C bench ./pasperf -compare A.json B.json       # judge B against A by BENCHMARK.json's bounds
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// resultDir holds the traces and the default report, relative to the
// module root. It is listed in .gitignore.
var resultDir = filepath.Join("bench", "results")

// defaultSeconds matches BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+" (empty runs all four)")
		seed     = flag.Uint64("seed", 1, "seed of the request generator; the same seed gives the same request sequence")
		secs     = flag.Float64("seconds", defaultSeconds, "seconds one run measures")
		trace    = flag.String("trace", "both", "0: end-to-end run against the daemons; 1: traced run for the per-layer metrics; both")
		out      = flag.String("out", "", "write the full report here (default bench/results/report.json when running all workloads)")
		compare  = flag.Bool("compare", false, "compare two reports: pasperf -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(2, "usage: pasperf -compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fail(2, "unexpected arguments: %v", flag.Args())
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fail(2, "-trace must be 0, 1 or both")
	}
	if *secs <= 0 {
		fail(2, "-seconds must be positive")
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fail(2, "unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
		}
		names = []string{*workload}
	}

	r, err := newRunner(*seed, *secs, resultDir)
	if err != nil {
		fail(1, "%v", err)
	}
	modelSHA, err := fileSHA256(r.modelPath)
	if err != nil {
		r.close(true)
		fail(1, "%v", err)
	}
	rep := &Report{Provenance: provenance(r.root, *seed, *secs, modelSHA)}
	p := rep.Provenance
	fmt.Printf("pasperf: revision %s dirty=%v %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g\npasperf: model sha256 %s\n",
		p.Revision, p.Dirty, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.Seed, p.Seconds, p.ModelSHA256)

	for _, name := range names {
		wr, err := runWorkload(r, name, *trace)
		if err != nil {
			r.close(true)
			fail(1, "workload %s: %v", name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(os.Stdout, wr)
	}

	incorrect := false
	for _, wr := range rep.Workloads {
		t := wr.total()
		incorrect = incorrect || t.Failed+t.Degraded > 0 || len(wr.Failures) > 0
	}
	r.close(incorrect)
	if *out == "" && *workload == "" {
		*out = filepath.Join(r.resultDir, "report.json")
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("\npasperf: report written to %s\n", *out)
	}
	// One workload, one kind of run: the benchmark driver's form. The
	// result is the last line of standard output.
	if *workload != "" && *trace != "both" {
		line, err := driverLine(rep.Workloads[0], *trace == "1")
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("%s\n", line)
		return
	}
	if incorrect {
		fail(1, "some replies failed the oracle or were degraded; see FAILURE lines above")
	}
}

// runWorkload runs one workload: the end-to-end run, the traced run, or
// both merged into one report.
func runWorkload(r *runner, name, trace string) (*WorkloadReport, error) {
	var e2e, layers *WorkloadReport
	var err error
	if trace != "1" {
		if e2e, err = r.endToEnd(name); err != nil {
			return nil, err
		}
	}
	if trace != "0" {
		if layers, err = r.layers(name); err != nil {
			return nil, err
		}
	}
	if e2e == nil || layers == nil {
		return cmp.Or(e2e, layers), nil
	}
	// Both: the long run's numbers, black-box per-layer ones included,
	// and from the traced run what only it measures. Its phases are kept
	// apart by a prefix.
	for name, m := range layers.PerLayer {
		if _, ok := e2e.PerLayer[name]; !ok {
			e2e.PerLayer[name] = m
		}
	}
	for phase, c := range layers.Phases {
		if strings.HasPrefix(phase, "inproc_") {
			e2e.Phases[phase] = c
		} else {
			e2e.Phases["traced_"+phase] = c
		}
	}
	e2e.Failures = append(e2e.Failures, layers.Failures...)
	return e2e, nil
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pasperf: "+format+"\n", args...)
	os.Exit(code)
}
