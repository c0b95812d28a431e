package obs

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"
)

// This file is the process-level half of the metrics surface: what the
// Go runtime itself can tell an operator about a PAS daemon. Two
// registration points, both scrape-time collectors so the hot path pays
// nothing:
//
//   - RegisterBuildInfo: one pas_build_info gauge carrying the build's
//     identity (go version, VCS revision) plus a process-uptime gauge,
//     so a fleet scrape answers "which build is each replica running
//     and how long has it been up" — the first two questions of any
//     rollout or perf-regression investigation.
//
//   - RegisterRuntimeMetrics: goroutine count, heap bytes, cumulative
//     allocation, GC cycles, and GC pause quantiles, read from
//     runtime/metrics at scrape time. These are the denominators a
//     latency-regression investigation needs: was it allocation
//     pressure, a goroutine leak, or GC pauses?

// Runtime metric names sampled by RegisterRuntimeMetrics. Unsupported
// names (older runtimes) are skipped, never served as zeros.
const (
	metricGoroutines = "/sched/goroutines:goroutines"
	metricHeapBytes  = "/memory/classes/heap/objects:bytes"
	metricTotalBytes = "/memory/classes/total:bytes"
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricGCPauses   = "/sched/pauses/total/gc:seconds"
)

// RegisterRuntimeMetrics exposes runtime telemetry on reg, read from
// runtime/metrics at scrape time:
//
//	pas_runtime_goroutines          current goroutine count
//	pas_runtime_heap_bytes          live heap object bytes
//	pas_runtime_memory_bytes        total bytes mapped by the runtime
//	pas_runtime_alloc_bytes_total   cumulative heap allocation
//	pas_runtime_gc_cycles_total     completed GC cycles
//	pas_runtime_gc_pause_seconds    GC stop-the-world pause quantiles
//	                                (0.5/0.9/0.99, from the runtime's
//	                                full pause histogram)
func RegisterRuntimeMetrics(reg *Registry) {
	samples := []rtmetrics.Sample{
		{Name: metricGoroutines},
		{Name: metricHeapBytes},
		{Name: metricTotalBytes},
		{Name: metricAllocBytes},
		{Name: metricGCCycles},
		{Name: metricGCPauses},
	}
	reg.RegisterCollector(func(e *Emitter) {
		rtmetrics.Read(samples)
		for _, s := range samples {
			switch s.Name {
			case metricGoroutines:
				if v, ok := sampleValue(s); ok {
					e.Gauge("pas_runtime_goroutines", "Goroutines currently live.", v)
				}
			case metricHeapBytes:
				if v, ok := sampleValue(s); ok {
					e.Gauge("pas_runtime_heap_bytes", "Bytes of live heap objects.", v)
				}
			case metricTotalBytes:
				if v, ok := sampleValue(s); ok {
					e.Gauge("pas_runtime_memory_bytes", "Total bytes of memory mapped by the Go runtime.", v)
				}
			case metricAllocBytes:
				if v, ok := sampleValue(s); ok {
					e.Counter("pas_runtime_alloc_bytes_total", "Cumulative bytes allocated on the heap.", v)
				}
			case metricGCCycles:
				if v, ok := sampleValue(s); ok {
					e.Counter("pas_runtime_gc_cycles_total", "Completed GC cycles.", v)
				}
			case metricGCPauses:
				if s.Value.Kind() != rtmetrics.KindFloat64Histogram {
					continue
				}
				h := s.Value.Float64Histogram()
				for _, q := range []struct {
					q     float64
					label string
				}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}} {
					e.Gauge("pas_runtime_gc_pause_seconds", "GC stop-the-world pause quantiles in seconds.",
						histQuantile(h, q.q), "quantile", q.label)
				}
			}
		}
	})
}

// sampleValue converts a scalar runtime/metrics sample to float64; ok
// is false for unsupported (KindBad) or histogram-shaped samples.
func sampleValue(s rtmetrics.Sample) (float64, bool) {
	switch s.Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64()), true
	case rtmetrics.KindFloat64:
		return s.Value.Float64(), true
	default:
		return 0, false
	}
}

// histQuantile estimates quantile q of a runtime Float64Histogram: the
// upper boundary of the bucket where the cumulative count crosses
// q*total (nearest-rank on bucketed data — exact enough for pause
// monitoring). An empty histogram reports 0; an infinite upper bound
// falls back to the bucket's finite lower bound.
func histQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Bucket i spans Buckets[i] (lower) to Buckets[i+1] (upper).
			upper := h.Buckets[i+1]
			if isInf(upper) {
				return h.Buckets[i]
			}
			return upper
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

func isInf(f float64) bool { return f > 1.7e308 || f < -1.7e308 }

// RegisterBuildInfo exposes the build's identity and the process
// uptime on reg:
//
//	pas_build_info{service,go_version,revision} 1
//	pas_process_uptime_seconds
//
// The revision comes from the VCS stamp in runtime/debug.ReadBuildInfo
// (the vcs.revision setting, shortened to 12 hex chars, with a -dirty
// suffix for modified trees); builds without a stamp — go test binaries,
// go run — report "unknown". Call once at startup; the uptime clock
// starts at the call.
func RegisterBuildInfo(reg *Registry, service string) {
	start := time.Now()
	goVersion := runtime.Version()
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			revision = rev
		}
	}
	reg.RegisterCollector(func(e *Emitter) {
		e.Gauge("pas_build_info", "Build identity; the value is always 1, the labels carry the information.",
			1, "service", service, "go_version", goVersion, "revision", revision)
		e.Gauge("pas_process_uptime_seconds", "Seconds since this process registered its metrics.",
			time.Since(start).Seconds())
	})
}
