// Package obs is the zero-dependency observability layer of the PAS
// serving stack: distributed tracing with W3C traceparent propagation,
// a unified metrics registry with Prometheus text exposition, and the
// shared HTTP plumbing (response recorder, debug mux) the services
// build their operational surface from.
//
// The paper serves r_e = LLM(cat(p, M_p(p))) through a multi-hop
// pipeline — proxy → serving core → augment stages → model backend —
// and its evaluation hinges on per-stage attribution of latency and
// failure. obs gives every hop the same three primitives:
//
//   - Tracing. A Tracer hands out Spans (StartSpan) that carry
//     attributes, events, and an error status; spans nest through the
//     context, and the trace id travels between processes in the W3C
//     traceparent header (Inject/Extract). Finished traces land in a
//     bounded in-memory store with head sampling plus always-keep
//     promotion for errored and slow traces, browsable at
//     /debug/traces.
//
//   - Metrics. A Registry holds counters and bounded histograms —
//     registered instruments for hot-path increments — and scrape-time
//     collectors for subsystems that already keep their own counters
//     and gauges (the serving core, breakers, caches). Gather snapshots
//     both into []Family, the one form Write renders; one scrape at
//     /metricsz serves the whole process in Prometheus text exposition
//     format under the pas_ namespace.
//
//   - Profiling and debug surface. DebugMux bundles net/http/pprof,
//     /debug/traces, and /metricsz for a separate -debug-addr listener,
//     so the debug surface never shares the serving port.
//
// Everything is stdlib-only and safe for concurrent use. Every entry
// point is nil-tolerant: code instrumented with obs runs unchanged — a
// handful of nanoseconds per call — when no tracer or registry is
// installed, which is what keeps the cached hot path within its
// latency budget when observability is off.
package obs
