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
//   - Tracing. A Tracer hands out Spans (StartRequest, StartSpan) that
//     carry attributes, events, and an error status; a span is its
//     children's context, and W3C traceparent headers carry the trace
//     id between processes (Inject, StartRequest). Finished traces land in a
//     bounded in-memory store with head sampling plus always-keep
//     promotion for errored and slow traces, browsable at
//     /debug/traces.
//
//   - Metrics. Every number is held by its owner — a counter it keeps,
//     a gauge it reads, a bounded Histogram it observes into — and a
//     Registry holds only the owners' scrape-time collectors, which emit
//     those numbers through an Emitter. Gather snapshots them into
//     []Family, the one form Write renders; one scrape at /metricsz
//     serves the whole process in Prometheus text exposition format
//     under the pas_ namespace.
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
