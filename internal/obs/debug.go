package obs

import (
	"context"
	"errors"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux bundles the debug surface a PAS service exposes on its
// -debug-addr listener, deliberately separate from the serving port:
//
//	/debug/pprof/*  net/http/pprof profiling (CPU, heap, goroutines, ...)
//	/debug/traces   the tracer's recent and slowest traces as JSON
//	/metricsz       the registry in Prometheus text exposition
//
// Nil reg or tracer simply omit their endpoints.
func DebugMux(reg *Registry, tracer *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if tracer != nil {
		mux.Handle("/debug/traces", tracer.Handler())
	}
	if reg != nil {
		mux.Handle("/metricsz", reg.Handler())
	}
	return mux
}

// ServeDebug runs h on addr until ctx is cancelled, then shuts the
// listener down (bounded at 2s — profiling clients are not worth a
// long drain). A clean shutdown returns nil. The debug listener has no
// request timeouts: a 30s CPU profile is a legitimately long request.
func ServeDebug(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
