package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler bundling the run's observability
// endpoints:
//
//	/metrics       the registry in Prometheus text exposition format
//	/debug/vars    expvar (Go runtime memstats, cmdline)
//	/debug/pprof/  the standard profiling endpoints (heap, profile,
//	               goroutine, trace, ...)
//
// cmd/uts and the shared-memory example mount it behind their opt-in
// -obs :addr flag; scraping /metrics during a long run watches steal
// counters and latency buckets move live — the simulator's
// sim_link_messages matrix alone trails, by under 32 768 messages per
// engine, because core batches link counts and folds the rest in when
// the run ends — and /debug/pprof profiles the simulator itself (the
// ROADMAP's "fast as the hardware allows" work reads its numbers from
// here). This package never reads the host clock — handlers only render
// state that callers put in the registry.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "distws observability\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}
