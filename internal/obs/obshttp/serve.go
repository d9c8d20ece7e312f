// Package obshttp is the one telemetry HTTP endpoint racemon and
// racemond serve. It is a package of its own, not part of obs, so the
// monitor, which imports obs, does not link the HTTP and profiling
// handlers into every binary that uses it.
package obshttp

import (
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Serve binds addr and serves a process's telemetry endpoint: stats at
// /stats, expvar at /debug/vars, and the net/http/pprof handlers under
// /debug/pprof/. It binds before returning, so an address already in
// use is an error here rather than a process that runs without
// telemetry. It returns the bound address (addr may ask for port 0) and
// a stop function, to be called once, that closes the listener and every
// open connection and returns once the serving goroutine has exited.
func Serve(addr string, stats http.Handler) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obshttp: stats endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/stats", stats)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		cerr := srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("obshttp: stats endpoint: %w", err)
		}
		return cerr
	}
	return ln.Addr(), stop, nil
}
