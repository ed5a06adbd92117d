package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler serving the registry:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  the same registry as JSON
//	/healthz       200 "ok" while health() == nil, 503 with the error
//	               text otherwise (a daemon's health func fails once
//	               graceful shutdown begins, so load balancers drain it)
//	/debug/pprof/  the net/http/pprof handlers (index, cmdline, profile,
//	               symbol, trace): a process serving metrics can be
//	               profiled live, with no flag and no rebuild
//
// health may be nil, meaning always healthy.
func Handler(reg *Registry, health func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if health != nil {
			if err := health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(err.Error() + "\n"))
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (":0" for an ephemeral port) and serves the
// registry's Handler on it until Close.
func Serve(addr string, reg *Registry, health func() error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           Handler(reg, health),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint immediately.
func (s *Server) Close() error { return s.srv.Close() }
