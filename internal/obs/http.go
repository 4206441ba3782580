package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// HTTP debug surface: poemd serves this on its -debug listener.
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        liveness probe
//	/debug/pprof/*  the standard Go profiling endpoints
//
// plus the extra endpoints a caller mounts (poemd adds the fidelity
// monitor's /trace, /healthz and /fidelity/*). The gate channel ties
// the endpoint's lifetime to the emulation server: once the gate closes
// (the server finished and the store is about to be torn down),
// /metrics and the extras answer 503 instead of racing the teardown — a late scrape must not touch a store whose WAL
// is mid-close.

// Endpoint is an extra debug route mounted by Handler. An extra whose
// Pattern collides with a built-in route (e.g. /healthz) replaces it,
// so a subsystem with a richer health report can take over the probe.
type Endpoint struct {
	Pattern string
	H       http.Handler
}

// Handler builds the debug mux. reg supplies /metrics; gate (may be
// nil) disables the scrape endpoints once closed. extras are mounted on the same mux, behind the same gate —
// except /healthz overrides, which stay ungated (a liveness probe must
// answer during shutdown too).
func Handler(reg *Registry, gate <-chan struct{}, extras ...Endpoint) http.Handler {
	gated := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if gate != nil {
				select {
				case <-gate:
					http.Error(w, "emulation server shut down", http.StatusServiceUnavailable)
					return
				default:
				}
			}
			h(w, r)
		}
	}
	mux := http.NewServeMux()
	overridden := make(map[string]bool, len(extras))
	for _, e := range extras {
		overridden[e.Pattern] = true
		if e.Pattern == "/healthz" {
			mux.Handle(e.Pattern, e.H)
			continue
		}
		mux.HandleFunc(e.Pattern, gated(e.H.ServeHTTP))
	}
	if !overridden["/metrics"] {
		mux.HandleFunc("/metrics", gated(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		}))
	}
	if !overridden["/healthz"] {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok\n"))
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug listener.
type DebugServer struct {
	lis net.Listener
	srv *http.Server
}

// ListenDebug binds addr and serves the debug handler in a background
// goroutine.
func ListenDebug(addr string, h http.Handler) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{lis: lis, srv: &http.Server{Handler: h}}
	go d.srv.Serve(lis)
	return d, nil
}

// Addr returns the bound address.
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close stops the listener and aborts in-flight requests. Call it
// before tearing down the stores the handlers read from.
func (d *DebugServer) Close() error { return d.srv.Close() }
