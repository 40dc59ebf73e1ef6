// The debug HTTP endpoint: net/http/pprof for profiles and /metrics for
// the registry's OpenMetrics exposition.
package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug starts the debug HTTP server on addr (e.g. "localhost:6060")
// serving /debug/pprof/* and /metrics (this observer's registry as
// OpenMetrics text, for Prometheus scrapers). It returns the bound
// listener address — useful with ":0" — and a shutdown func. The server
// runs until shut down; handler reads see live metric values. Nil-safe: a
// disabled observer serves pprof with an empty registry.
func (o *Observer) ServeDebug(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", MetricsHandler(o.Registry()))

	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}
