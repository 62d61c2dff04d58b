// Package httpx is the HTTP plumbing shared by cmd/rcbench's debug
// endpoint and the cmd/rcserved daemon: an eagerly-bound server with
// one graceful-shutdown discipline (context-bounded Shutdown, hard
// Close on expiry, idempotent under double shutdown) and the standard
// debug mux (/metrics Prometheus exposition, /debug/vars expvar,
// /debug/pprof). Keeping the shutdown path in one place means a fix to
// the drain logic reaches both binaries.
package httpx

import (
	"context"
	"encoding/json"
	"expvar"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"time"

	"relcomplete/internal/obs"
)

// CloseTimeout bounds Close's graceful-drain phase; past it the server
// hard-closes its connections.
const CloseTimeout = 2 * time.Second

// Server wraps net.Listener + http.Server with a graceful shutdown
// path: Drain stops accepting, lets in-flight requests finish within
// the context's deadline, then hard-closes whatever remains. A scrape
// or decide racing the process's end is completed, not cut
// mid-response.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when Serve returns

	shutdownOnce sync.Once
	shutdownErr  error
}

// Serve binds addr eagerly — a bad address fails the caller instead of
// silently serving nothing — and serves h in the background until
// Drain or Close.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Drain gracefully shuts the server down: no new connections, in-flight
// requests run to completion until ctx expires, then hard close. It
// returns nil on a clean drain and ctx's error when the deadline cut
// requests short. Drain and Close are idempotent — concurrent or
// repeated calls share one shutdown and return its result.
func (s *Server) Drain(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		err := s.srv.Shutdown(ctx)
		if err != nil {
			s.srv.Close()
		}
		<-s.done
		s.shutdownErr = err
	})
	return s.shutdownErr
}

// Close is Drain with the default CloseTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), CloseTimeout)
	defer cancel()
	return s.Drain(ctx)
}

// RegisterDebug mounts the shared debug routes on mux: the metrics
// exposition of m under /metrics (Prometheus text by default,
// OpenMetrics with exemplars when the client asks via an Accept header
// or ?format=openmetrics), expvar under /debug/vars and the Go
// profiler under /debug/pprof/.
func RegisterDebug(mux *http.ServeMux, m *obs.Metrics) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if obs.WantsOpenMetrics(r.Header.Get("Accept"), r.URL.Query().Get("format")) {
			w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
			m.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		m.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}

// NewDebugMux is RegisterDebug on a fresh mux.
func NewDebugMux(m *obs.Metrics) *http.ServeMux {
	mux := http.NewServeMux()
	RegisterDebug(mux, m)
	return mux
}

// RegisterPlans mounts a GET /debug/plans endpoint serving top(k) as
// {"plans": ...} JSON. top is called with the requested k (query
// parameter ?k=, default 10) and returns a JSON-marshalable slice of
// plan-profile stats; keeping it a callback lets callers hand in
// eval.ProfileRegistry.Top without this package depending on the
// evaluator.
func RegisterPlans(mux *http.ServeMux, top func(k int) any) {
	mux.HandleFunc("GET /debug/plans", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if s := r.URL.Query().Get("k"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, "bad k", http.StatusBadRequest)
				return
			}
			k = n
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"plans": top(k)})
	})
}

// statusWriter captures the response status and byte count for the
// access log without interposing on the body path.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it streams.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog wraps next with request tracing and a structured access
// log: each request gets a root span (adopting the client's W3C
// traceparent header when present, minting fresh ids otherwise)
// carried on the request context, the response echoes the request's
// identity in a traceparent header, and one JSON line per request goes
// to l with the trace id, method, path, status, response bytes and
// wall time. A request arriving with a span already on its context
// (nested middleware) is logged against that span instead of opening a
// second trace. l may be nil, which disables the logging but keeps the
// tracing.
func AccessLog(l *slog.Logger, next http.Handler) http.Handler {
	return AccessLogExport(l, nil, next)
}

// AccessLogExport is AccessLog with an optional span export pipeline:
// when exporter is non-nil and this middleware opened the request's
// root span, the finished span tree is enqueued on the exporter after
// the root ends. Enqueue never blocks, so a slow or wedged sink costs
// dropped spans, not request latency. A nil exporter makes this
// exactly AccessLog.
func AccessLogExport(l *slog.Logger, exporter *obs.SpanExporter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		root := obs.SpanFromContext(r.Context())
		if root == nil {
			rec := obs.NewSpanRecorder(0)
			root = rec.Root(r.Method+" "+r.URL.Path, r.Header.Get("traceparent"))
			defer func() {
				root.End()
				if exporter != nil {
					exporter.Enqueue(rec.Spans())
				}
			}()
			r = r.WithContext(obs.ContextWithSpan(r.Context(), root))
		}
		w.Header().Set("traceparent", root.Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if l != nil {
			l.LogAttrs(r.Context(), slog.LevelInfo, "access",
				slog.String("trace_id", root.TraceHex()),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("duration_ms", float64(time.Since(start).Nanoseconds())/1e6),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

var (
	publishMu sync.Mutex
	published = map[string]bool{}
)

// PublishSnapshot publishes m's stats snapshot as the expvar variable
// name: m itself, an expvar.Var whose String is Metrics.AppendJSON.
// expvar.Publish panics on duplicate names; this wrapper makes
// republishing (a second run() in the same test process, both binaries'
// packages under one test run) a no-op — the first metrics instance
// wins for the life of the process.
func PublishSnapshot(name string, m *obs.Metrics) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if published[name] {
		return
	}
	published[name] = true
	expvar.Publish(name, m)
}
