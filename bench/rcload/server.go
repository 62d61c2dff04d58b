package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"relcomplete/internal/durable"
	"relcomplete/internal/httpx"
	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
	"relcomplete/internal/server"
)

// instance is one in-process rcserved: the service wired the way
// cmd/rcserved wires it with its flag defaults, listening on loopback.
type instance struct {
	svc     *server.Server
	metrics *obs.Metrics
	logger  *slog.Logger
	srv     *httpx.Server
	dlog    *durable.Log
	base    string
}

// rcservedConfig is server.Config as cmd/rcserved builds it from its
// flag defaults: -workers 0, -max-concurrent 4, -max-queue 64,
// -max-resident-mb 256, -max-body-mb 32, -default-timeout 30s,
// -max-timeout 5m, -slowlog 0, -queue-target 500ms, tenant limits off
// with -breaker-cooldown 5s, no span export.
func rcservedConfig(m *obs.Metrics, logger *slog.Logger, dlog *durable.Log) server.Config {
	return server.Config{
		Workers:          0,
		MaxConcurrent:    4,
		MaxQueue:         64,
		MaxResidentBytes: 256 << 20,
		MaxBodyBytes:     32 << 20,
		DefaultTimeout:   30 * time.Second,
		MaxTimeout:       5 * time.Minute,
		Metrics:          m,
		Logger:           logger,
		SlowOpSink:       io.Discard,
		Durable:          dlog,
		QueueTarget:      500 * time.Millisecond,
		Tenant:           server.TenantLimits{BreakerCooldown: 5 * time.Second},
	}
}

// startInstance starts a fresh server. With dataDir set it runs
// durable, as rcserved -data-dir does: every PUT is appended to a
// write-ahead log and fsynced before its ack. timer, when non-nil,
// wraps the whole handler to time it from outside.
func startInstance(dataDir string, timer *handlerTimer) (*instance, error) {
	m := obs.NewMetrics()
	relation.SetMetrics(m)
	// JSON logs are formatted in full and then discarded, so the
	// access and decision logs cost what they cost in production.
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	in := &instance{metrics: m, logger: logger}
	var recovered []durable.Record
	if dataDir != "" {
		var err error
		in.dlog, recovered, err = durable.Open(dataDir, durable.Options{Logger: logger, Metrics: m})
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
	}
	in.svc = server.New(rcservedConfig(m, logger, in.dlog))
	if in.dlog != nil {
		in.svc.Restore(recovered)
	}
	mux := http.NewServeMux()
	mux.Handle("/", in.svc)
	httpx.RegisterDebug(mux, m)
	var h http.Handler = httpx.AccessLogExport(logger, nil, mux)
	if timer != nil {
		h = timer.wrap(h)
	}
	srv, err := httpx.Serve("127.0.0.1:0", h)
	if err != nil {
		in.closeLog()
		return nil, fmt.Errorf("listen: %w", err)
	}
	in.srv = srv
	in.base = "http://" + srv.Addr().String()
	return in, nil
}

func (in *instance) closeLog() error {
	if in.dlog == nil {
		return nil
	}
	return in.dlog.Close()
}

// close drains the server and closes its log.
func (in *instance) close() error {
	err := in.srv.Close()
	if cerr := in.closeLog(); err == nil {
		err = cerr
	}
	return err
}

// requestIDHeader carries rcload's request number to handlerTimer,
// which then knows whose handler time it measured.
const requestIDHeader = "X-Rcload-Request"

// handlerTimer times the server's whole handler from outside, keyed by
// the request number the client sent. Requests without the header, or
// sent while the timer is off, pass straight through.
type handlerTimer struct {
	on    atomic.Bool
	began []atomic.Int64 // UnixNano, indexed by request number
	took  []atomic.Int64 // ns, indexed by request number
}

func newHandlerTimer(n int) *handlerTimer {
	return &handlerTimer{began: make([]atomic.Int64, n), took: make([]atomic.Int64, n)}
}

func (t *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		took := time.Since(start)
		if id, err := strconv.Atoi(r.Header.Get(requestIDHeader)); err == nil && id >= 0 && id < len(t.took) {
			t.began[id].Store(start.UnixNano())
			t.took[id].Store(took.Nanoseconds())
		}
	})
}
