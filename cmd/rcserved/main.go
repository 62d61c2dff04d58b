// Command rcserved is the long-running completeness-decision service:
// an HTTP/JSON daemon holding named (T, Dm, V) problem instances
// resident and deciding relative-completeness properties over them
// under per-request deadlines, budgets and bounded admission.
//
// Usage:
//
//	rcserved -addr :8080                 # serve the /v1 API (+ /metrics)
//	rcserved -addr :0                    # random port, printed to stderr
//	rcserved -workers 4 -max-concurrent 8 -max-queue 128
//	rcserved -max-resident-mb 64         # registry LRU eviction cap
//	rcserved -drain-timeout 10s          # SIGTERM drain deadline
//	rcserved -slowlog 250ms              # slow-op dumps to stderr
//	rcserved -data-dir /var/lib/rcserved # crash-safe registry (WAL+snapshots)
//	rcserved -queue-target 500ms         # shed decides when queue delay tops this
//	rcserved -tenant-rate 10 -breaker-threshold 5   # per-problem isolation
//
// API:
//
//	PUT    /v1/problems/{name}          load a probjson document
//	GET    /v1/problems[/{name}]        list / inspect loaded problems
//	DELETE /v1/problems/{name}          unload
//	POST   /v1/problems/{name}/decide   {"property": "rcdp", "model":
//	       "strong", "timeout_ms": 500, "budget": {...}, "query": "..."}
//	       (?trace=1 returns the request's span tree inline)
//	GET    /healthz                     200 alive / 503 draining (liveness)
//	GET    /readyz                      readiness: 503 until recovery
//	       replay completes, 503 when the WAL cannot commit, 503 once
//	       draining begins — the load balancer's routing signal
//	GET    /metrics                     Prometheus text exposition, with
//	       per-tenant labelled series and runtime gauges; OpenMetrics
//	       with trace-id exemplars via Accept: application/openmetrics-text
//	       or ?format=openmetrics
//	GET    /debug/requests              recent decide requests, newest
//	       first: trace id, decider, outcome, timings, span tree
//	GET    /debug/plans                 top-K slowest plans across
//	       resident problems (?k=, default 10), with per-node timings
//
// Every request runs under a request-scoped trace: a client-sent W3C
// traceparent header is adopted (and echoed back), otherwise fresh ids
// are minted. All operational output is structured JSON on stderr via
// log/slog — an access-log line per request, a decision-log line per
// decide (trace_id, problem, decider, verdict, outcome, queue-wait and
// wall times), warn lines on registry eviction and admission overflow,
// and the -slowlog flight-recorder dumps tagged with the trace id.
//
// Status mapping: an expired per-request deadline answers 408 with the
// DeadlineError detail (op, elapsed, progress snapshot); an exhausted
// search budget answers 422 with the BudgetError detail; a full
// admission queue answers 429 with Retry-After. The verdict in all
// three cases is unknown — never a fabricated "no".
//
// With -data-dir the registry is crash-safe: every PUT/DELETE is
// committed to a checksummed write-ahead log (fsync before the ack)
// and folded into an atomic snapshot every -snapshot-every plus once
// at drain; on boot the snapshot and the WAL's longest valid prefix
// are replayed, discarding any torn tail with a warning. A PUT the
// WAL refuses answers 503 storage and mutates nothing.
//
// Per-problem isolation (off by default): -tenant-rate arms a token
// bucket per problem (429 rate_limited past it) and -breaker-threshold
// arms a circuit breaker that answers 503 breaker_open after that many
// consecutive server-side decide failures on one problem, probing
// again after -breaker-cooldown. -queue-target sheds decide requests
// 429 whenever the median admission-queue wait exceeds it, with
// Retry-After computed from live queue depth and drain rate.
//
// On SIGTERM/SIGINT the daemon stops accepting connections, turns
// /healthz 503, finishes in-flight decisions within -drain-timeout and
// exits 0 on a clean drain (1 when the deadline cut requests short).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relcomplete/internal/durable"
	"relcomplete/internal/httpx"
	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
	"relcomplete/internal/server"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stderr, sigs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rcserved:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives, then drains.
// ready, when non-nil, receives the bound address once the server is
// listening (tests use it instead of scraping stderr).
func run(args []string, stderr io.Writer, sigs <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("rcserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address for the API and /metrics")
	workers := fs.Int("workers", 0, "Options.Parallelism for loaded problems (0 = GOMAXPROCS)")
	maxConcurrent := fs.Int("max-concurrent", 4, "decide calls running at once (admission concurrency cap)")
	maxQueue := fs.Int("max-queue", 64, "decide calls waiting for a slot before 429s (bounded queue depth)")
	maxResidentMB := fs.Int64("max-resident-mb", 256, "registry resident-bytes cap in MiB (LRU eviction; -1 = unlimited)")
	defaultTimeout := fs.Duration("default-timeout", 30*time.Second, "decide deadline when the request sets no timeout_ms")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "upper bound on a request's timeout_ms")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "SIGTERM: how long in-flight decisions may run before hard close")
	slowlog := fs.Duration("slowlog", 0, "dump the flight recorder to stderr when one decider call exceeds this (0 = off)")
	traceExport := fs.String("trace-export", "", "export finished request spans: a file path gets one JSON span per line, an http(s):// URL POSTs OTLP/HTTP JSON")
	dataDir := fs.String("data-dir", "", "durable registry state: write-ahead log + snapshots in this directory, replayed on boot (empty = in-memory only)")
	snapshotEvery := fs.Duration("snapshot-every", 5*time.Minute, "how often to fold the WAL into a registry snapshot (with -data-dir; 0 = only at drain)")
	maxBodyMB := fs.Int64("max-body-mb", 32, "cap on one PUT or decide request body in MiB")
	queueTarget := fs.Duration("queue-target", 500*time.Millisecond, "shed decide requests 429 while the median queue wait exceeds this (0 = hard cap only)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-problem sustained decide rate limit in requests/second (0 = off)")
	tenantBurst := fs.Float64("tenant-burst", 0, "per-problem burst allowance on top of -tenant-rate (0 = max(1, rate))")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive server-side decide failures that open a problem's circuit breaker (0 = off)")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit breaker waits before a half-open probe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	// All operational output is structured JSON on stderr: access and
	// decision logs, eviction/overload warnings, lifecycle messages.
	logger := slog.New(slog.NewJSONHandler(stderr, nil))
	metrics := obs.NewMetrics()
	relation.SetMetrics(metrics) // index counters live behind a process-global hook
	maxResident := *maxResidentMB
	if maxResident > 0 {
		maxResident <<= 20
	}
	// The span export pipeline is optional: finished request traces go
	// to a JSONL file or an OTLP/HTTP collector on a background worker,
	// never blocking a decide. Closed after the drain so in-flight
	// request spans still flush.
	var exporter *obs.SpanExporter
	if *traceExport != "" {
		var sink obs.SpanSink
		if strings.HasPrefix(*traceExport, "http://") || strings.HasPrefix(*traceExport, "https://") {
			sink = obs.NewOTLPSink(*traceExport, "rcserved", nil)
		} else {
			s, err := obs.OpenJSONLFile(*traceExport)
			if err != nil {
				return fmt.Errorf("trace-export: %w", err)
			}
			sink = s
		}
		exporter = obs.NewSpanExporter(sink, obs.ExporterConfig{})
		defer exporter.Close()
	}

	// Durable registry: open (creating) the data dir, run recovery, and
	// replay the recovered mutations into the registry before the
	// listener comes up — /readyz stays 503 until the replay completes.
	var dlog *durable.Log
	var recovered []durable.Record
	if *dataDir != "" {
		var err error
		dlog, recovered, err = durable.Open(*dataDir, durable.Options{
			Logger:  logger,
			Metrics: metrics,
		})
		if err != nil {
			return fmt.Errorf("data-dir: %w", err)
		}
		defer dlog.Close()
	}

	svc := server.New(server.Config{
		Workers:          *workers,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		MaxResidentBytes: maxResident,
		MaxBodyBytes:     *maxBodyMB << 20,
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		Metrics:          metrics,
		Logger:           logger,
		SlowOpThreshold:  *slowlog,
		SlowOpSink:       stderr,
		TraceExporter:    exporter,
		Durable:          dlog,
		QueueTarget:      *queueTarget,
		Tenant: server.TenantLimits{
			Rate:             *tenantRate,
			Burst:            *tenantBurst,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		},
	})
	if dlog != nil {
		applied, skipped := svc.Restore(recovered)
		logger.LogAttrs(context.Background(), slog.LevelInfo, "rcserved: recovery replay complete",
			slog.String("data_dir", dlog.Dir()),
			slog.Int("records", len(recovered)),
			slog.Int("applied", applied),
			slog.Int("skipped", skipped),
			slog.Int("problems", svc.Registry().Len()))
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc)
	httpx.PublishSnapshot("solver", metrics)
	httpx.RegisterDebug(mux, metrics) // /metrics, /debug/vars, /debug/pprof

	// The access-log middleware owns the request root span: it ingests
	// the client's traceparent, stamps the response header, writes one
	// JSON line per request — for /v1 and debug routes alike — and, when
	// -trace-export is set, hands the finished span tree to the exporter.
	srv, err := httpx.Serve(*addr, httpx.AccessLogExport(logger, exporter, mux))
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	bound := srv.Addr().String()
	logger.LogAttrs(context.Background(), slog.LevelInfo, "rcserved: serving /v1",
		slog.String("addr", bound))
	if ready != nil {
		ready <- bound
	}

	// Periodic snapshots bound recovery-replay time: the WAL is folded
	// into snapshot.json every -snapshot-every (and once more after the
	// drain, so a clean shutdown restarts from a snapshot alone).
	snapDone := make(chan struct{})
	snapStopped := make(chan struct{})
	go func() {
		defer close(snapStopped)
		if dlog == nil || *snapshotEvery <= 0 {
			return
		}
		t := time.NewTicker(*snapshotEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := svc.SnapshotNow(); err != nil {
					logger.LogAttrs(context.Background(), slog.LevelWarn,
						"rcserved: periodic snapshot failed",
						slog.String("error", err.Error()))
				}
			case <-snapDone:
				return
			}
		}
	}()

	sig := <-sigs
	logger.LogAttrs(context.Background(), slog.LevelInfo, "rcserved: draining",
		slog.String("signal", sig.String()),
		slog.Duration("deadline", *drainTimeout))
	svc.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	close(snapDone)
	<-snapStopped
	if dlog != nil {
		// Final snapshot after the drain: every mutation the daemon
		// acknowledged is in the snapshot, and the next boot replays no
		// WAL at all. Failure is not fatal — the WAL already holds
		// everything.
		if err := svc.SnapshotNow(); err != nil {
			logger.LogAttrs(context.Background(), slog.LevelWarn,
				"rcserved: final snapshot failed (wal remains authoritative)",
				slog.String("error", err.Error()))
		}
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "rcserved: drained cleanly")
	return nil
}
