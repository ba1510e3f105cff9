// Command nscoord is the scatter-gather coordinator of a sharded
// nsserve cluster: it answers NS-SPARQL queries against the union of
// N hash-by-subject shard servers, routing inserts to the owning
// shard and degrading gracefully when shards fail.
//
// Usage:
//
//	nscoord -shards http://h1:8081,http://h2:8082 -addr :8080
//
// Endpoints:
//
//	GET  /query?q=<query>[&syntax=paper|sparql][&timeout=<dur|ms>]
//	     SELECT/pattern → SPARQL 1.1 JSON results, extended with
//	     "partial": bool and, when partial, a per-shard "shards" error
//	     block.  ASK → {"boolean": ..., "partial": ...}.  CONSTRUCT →
//	     N-Triples (text/plain) with an X-Partial: true header when
//	     degraded.  502 when no shard is reachable at all.
//	POST /insert       N-Triples body, partitioned by subject hash and
//	     forwarded to the owning shards; response {"added": N,
//	     "partial": bool[, "shards": [...]]}
//	GET  /healthz      liveness (always 200 while the process runs)
//	GET  /readyz       readiness: 503 once graceful shutdown began
//	GET  /metrics      process metrics plus the "cluster" block:
//	     per-shard scan/retry/hedge/ejection counters and latency
//	     histograms, and query/partial/failed totals.  JSON by
//	     default; Prometheus text exposition with Accept: text/plain
//	     or ?format=prometheus.
//	GET  /debug/traces[?id=<trace>&limit=N]
//	     recent trace summaries, or one stitched distributed trace by
//	     ID: the coordinator's own spans (parse, plan, exec with
//	     per-operator children, per-shard rpc.scan attempts with
//	     retry/hedge outcomes) merged with the span segments fetched
//	     from every shard's /debug/traces for that trace ID.
//
// # Tracing
//
// Every request starts a trace whose ID rides to the shards in the
// NS-Trace-Id/NS-Parent-Span headers (and back to the client in the
// response's NS-Trace-Id), and whose query ID is forwarded as
// NS-Query-Id so shard logs correlate with the coordinator's.
// Completed traces are kept tail-based: slow (-slow-query), errored
// and partial traces always, the rest sampled at -trace-sample.
// -trace-buffer bounds the ring; negative disables tracing.
//
// # Fault model
//
// Each query's triple patterns are scattered to every healthy shard
// over the /scan wire protocol (sorted N-Triples streams with an eof
// marker) and k-way-merged into a per-query subgraph that the
// ordinary single-node engine evaluates — exact on every fragment of
// the language, including OPT and NS (see internal/cluster).  Scans
// are retried with jittered exponential backoff, hedged after the
// shard's observed latency quantile, and bounded by both -scan-timeout
// per attempt and the query deadline overall.  A background prober
// ejects shards failing -eject-after consecutive /readyz probes and
// readmits them after -readmit-after successes.  When a shard stays
// unreachable, the query is answered from the rest and flagged
// partial, rather than failing outright.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return lvl, nil
}

func main() {
	var (
		shardsFlag = flag.String("shards", "", "comma-separated shard base URLs, index i serving partition i/N (required)")
		addr       = flag.String("addr", ":8080", "listen address")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second,
			"per-query deadline covering gather and evaluation; timeout= may lower it (0 = unlimited)")
		maxSteps = flag.Int64("max-steps", 0,
			"per-query engine step budget over the gathered subgraph (0 = unlimited)")
		maxRows = flag.Int64("max-rows", 0,
			"per-query result row budget (0 = unlimited)")
		scanTimeout = flag.Duration("scan-timeout", 10*time.Second,
			"per-attempt cap on one shard scan (the query deadline still applies on top)")
		retries = flag.Int("retries", 4,
			"total tries per shard scan, first attempt included")
		hedgeDelay = flag.Duration("hedge-delay", 50*time.Millisecond,
			"hedging delay until a shard has enough latency samples for its quantile")
		disableHedging = flag.Bool("disable-hedging", false,
			"turn hedged (duplicate) requests off; retries remain")
		probeInterval = flag.Duration("probe-interval", time.Second,
			"health-prober period (<= 0 disables the prober)")
		ejectAfter = flag.Int("eject-after", 3,
			"consecutive failed probes before a shard is ejected")
		readmitAfter = flag.Int("readmit-after", 2,
			"consecutive successful probes before an ejected shard is readmitted")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long to drain in-flight requests on SIGINT/SIGTERM")
		logLevel = flag.String("log-level", "info",
			"structured-log threshold: debug, info, warn or error")
		plannerName = flag.String("planner", "dp",
			"query planner for the gathered subgraph: dp or greedy")
		noReplan = flag.Bool("no-replan", false,
			"disable adaptive mid-query re-optimization (dp planner only)")
		slowQuery = flag.Duration("slow-query", 0,
			"log a structured slow-query line (and always keep the trace) for queries at least this slow (0 = off)")
		traceSample = flag.Float64("trace-sample", 0.1,
			"tail-sampling keep probability for unremarkable traces (slow/error/partial traces are always kept)")
		traceBuffer = flag.Int("trace-buffer", 256,
			"completed traces retained for /debug/traces (negative disables tracing)")
	)
	flag.Parse()
	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nscoord:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	var shards []string
	for _, s := range strings.Split(*shardsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "nscoord: -shards is required (comma-separated base URLs)")
		os.Exit(1)
	}
	coord, err := cluster.New(cluster.Options{
		Shards:         shards,
		Backoff:        cluster.BackoffPolicy{Base: 10 * time.Millisecond, Max: 500 * time.Millisecond, Multiplier: 2, Jitter: 0.2, MaxAttempts: *retries},
		ScanTimeout:    *scanTimeout,
		HedgeDelay:     *hedgeDelay,
		DisableHedging: *disableHedging,
		ProbeInterval:  *probeInterval,
		EjectAfter:     *ejectAfter,
		ReadmitAfter:   *readmitAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nscoord:", err)
		os.Exit(1)
	}
	coord.Start()

	cfg := coordConfig{
		queryTimeout: *queryTimeout,
		maxSteps:     *maxSteps,
		maxRows:      *maxRows,
		logger:       logger,
		slowQuery:    *slowQuery,
		traceSample:  *traceSample,
		traceBuffer:  *traceBuffer,
	}
	switch *plannerName {
	case "dp":
	case "greedy":
		cfg.planner.Greedy = true
	default:
		fmt.Fprintf(os.Stderr, "nscoord: bad -planner %q (want dp or greedy)\n", *plannerName)
		os.Exit(1)
	}
	cfg.planner.NoReplan = *noReplan
	s := newCoordServer(coord, cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      *queryTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("nscoord listening", "addr", *addr, "shards", len(shards),
		"query_timeout", *queryTimeout, "retries", *retries, "hedging", !*disableHedging)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	err = run(srv, stop, *drainTimeout, s.BeginDrain)
	// Close after the drain: no in-flight request holds the coordinator
	// once Shutdown returns, so Close's leak-proof wait terminates.
	coord.Close()
	if err != nil {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// run serves until the listener fails or a stop signal arrives, then
// flips readiness via onStop and drains in-flight requests.
func run(srv *http.Server, stop <-chan os.Signal, drain time.Duration, onStop func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-stop:
		if onStop != nil {
			onStop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
