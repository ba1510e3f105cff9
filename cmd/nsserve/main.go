// Command nsserve exposes an NS-SPARQL endpoint over HTTP, serving
// query results in the W3C SPARQL 1.1 JSON results format.
//
// Usage:
//
//	nsserve -graph data.nt -addr :8080 [governor flags]
//
// Endpoints:
//
//	GET  /query?q=<query>[&syntax=paper|sparql][&timeout=<dur|ms>]
//	     SELECT/pattern → application/sparql-results+json
//	     ASK (sparql syntax) → {"boolean": true|false}
//	     CONSTRUCT → N-Triples (text/plain)
//	POST /insert       body: N-Triples lines; inserts into the graph
//	GET  /stats        {"triples": N, "iris": M}
//	GET  /scan?s=&p=&o=  one triple pattern's matches as sorted N-Triples
//	                   lines plus a "# eof <count>" marker — the cluster
//	                   scatter-gather wire protocol (internal/cluster)
//	GET  /healthz      {"status": "ok", "version": ..., "go": ..., "triples": N,
//	                   "backend": "memstore"|"durable"[, "shard": "i/N"]
//	                   [, "wal_generation": G,
//	                   "last_snapshot_age_seconds": A]} — liveness, lock-free
//	GET  /readyz       readiness: 200 {"status": "ready"} normally, 503
//	                   {"status": "draining"} once graceful shutdown began
//	GET  /metrics      process metrics as JSON: request counts by status,
//	                   per-endpoint latency histograms, in-flight gauge,
//	                   governor-trip / pool-saturation / panic counters,
//	                   triple-store index stats, plan-cache hit/miss
//	                   counters, trace/sampler counters and (durable
//	                   backend) WAL/snapshot/recovery counters with an
//	                   fsync-latency histogram.  With Accept: text/plain
//	                   or ?format=prometheus the same snapshot is served
//	                   in the Prometheus text exposition format.
//	GET  /debug/traces completed query traces from the tail-sampled ring
//	                   buffer: a summary list, or one trace's span tree
//	                   as JSON with ?id=<trace-id> (see NS-Trace-Id
//	                   response headers and nsq -trace)
//	GET  /debug/pprof  Go profiling endpoints (only with -pprof)
//
// The default query syntax is the W3C-style surface syntax; pass
// syntax=paper for the paper notation (with parenthesized triples and
// the NS(...) operator).
//
// # Observability
//
// Every query is evaluated under a per-operator profiler (wall time,
// rows in/out, dedup hits, NS candidates vs survivors, hash-join
// partitions, worker-pool tokens, budget consumption).  Pass profile=1
// on /query to receive the profile tree as a "profile" block in
// SELECT and ASK responses (CONSTRUCT output is N-Triples text and has
// no JSON envelope; use nsq -stats for profiled CONSTRUCT runs).
//
// Requests are logged as one structured line each (log/slog) carrying
// a generated query ID; -log-level sets the threshold and -pprof
// opt-in exposes /debug/pprof.
//
// Every request also runs under a distributed-tracing span.  A trace
// context arriving in NS-Trace-Id/NS-Parent-Span headers (set by the
// nscoord coordinator on /scan and /query fan-out) joins this server's
// spans to the caller's trace; the NS-Query-Id header likewise carries
// the coordinator's query ID into this server's log lines.  Completed
// traces land in a bounded in-memory ring with tail-based retention —
// slow, errored, partial and remote-adopted traces are always kept,
// the rest sampled at -trace-sample — and are served from
// /debug/traces.  -slow-query <dur> additionally logs a structured
// slow-query line (query text, trace ID, plan Explain JSON, hottest
// operators) for every query at least that slow.
//
// # Resource governance
//
// NS-SPARQL evaluation is intractable in the worst case (the paper's
// Theorems 7.1–7.4), so every query runs under a governor:
//
//   - -query-timeout is the per-query deadline.  A request may lower
//     (never raise) it with the timeout= parameter, given as a Go
//     duration ("500ms") or bare milliseconds ("500").  An expired
//     deadline returns 504 with {"error": ..., "partial": false}.
//   - -max-concurrent bounds in-flight /query requests; the excess is
//     refused immediately with 503.
//   - -max-steps / -max-rows bound a single query's search steps and
//     result rows; exceeding them returns 503.
//   - -max-insert-bytes caps the /insert body (413 beyond it).
//   - -parallel sets the per-query worker count of the parallel row
//     engine (0 = GOMAXPROCS, 1 = serial).  All workers of one query
//     share its governor, so the limits above bound the query as a
//     whole regardless of the worker count.  Adaptive-armed AND
//     chains run morsel-style on the pool (staged fan-out with drift
//     checkpoints and mid-query re-planning).
//   - -plan-cache bounds the LRU parse/plan cache (entries; 0
//     disables).  Entries are keyed by (query text, graph epoch) and
//     the epoch bumps on every insert, so a cached plan is never
//     served against contents it was not prepared for.
//
// Engine panics are converted to 500s without killing the process, and
// SIGINT/SIGTERM drains in-flight requests for up to -drain-timeout
// before exiting.
//
// # Durability
//
// By default the store is in-memory and dies with the process.  Pass
// -data-dir to switch to the durable WAL+snapshot backend
// (internal/rdf/durable): every insert commits as one atomic WAL
// record, -fsync picks the sync policy (always, batch or off), and
// -snapshot-every bounds WAL replay time by rolling a full snapshot
// after that many mutations.  On boot the store recovers from the
// newest valid snapshot plus the WAL tail, truncating any record torn
// by a crash; pair -data-dir with -graph to idempotently seed the
// store from a triples file.
//
// # Cluster mode
//
// Pass -shard i/N to make this server one shard of an N-way cluster:
// it owns the hash-by-subject partition i and rejects inserts of
// triples outside it (400), so a fleet of N nsserve processes behind
// an nscoord coordinator holds each triple exactly once.  The
// coordinator routes inserts, scatter-gathers queries over /scan and
// probes /readyz for shard health; see cmd/nscoord.
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
	"syscall"
	"time"

	"repro/internal/rdf"
	"repro/internal/rdf/durable"
)

// parseLogLevel maps the -log-level flag onto a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return lvl, nil
}

func main() {
	var (
		graphPath = flag.String("graph", "", "path to the initial graph (default: empty graph)")
		addr      = flag.String("addr", ":8080", "listen address")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second,
			"per-query deadline; also the upper bound for the timeout= parameter (0 = unlimited)")
		maxConcurrent = flag.Int("max-concurrent", 64,
			"maximum concurrent /query requests; the excess gets 503 (0 = unlimited)")
		maxInsertBytes = flag.Int64("max-insert-bytes", 16<<20,
			"maximum /insert body size in bytes; larger bodies get 413 (0 = unlimited)")
		maxSteps = flag.Int64("max-steps", 0,
			"per-query engine step budget; exceeding it gets 503 (0 = unlimited)")
		maxRows = flag.Int64("max-rows", 0,
			"per-query result row budget; exceeding it gets 503 (0 = unlimited)")
		parallel = flag.Int("parallel", 0,
			"workers per query for the parallel row engine (0 = GOMAXPROCS, 1 = serial)")
		planCacheSize = flag.Int("plan-cache", 256,
			"parse/plan cache capacity in entries, keyed by (query, graph epoch); 0 disables")
		dataDir = flag.String("data-dir", "",
			"directory for the durable WAL+snapshot backend; empty keeps the in-memory store")
		fsyncPolicy = flag.String("fsync", "batch",
			"durable WAL sync policy: always (sync per record), batch (bounded-loss, amortized) or off")
		snapshotEvery = flag.Int("snapshot-every", 10000,
			"durable backend: snapshot + WAL rotation after this many mutations (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long to drain in-flight requests on SIGINT/SIGTERM")
		logLevel = flag.String("log-level", "info",
			"structured-log threshold: debug, info, warn or error")
		pprofFlag = flag.Bool("pprof", false,
			"expose Go profiling under /debug/pprof (off by default: it leaks process internals)")
		shardSpec = flag.String("shard", "",
			`cluster mode: serve hash-by-subject partition i of N, given as "i/N" (e.g. "0/4")`)
		plannerName = flag.String("planner", "dp",
			"query planner: dp (cost-based DP join ordering) or greedy (v1 heuristic baseline)")
		noReplan = flag.Bool("no-replan", false,
			"disable adaptive mid-query re-optimization (dp planner only)")
		slowQuery = flag.Duration("slow-query", 0,
			"log a structured slow-query line (query, trace ID, plan, hottest operators) for /query requests at least this slow (0 = off)")
		traceSample = flag.Float64("trace-sample", 0.1,
			"tail-sampling keep probability for unremarkable traces (slow/error/partial/remote traces are always kept)")
		traceBuffer = flag.Int("trace-buffer", 256,
			"completed-trace ring buffer capacity for /debug/traces (negative disables tracing)")
	)
	flag.Parse()
	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsserve:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	var store rdf.Store = rdf.NewStore()
	backend := "memstore"
	if *dataDir != "" {
		pol, err := durable.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
		ds, err := durable.Open(*dataDir, durable.Options{Fsync: pol, SnapshotEvery: *snapshotEvery})
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
		rs := ds.DurableStats()
		logger.Info("durable store recovered", "dir", *dataDir, "generation", rs.Generation,
			"snapshot_triples", rs.RecoveredSnapshotTriples, "wal_records", rs.RecoveredWALRecords,
			"truncated_bytes", rs.RecoveredTruncatedBytes, "fsync", pol.String())
		store = ds
		backend = "durable"
	}
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
		g, err := rdf.ReadGraph(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
		// AddAll skips triples already present, so re-seeding a durable
		// store from the same -graph file on every boot is idempotent:
		// duplicates produce no WAL records.
		store.BeginBatch()
		store.AddAll(g)
		if err := store.CommitBatch(); err != nil {
			fmt.Fprintln(os.Stderr, "nsserve: seeding graph:", err)
			os.Exit(1)
		}
	}
	cfg := defaultConfig()
	cfg.queryTimeout = *queryTimeout
	cfg.maxConcurrent = *maxConcurrent
	cfg.maxInsertBytes = *maxInsertBytes
	cfg.maxSteps = *maxSteps
	cfg.maxRows = *maxRows
	cfg.parallel = *parallel
	cfg.planCache = *planCacheSize
	cfg.pprof = *pprofFlag
	cfg.logger = logger
	cfg.slowQuery = *slowQuery
	cfg.traceSample = *traceSample
	cfg.traceBuffer = *traceBuffer
	switch *plannerName {
	case "dp":
	case "greedy":
		cfg.planner.Greedy = true
	default:
		fmt.Fprintf(os.Stderr, "nsserve: bad -planner %q (want dp or greedy)\n", *plannerName)
		os.Exit(1)
	}
	cfg.planner.NoReplan = *noReplan
	if *shardSpec != "" {
		idx, n, err := parseShardSpec(*shardSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
		cfg.shardIndex, cfg.shardCount = idx, n
	}

	s := newServerWith(store, cfg)
	srv := newHTTPServer(*addr, s, cfg)
	logger.Info("nsserve listening", "addr", *addr, "triples", store.Len(),
		"backend", backend, "shard", *shardSpec, "query_timeout", *queryTimeout,
		"max_concurrent", *maxConcurrent, "pprof", *pprofFlag)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	err = run(srv, stop, *drainTimeout, s.BeginDrain)
	// Close after the drain: no in-flight request can touch the store
	// once Shutdown returns, and Close flushes the final WAL records.
	if cerr := store.Close(); cerr != nil {
		logger.Error("store close failed", "err", cerr)
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// newHTTPServer configures the http.Server around the handler: header
// and body read timeouts bound slow clients, the write timeout leaves
// room for the query deadline plus serialization, and idle keep-alive
// connections are reaped.
func newHTTPServer(addr string, h http.Handler, cfg config) *http.Server {
	writeTimeout := 2 * time.Minute
	if cfg.queryTimeout > 0 && cfg.queryTimeout+30*time.Second > writeTimeout {
		writeTimeout = cfg.queryTimeout + 30*time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

// parseShardSpec parses the -shard "i/N" flag.
func parseShardSpec(spec string) (index, count int, err error) {
	if _, serr := fmt.Sscanf(spec, "%d/%d", &index, &count); serr != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want \"i/N\", e.g. \"0/4\")", spec)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q (need 0 <= i < N)", spec)
	}
	return index, count, nil
}

// run serves until the listener fails or a stop signal arrives, then
// shuts down gracefully: onStop flips readiness (so probers stop
// routing here), the listener closes immediately (new connections are
// refused) and in-flight requests get up to drain to finish.
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
