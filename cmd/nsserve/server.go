package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rdf/durable"
	"repro/internal/sparql"
)

// config is the server's resource-governance and observability knobs;
// see defaultConfig for the values used when a knob is zero.
type config struct {
	queryTimeout   time.Duration // per-query deadline; also caps timeout= (0 = none)
	maxConcurrent  int           // concurrent /query limit; overflow gets 503 (0 = unlimited)
	maxInsertBytes int64         // /insert body cap in bytes; overflow gets 413 (0 = unlimited)
	maxSteps       int64         // per-query engine step budget (0 = unlimited)
	maxRows        int64         // per-query result row budget (0 = unlimited)
	parallel       int           // workers per query (0 = GOMAXPROCS, 1 = serial)
	planCache      int           // parse/plan cache capacity in entries (0 = disabled)
	pprof          bool          // expose /debug/pprof (opt-in: it leaks host internals)
	logger         *slog.Logger  // structured logger; nil = slog.Default()

	// slowQuery, when > 0, logs a structured "slow query" line (query
	// text, trace ID, plan Explain JSON, hottest operators) for every
	// /query slower than it; it is also the tracer's always-keep
	// threshold.  traceSample is the tail sampler's keep probability
	// for unremarkable traces; traceBuffer is the completed-trace ring
	// capacity (0 = default 256, < 0 disables tracing entirely).
	slowQuery   time.Duration
	traceSample float64
	traceBuffer int

	// shardIndex / shardCount put the server in cluster mode: it owns
	// hash-by-subject partition shardIndex of shardCount and rejects
	// inserts outside it.  shardCount 0 or 1 is single-node mode.
	shardIndex int
	shardCount int

	// Engine tuning passed through to plan.Options; zero keeps the
	// planner defaults.  Tests set these to force parallel code paths
	// on small graphs.
	minParallelEstimate float64
	minPartition        int

	// planner selects the planning algorithm (-planner, -no-replan);
	// the zero value is the cost-based DP planner with adaptive
	// re-optimization.  Part of every plan-cache key via CacheTag.
	planner plan.PlannerOptions
}

func defaultConfig() config {
	return config{
		queryTimeout:   30 * time.Second,
		maxConcurrent:  64,
		maxInsertBytes: 16 << 20,
		planCache:      256,
		traceSample:    0.1,
		logger:         slog.Default(),
	}
}

// server wraps a graph with a lock: queries take the read side,
// inserts the write side.  The query governor guarantees the read side
// is released within a bounded delay of a deadline or cancellation, so
// a hostile query cannot starve inserts or /stats.
type server struct {
	mu    sync.RWMutex
	graph rdf.Store
	cfg   config
	sem   chan struct{} // nil: unlimited concurrency
	plans *planCache    // nil: caching disabled

	// durable is non-nil when the store is the WAL+snapshot backend;
	// backend names the active storage backend for /healthz.  Durable
	// stats are atomics, so /healthz and /metrics read them lock-free.
	durable *durable.Store
	backend string

	metrics    *obs.Metrics
	tracer     *obs.Tracer                    // nil: tracing disabled (traceBuffer < 0)
	triples    atomic.Int64                   // lock-free mirror of graph.Len() for /healthz
	storeStats atomic.Pointer[obs.StoreStats] // lock-free mirror of graph.Stats() for /metrics
	qid        atomic.Uint64                  // per-request query-ID generator

	// draining flips when graceful shutdown begins: /readyz goes 503 so
	// load balancers and the cluster health prober stop routing here,
	// while /healthz (liveness) stays 200 — the process is healthy, just
	// leaving.  In-flight requests still complete.
	draining atomic.Bool

	handler http.Handler // the middleware-wrapped mux
}

// ServeHTTP serves the wrapped mux, so a *server is mountable
// anywhere an http.Handler is.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// BeginDrain marks the server not-ready; main calls it when a stop
// signal arrives, before draining in-flight requests.
func (s *server) BeginDrain() { s.draining.Store(true) }

// newServer returns the server for a graph with the default
// governance configuration.
func newServer(g rdf.Store) *server {
	return newServerWith(g, defaultConfig())
}

// newServerWith returns the server for a graph under the given
// configuration.
func newServerWith(g rdf.Store, cfg config) *server {
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	s := &server{graph: g, cfg: cfg, metrics: obs.NewMetrics(), plans: newPlanCache(cfg.planCache)}
	if cfg.traceBuffer >= 0 {
		s.tracer = obs.NewTracer(obs.TracerOptions{
			Capacity:      cfg.traceBuffer,
			SampleRate:    cfg.traceSample,
			SlowThreshold: cfg.slowQuery,
		})
	}
	s.backend = "memstore"
	if d, ok := g.(*durable.Store); ok {
		s.durable = d
		s.backend = "durable"
	}
	s.triples.Store(int64(g.Len()))
	s.refreshStoreStats()
	if cfg.maxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.maxConcurrent)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", s.limitConcurrency(s.handleQuery)))
	mux.HandleFunc("/insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// The scan endpoint serves the cluster wire protocol (one triple
	// pattern's sorted matches) under the same read lock as /query.
	scan := cluster.ScanHandler(func() (rdf.Store, func()) {
		s.mu.RLock()
		return s.graph, s.mu.RUnlock
	})
	mux.HandleFunc("/scan", s.instrument("scan", scan.ServeHTTP))
	// Completed-trace ring: list + fetch-by-ID.  Unlike pprof this
	// exposes only query shapes and timings, so it is on by default;
	// -trace-buffer -1 turns it (and all tracing) off.
	mux.Handle("/debug/traces", obs.TracesHandler(s.tracer, nil))
	if cfg.pprof {
		// Opt-in only: the profiles expose memory contents and host
		// details no public endpoint should leak.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = recoverPanics(cfg.logger, s.metrics, mux)
	return s
}

// loggerKey carries the per-request logger through the context;
// qidKey carries the generated request ID.
type loggerKey struct{}
type qidKey struct{}

// reqLogger returns the request's logger (qid-scoped when the request
// went through instrument), or the server logger.
func (s *server) reqLogger(r *http.Request) *slog.Logger {
	if l, ok := r.Context().Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	return s.cfg.logger
}

// reqQID returns the request's generated ID ("" outside instrument).
func reqQID(r *http.Request) string {
	qid, _ := r.Context().Value(qidKey{}).(string)
	return qid
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint with the observability envelope: a
// request ID (adopted from an NS-Query-Id header when the coordinator
// forwarded one, generated otherwise), a per-request structured logger
// in the context, the in-flight gauge, the request counter by status
// code, the endpoint's latency histogram, and the request's root trace
// span.  A trace context arriving in NS-Trace-Id/NS-Parent-Span joins
// this request to the caller's trace (and exempts it from sampling, so
// the coordinator can stitch it later); otherwise a fresh trace
// starts.  The trace ID is echoed on the response so clients can fetch
// /debug/traces?id=<it>.  One log line per request, queryable by qid.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qid := r.Header.Get(obs.HeaderQueryID)
		if qid == "" {
			qid = fmt.Sprintf("q%06d", s.qid.Add(1))
		}
		logger := s.cfg.logger.With("qid", qid, "endpoint", endpoint)
		ctx := context.WithValue(r.Context(), loggerKey{}, logger)
		ctx = context.WithValue(ctx, qidKey{}, qid)
		var span *obs.Span
		if tid := r.Header.Get(obs.HeaderTraceID); tid != "" {
			span = s.tracer.StartRemoteTrace(tid, r.Header.Get(obs.HeaderParentSpan), endpoint, "")
		} else {
			span = s.tracer.StartTrace(endpoint, "")
		}
		span.SetAttr("qid", qid)
		ctx = obs.ContextWithSpan(ctx, span)
		r = r.WithContext(ctx)
		if tid := span.TraceID(); tid != "" {
			w.Header().Set(obs.HeaderTraceID, tid)
		}
		s.metrics.IncInFlight()
		defer s.metrics.DecInFlight()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, r)
		d := time.Since(start)
		s.metrics.ObserveRequest(endpoint, sr.status, d)
		span.SetAttr("status", sr.status)
		if sr.status >= 500 {
			span.MarkError()
		}
		span.End()
		logger.Info("request", "method", r.Method, "status", sr.status, "duration", d)
	}
}

// recoverPanics converts a panicking handler into a 500 response, a
// structured log line, and a metrics tick, keeping the process (and its
// listener) alive.  A panic below this middleware cannot leak the graph
// lock: handlers release it with defer, and deferred calls run during
// the panic unwind.
func recoverPanics(logger *slog.Logger, m *obs.Metrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				m.Panic()
				logger.Error("panic recovered", "path", r.URL.Path, "panic", rec,
					"stack", string(debug.Stack()))
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// limitConcurrency admits at most cfg.maxConcurrent requests into h;
// the rest are refused immediately with 503 so overload degrades into
// fast failures instead of a growing queue of stuck connections.
func (s *server) limitConcurrency(h http.HandlerFunc) http.HandlerFunc {
	if s.sem == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h(w, r)
		default:
			writeJSONError(w, http.StatusServiceUnavailable, "server busy: concurrent query limit reached")
		}
	}
}

// jsonTerm is a term in the SPARQL 1.1 JSON results format.
type jsonTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

// jsonResults is the SPARQL 1.1 JSON results document, extended with an
// optional execution profile (profile=1).
type jsonResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
	Profile *obs.Profile  `json:"profile,omitempty"`
	Plan    *plan.Explain `json:"plan,omitempty"`
}

// jsonError is the error document for governed failures.  Partial is
// always false: the engine discards partial answers rather than
// serving a silently incomplete result.
type jsonError struct {
	Error   string `json:"error"`
	Partial bool   `json:"partial"`
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best effort: an encode failure here means the peer already hung up.
	_ = json.NewEncoder(w).Encode(jsonError{Error: msg})
}

// writeEngineError maps the engine's typed governor errors onto HTTP
// statuses: deadline → 504, resource budget → 503, malformed plan →
// 400, client cancellation → nothing (the peer is gone).  Deadline and
// budget failures count as governor trips — exactly once per failed
// query, since a query reaches here at most once.
func (s *server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	logger := s.reqLogger(r)
	var budget sparql.ErrBudgetExceeded
	var unsupported sparql.ErrUnsupportedPattern
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.GovernorTrip()
		logger.Warn("governor trip", "kind", "deadline", "err", err)
		writeJSONError(w, http.StatusGatewayTimeout, "query timeout: "+err.Error())
	case errors.Is(err, context.Canceled):
		logger.Info("query canceled by client", "err", err)
	case errors.As(err, &budget):
		s.metrics.GovernorTrip()
		logger.Warn("governor trip", "kind", budget.Kind.String(), "limit", budget.Limit, "err", err)
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &unsupported):
		logger.Warn("unsupported pattern", "err", err)
		writeJSONError(w, http.StatusBadRequest, err.Error())
	default:
		logger.Error("query error", "err", err)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// queryDeadline resolves the effective deadline of a request: the
// server's -query-timeout, lowered (never raised) by an explicit
// timeout= parameter, which accepts a Go duration ("500ms") or a bare
// millisecond count ("500").
func (s *server) queryDeadline(r *http.Request) (time.Duration, error) {
	d := s.cfg.queryTimeout
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return d, nil
	}
	td, err := time.ParseDuration(raw)
	if err != nil {
		ms, err2 := strconv.ParseInt(raw, 10, 64)
		if err2 != nil {
			return 0, fmt.Errorf("bad timeout parameter %q (want a duration like 500ms, or milliseconds)", raw)
		}
		td = time.Duration(ms) * time.Millisecond
	}
	if td <= 0 {
		return 0, fmt.Errorf("bad timeout parameter %q (must be positive)", raw)
	}
	if d == 0 || td < d {
		d = td
	}
	return d, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	qText := r.URL.Query().Get("q")
	if qText == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	syntax := r.URL.Query().Get("syntax")
	wantProfile := r.URL.Query().Get("profile") == "1"
	start := time.Now()
	span := obs.SpanFromContext(r.Context())

	// Parse and prepare under the read lock: preparation reads the
	// graph's index counts, and the cache key's epoch must describe the
	// same contents the query will run against.
	s.mu.RLock()
	defer s.mu.RUnlock()
	psp := span.StartChild("plan", "")
	cp, hit, errMsg := s.lookupPlan(syntax, qText)
	if errMsg != "" {
		psp.SetAttr("cache", "miss")
		psp.SetStatus("error")
		psp.End()
		http.Error(w, errMsg, http.StatusBadRequest)
		return
	}
	if hit {
		psp.SetAttr("cache", "hit")
	} else {
		psp.SetAttr("cache", "miss")
	}
	if ex := cp.compiled.Prepared.Explain(); ex != nil {
		psp.SetAttr("planner", ex.Planner)
		psp.SetAttr("probes", ex.Probes)
		psp.SetAttr("estimate", ex.Estimate)
	}
	psp.End()

	deadline, err := s.queryDeadline(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	bud := sparql.NewBudget(ctx)
	if s.cfg.maxSteps > 0 {
		bud.WithMaxSteps(s.cfg.maxSteps)
	}
	if s.cfg.maxRows > 0 {
		bud.WithMaxRows(s.cfg.maxRows)
	}
	// Every query is profiled: the per-operator counters cost one
	// atomic add per operator (not per row), and the pool-saturation
	// metric needs the pool counters even when the client did not ask
	// for the profile block.
	prof := obs.NewNode("query", reqQID(r))
	defer func() {
		snap := prof.Snapshot()
		if snap.Sum(func(n *obs.Profile) int64 { return n.PoolInline }) > 0 {
			s.metrics.PoolSaturation()
		}
		s.metrics.AddPlannerReplans(snap.Sum(func(n *obs.Profile) int64 { return n.Replans }))
		if d := s.cfg.slowQuery; d > 0 {
			if elapsed := time.Since(start); elapsed >= d {
				s.logSlowQuery(r, qText, cp, snap, elapsed)
			}
		}
	}()
	esp := span.StartChild("exec", "")
	opts := plan.Options{
		Parallel:            s.cfg.parallel,
		MinParallelEstimate: s.cfg.minParallelEstimate,
		MinPartition:        s.cfg.minPartition,
		Prof:                prof,
		Trace:               esp,
	}

	res, err := exec.EvalCompiled(s.graph, cp.compiled, bud, opts)
	if err != nil {
		esp.SetStatus("error")
		esp.SetAttr("error", err.Error())
	}
	// Bridge the profile tree into the trace as per-operator child
	// spans, whatever the outcome — a failed query's partial profile is
	// exactly what the trace is for.
	esp.End()
	esp.AttachProfile(prof.Snapshot())
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	switch {
	case res.Bool != nil:
		doc := map[string]any{"boolean": *res.Bool}
		if wantProfile {
			doc["profile"] = prof.Snapshot()
			doc["plan"] = cp.compiled.Prepared.Explain()
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		s.encode(w, r, doc)
	case res.Graph != nil:
		// CONSTRUCT output is N-Triples text; there is no JSON envelope
		// to carry a profile block.  Use nsq -stats for profiled
		// CONSTRUCT runs.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rdf.WriteGraph(w, res.Graph)
	default:
		doc := rowsToJSON(res.Rows)
		if wantProfile {
			doc.Profile = prof.Snapshot()
			doc.Plan = cp.compiled.Prepared.Explain()
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		s.encode(w, r, doc)
	}
}

// rowsToJSON renders a mapping set as the SPARQL 1.1 JSON results
// document (shared by the single-node and cluster query paths).
func rowsToJSON(res *sparql.MappingSet) jsonResults {
	doc := jsonResults{}
	seen := make(map[sparql.Var]bool)
	for _, mu := range res.Mappings() {
		for v := range mu {
			if !seen[v] {
				seen[v] = true
				doc.Head.Vars = append(doc.Head.Vars, string(v))
			}
		}
	}
	// Deterministic head: the schema assigns slots in sorted
	// variable order, so sorting here matches it and is stable
	// across runs (map iteration order is not).
	sort.Strings(doc.Head.Vars)
	doc.Results.Bindings = make([]map[string]jsonTerm, 0, res.Len())
	for _, mu := range res.Sorted() {
		b := make(map[string]jsonTerm, len(mu))
		for v, iri := range mu {
			b[string(v)] = jsonTerm{Type: "uri", Value: string(iri)}
		}
		doc.Results.Bindings = append(doc.Results.Bindings, b)
	}
	return doc
}

// lookupPlan resolves a query to an executable plan through the plan
// cache: a hit skips both the parse and the optimizer, a miss parses,
// prepares against the current graph and caches the result.  Called
// with the read lock held (the prepare pass reads index counts and the
// epoch in the key must match the contents).  Parse failures are
// returned as a message for a 400 and are never cached.
func (s *server) lookupPlan(syntax, qText string) (cp *cachedPlan, hit bool, errMsg string) {
	var key string
	if s.plans != nil {
		key = planKey(syntax, qText, s.graph.Epoch(), s.cfg.planner.CacheTag())
		if cp, ok := s.plans.get(key); ok {
			return cp, true, ""
		}
	}
	parsed, err := parser.ParseAny(syntax, qText)
	if err != nil {
		return nil, false, "parse error: " + err.Error()
	}
	cp = &cachedPlan{compiled: exec.Compile(s.graph, parsed.Pattern, parsed.Construct, parsed.Ask, s.cfg.planner)}
	if s.plans != nil {
		s.plans.put(key, cp)
	}
	return cp, false, ""
}

// logSlowQuery emits the structured slow-query line: the query text,
// the trace ID to fetch the full span tree with, the planner's Explain
// JSON, and the hottest operators of the profile — enough to diagnose
// most slow queries from the log alone, with /debug/traces as the
// drill-down.
func (s *server) logSlowQuery(r *http.Request, qText string, cp *cachedPlan, snap *obs.Profile, elapsed time.Duration) {
	args := []any{"query", qText, "duration", elapsed}
	if tid := obs.SpanFromContext(r.Context()).TraceID(); tid != "" {
		args = append(args, "trace_id", tid)
	}
	if ex := cp.compiled.Prepared.Explain(); ex != nil {
		if js, err := json.Marshal(ex); err == nil {
			args = append(args, "plan", string(js))
		}
	}
	args = append(args, "hot_spans", hottestSpans(snap, 3))
	s.reqLogger(r).Warn("slow query", args...)
}

// hottestSpans returns the k profile nodes with the most attributed
// wall time, rendered one per string.
func hottestSpans(p *obs.Profile, k int) []string {
	var nodes []*obs.Profile
	p.Walk(func(n *obs.Profile) { nodes = append(nodes, n) })
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].WallNS > nodes[j].WallNS })
	if len(nodes) > k {
		nodes = nodes[:k]
	}
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		label := n.Op
		if n.Detail != "" {
			label += " " + n.Detail
		}
		out = append(out, fmt.Sprintf("%s wall=%s rows_out=%d", label, time.Duration(n.WallNS), n.RowsOut))
	}
	return out
}

// refreshStoreStats updates the lock-free /metrics mirror of the
// graph's index statistics.  Called at construction and after each
// insert, while the caller still guarantees no concurrent writer.
func (s *server) refreshStoreStats() {
	st := s.graph.Stats()
	s.storeStats.Store(&obs.StoreStats{
		Triples:     int64(st.Triples),
		BaseTriples: int64(st.BaseTriples),
		OverlayAdds: int64(st.OverlayAdds),
		OverlayDels: int64(st.OverlayDels),
		Compactions: st.Compactions,
		Epoch:       st.Epoch,
	})
}

// encode writes v as JSON, logging (rather than silently dropping) an
// encode failure — typically a client that hung up mid-response.
func (s *server) encode(w http.ResponseWriter, r *http.Request, v any) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.reqLogger(r).Warn("response encode failed", "err", err)
	}
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body io.Reader = r.Body
	if s.cfg.maxInsertBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.maxInsertBytes)
	}
	// Drain the capped body before parsing: a cap hit mid-line must
	// surface as 413, not as a parse error on the truncated line.
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("insert body exceeds %d bytes", tooBig.Limit))
			return
		}
		http.Error(w, "read error: "+err.Error(), http.StatusBadRequest)
		return
	}
	delta, err := rdf.ReadGraph(bytes.NewReader(data))
	if err != nil {
		http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
		return
	}
	// In cluster mode the server owns one hash-by-subject partition.  A
	// triple outside it fails the whole request (before any mutation):
	// silently accepting it would break the partition-disjointness the
	// coordinator's scatter-gather relies on, and silently dropping it
	// would lie to the client about what was stored.
	if s.cfg.shardCount > 1 {
		var foreign *rdf.Triple
		delta.ForEach(func(t rdf.Triple) bool {
			if cluster.ShardOf(t.S, s.cfg.shardCount) != s.cfg.shardIndex {
				foreign = &t
				return false
			}
			return true
		})
		if foreign != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf(
				"triple with subject %s belongs to shard %d, this server is shard %d/%d",
				foreign.S, cluster.ShardOf(foreign.S, s.cfg.shardCount), s.cfg.shardIndex, s.cfg.shardCount))
			return
		}
	}
	// The whole insert is one durability batch: on the durable backend
	// it commits as a single atomic WAL record, so a crash never
	// persists half a request body.  The commit span measures the batch
	// under the write lock; on the durable backend its WAL/fsync work
	// is attributed by before/after stat deltas (the stats are atomics,
	// so reading them around the batch needs no storage-layer hooks),
	// with a child span when the batch rolled a snapshot.
	csp := obs.SpanFromContext(r.Context()).StartChild("commit", s.backend)
	var durableBefore obs.DurableStats
	if s.durable != nil {
		durableBefore = s.durable.DurableStats()
	}
	s.mu.Lock()
	before := s.graph.Len()
	s.graph.BeginBatch()
	s.graph.AddAll(delta)
	commitErr := s.graph.CommitBatch()
	after := s.graph.Len()
	s.refreshStoreStats()
	s.mu.Unlock()
	s.triples.Store(int64(after))
	added := after - before
	csp.SetAttr("added", added)
	if s.durable != nil {
		ds := s.durable.DurableStats()
		csp.SetAttr("wal_records", ds.WALRecords-durableBefore.WALRecords)
		csp.SetAttr("wal_bytes", ds.WALBytes-durableBefore.WALBytes)
		csp.SetAttr("wal_syncs", ds.WALSyncs-durableBefore.WALSyncs)
		csp.SetAttr("fsync_us", ds.FsyncLatency.SumUS-durableBefore.FsyncLatency.SumUS)
		if rolls := ds.Snapshots - durableBefore.Snapshots; rolls > 0 {
			ssp := csp.StartChild("durable.snapshot", "")
			ssp.SetAttr("rolls", rolls)
			ssp.SetAttr("generation", ds.Generation)
			ssp.End()
		}
	}
	if commitErr != nil {
		csp.SetStatus("error")
		csp.SetAttr("error", commitErr.Error())
	}
	csp.End()
	if commitErr != nil {
		// The triples are applied in memory but the log rejected them:
		// the insert is NOT durable.  Fail the request loudly so the
		// client knows a crash could lose it.
		s.reqLogger(r).Error("insert commit failed", "added", added, "err", commitErr)
		writeJSONError(w, http.StatusInternalServerError,
			"insert applied in memory but not durable: "+commitErr.Error())
		return
	}
	s.reqLogger(r).Debug("insert applied", "added", added, "triples", after)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"added": %d}`+"\n", added)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	triples := s.graph.Len()
	iris := len(s.graph.IRIs())
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"triples": %d, "iris": %d}`+"\n", triples, iris)
}

// handleMetrics serves the process metrics registry: expvar-style JSON
// by default (unchanged schema), or the Prometheus text exposition
// when the request asks for it (Accept: text/plain, or
// ?format=prometheus).  Both views render the same snapshot value, so
// they can never disagree.  Snapshot reads atomics only — no graph
// lock, so /metrics answers even while heavy queries hold the read
// side.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.Store = s.storeStats.Load()
	if s.durable != nil {
		ds := s.durable.DurableStats()
		snap.Durable = &ds
	}
	snap.PlanCache = s.plans.stats()
	if s.tracer != nil {
		ts := s.tracer.Stats()
		snap.Traces = &ts
	}
	if obs.WantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.encode(w, r, snap)
}

// buildVersion resolves the binary's module version from the build
// info ("(devel)" for local builds, a module version for released
// ones).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// handleHealthz is the liveness probe: it takes no locks — the triple
// count is a lock-free mirror maintained by handleInsert, and the
// durable backend's stats are atomics — so it answers even while
// heavy queries are in flight.  It names the active storage backend,
// and on the durable backend reports the age of the last snapshot in
// seconds (-1 before the first snapshot of the run), so probes can
// alert on a stuck snapshot loop.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	shard := ""
	if s.cfg.shardCount > 1 {
		shard = fmt.Sprintf(`, "shard": "%d/%d"`, s.cfg.shardIndex, s.cfg.shardCount)
	}
	if s.durable != nil {
		ds := s.durable.DurableStats()
		age := int64(-1)
		if ds.LastSnapshotUnix > 0 {
			age = time.Now().Unix() - ds.LastSnapshotUnix
		}
		fmt.Fprintf(w, `{"status": "ok", "version": %q, "go": %q, "triples": %d, "backend": %q%s, "wal_generation": %d, "last_snapshot_age_seconds": %d}`+"\n",
			buildVersion(), runtime.Version(), s.triples.Load(), s.backend, shard, ds.Generation, age)
		return
	}
	fmt.Fprintf(w, `{"status": "ok", "version": %q, "go": %q, "triples": %d, "backend": %q%s}`+"\n",
		buildVersion(), runtime.Version(), s.triples.Load(), s.backend, shard)
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: it answers 503 once a graceful drain has begun (the
// process is alive but should get no new traffic — load balancers and
// the cluster coordinator's health prober key off this), and 200
// otherwise.  Recovery ordering needs no explicit gate: the durable
// store's Open and the -graph seeding both complete before the
// listener exists.  Lock-free, like /healthz.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status": "draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status": "ready"}`)
}
