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
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// coordConfig is the coordinator server's governance knobs.
type coordConfig struct {
	queryTimeout time.Duration
	maxSteps     int64
	maxRows      int64
	logger       *slog.Logger

	// planner configures the per-query planner run over the gathered
	// subgraph (-planner, -no-replan); the coordinator compiles each
	// query fresh, so no cache key is involved.
	planner plan.PlannerOptions

	// Tracing knobs, mirroring nsserve: slowQuery logs a structured
	// slow-query line and marks traces always-keep; traceSample is the
	// tail sampler's keep probability; traceBuffer sizes the completed
	// ring (0 = default 256, < 0 disables tracing).
	slowQuery   time.Duration
	traceSample float64
	traceBuffer int
}

// coordServer is the HTTP face of the cluster coordinator: it parses
// queries, gathers the relevant subgraph from the shards and runs the
// ordinary single-node engine over it.
type coordServer struct {
	coord   *cluster.Coordinator
	cfg     coordConfig
	metrics *obs.Metrics
	tracer  *obs.Tracer // nil: tracing disabled (traceBuffer < 0)
	qid     atomic.Uint64

	draining atomic.Bool
	handler  http.Handler
}

func newCoordServer(coord *cluster.Coordinator, cfg coordConfig) *coordServer {
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	s := &coordServer{coord: coord, cfg: cfg, metrics: obs.NewMetrics()}
	if cfg.traceBuffer >= 0 {
		s.tracer = obs.NewTracer(obs.TracerOptions{
			Capacity:      cfg.traceBuffer,
			SampleRate:    cfg.traceSample,
			SlowThreshold: cfg.slowQuery,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("/insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Fetch-by-ID stitches the shard-side segments (pulled from each
	// shard's /debug/traces by trace ID) into the coordinator's own
	// snapshot, so one URL shows the whole distributed tree.
	mux.Handle("/debug/traces", obs.TracesHandler(s.tracer, func(r *http.Request, id string) []obs.TraceSnapshot {
		return s.coord.FetchShardTraces(r.Context(), id)
	}))
	s.handler = mux
	return s
}

func (s *coordServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// BeginDrain flips /readyz to 503; main calls it on a stop signal.
func (s *coordServer) BeginDrain() { s.draining.Store(true) }

// instrument gives each request a query ID, a scoped logger, the
// request/latency metrics, and the root span of its distributed trace
// — the same envelope nsserve uses.  The query ID and span ride the
// request context: the cluster client forwards both to the shards
// (NS-Query-Id, NS-Trace-Id/NS-Parent-Span), so shard logs and traces
// correlate with this coordinator's.  The trace ID is echoed on the
// response for clients.
func (s *coordServer) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qid := fmt.Sprintf("q%06d", s.qid.Add(1))
		var span *obs.Span
		if tid := r.Header.Get(obs.HeaderTraceID); tid != "" {
			span = s.tracer.StartRemoteTrace(tid, r.Header.Get(obs.HeaderParentSpan), endpoint, "")
		} else {
			span = s.tracer.StartTrace(endpoint, "")
		}
		span.SetAttr("qid", qid)
		ctx := obs.ContextWithQueryID(r.Context(), qid)
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
		s.cfg.logger.Info("request", "qid", qid, "endpoint", endpoint,
			"method", r.Method, "status", sr.status, "duration", d)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// queryDeadline mirrors nsserve's: -query-timeout, lowered (never
// raised) by an explicit timeout= parameter.
func (s *coordServer) queryDeadline(r *http.Request) (time.Duration, error) {
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

// jsonTerm / queryDoc is the SPARQL 1.1 JSON results document extended
// with the cluster degradation block: "partial" is always present, and
// "shards" appears when at least one shard failed this query.
type jsonTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

type queryDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
	Partial bool                  `json:"partial"`
	Shards  []cluster.ShardStatus `json:"shards,omitempty"`
}

func writeJSONError(w http.ResponseWriter, status int, msg string, shards []cluster.ShardStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": msg, "partial": false, "shards": shards,
	})
}

// failedShards filters the status block down to the failing entries;
// nil when every shard answered.
func failedShards(statuses []cluster.ShardStatus) []cluster.ShardStatus {
	var out []cluster.ShardStatus
	for _, st := range statuses {
		if st.Error != "" {
			out = append(out, st)
		}
	}
	return out
}

func (s *coordServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	span := obs.SpanFromContext(r.Context())
	qText := r.URL.Query().Get("q")
	if qText == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	prsp := span.StartChild("parse", "")
	parsed, err := parser.ParseAny(r.URL.Query().Get("syntax"), qText)
	if err != nil {
		prsp.SetStatus("error")
		prsp.SetAttr("error", err.Error())
		prsp.End()
		http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
		return
	}
	prsp.End()
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

	// Scatter-gather: pull every triple pattern's matches from the
	// shards into a per-query local store (exact for every operator —
	// see internal/cluster), then run the single-node engine on it
	// under the remaining budget.
	patterns := sparql.TriplePatterns(parsed.Pattern)
	g, statuses, partial := s.coord.Gather(ctx, patterns)
	failed := failedShards(statuses)
	if len(failed) == len(statuses) && len(patterns) > 0 {
		// Nothing answered: there is no subset of the data to degrade
		// to, so this is an error, not a partial result.
		s.coord.NoteResult("failed")
		s.cfg.logger.Warn("all shards failed", "shards", len(statuses))
		writeJSONError(w, http.StatusBadGateway, "no shard reachable", failed)
		return
	}
	if partial {
		s.cfg.logger.Warn("partial gather", "failed_shards", len(failed))
	}

	bud := sparql.NewBudget(ctx)
	if s.cfg.maxSteps > 0 {
		bud.WithMaxSteps(s.cfg.maxSteps)
	}
	if s.cfg.maxRows > 0 {
		bud.WithMaxRows(s.cfg.maxRows)
	}
	// The coordinator compiles fresh against the gathered subgraph
	// (whose statistics drive join ordering), so the plan span carries
	// the planner's Explain for this query's actual data.
	psp := span.StartChild("plan", "")
	compiled := exec.Compile(g, parsed.Pattern, parsed.Construct, parsed.Ask, s.cfg.planner)
	if ex := compiled.Prepared.Explain(); ex != nil {
		psp.SetAttr("planner", ex.Planner)
		psp.SetAttr("probes", ex.Probes)
		psp.SetAttr("estimate", ex.Estimate)
	}
	psp.End()

	// Every query is profiled, like nsserve: the counters feed the
	// replan metric, the per-operator trace spans, and the slow-query
	// log's hot-span list.
	prof := obs.NewNode("query", obs.QueryIDFromContext(ctx))
	defer func() {
		snap := prof.Snapshot()
		s.metrics.AddPlannerReplans(snap.Sum(func(n *obs.Profile) int64 { return n.Replans }))
		if d := s.cfg.slowQuery; d > 0 {
			if elapsed := time.Since(start); elapsed >= d {
				s.logSlowQuery(r, qText, compiled, snap, elapsed)
			}
		}
	}()
	esp := span.StartChild("exec", "")
	res, err := exec.EvalCompiled(g, compiled, bud, plan.Options{Prof: prof, Trace: esp})
	if err != nil {
		esp.SetStatus("error")
		esp.SetAttr("error", err.Error())
	}
	esp.End()
	esp.AttachProfile(prof.Snapshot())
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	switch {
	case res.Bool != nil:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		doc := map[string]any{"boolean": *res.Bool, "partial": partial}
		if partial {
			doc["shards"] = failed
		}
		_ = json.NewEncoder(w).Encode(doc)
	case res.Graph != nil:
		// CONSTRUCT has no JSON envelope; the degradation flag rides in
		// a header instead.
		if partial {
			w.Header().Set("X-Partial", "true")
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rdf.WriteGraph(w, res.Graph)
	default:
		doc := rowsToDoc(res.Rows)
		doc.Partial = partial
		if partial {
			doc.Shards = failed
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		_ = json.NewEncoder(w).Encode(doc)
	}
}

// rowsToDoc renders a mapping set in the SPARQL 1.1 JSON layout with a
// deterministic head and sorted bindings.
func rowsToDoc(res *sparql.MappingSet) queryDoc {
	doc := queryDoc{}
	seen := make(map[sparql.Var]bool)
	for _, mu := range res.Mappings() {
		for v := range mu {
			if !seen[v] {
				seen[v] = true
				doc.Head.Vars = append(doc.Head.Vars, string(v))
			}
		}
	}
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

// logSlowQuery mirrors nsserve's structured slow-query line: query
// text, trace ID (fetch the stitched distributed tree from
// /debug/traces), the planner's Explain JSON, and the hottest
// operators of the profile.
func (s *coordServer) logSlowQuery(r *http.Request, qText string, compiled exec.Compiled, snap *obs.Profile, elapsed time.Duration) {
	args := []any{"query", qText, "duration", elapsed}
	if tid := obs.SpanFromContext(r.Context()).TraceID(); tid != "" {
		args = append(args, "trace_id", tid)
	}
	if ex := compiled.Prepared.Explain(); ex != nil {
		if js, err := json.Marshal(ex); err == nil {
			args = append(args, "plan", string(js))
		}
	}
	args = append(args, "hot_spans", hottestSpans(snap, 3))
	s.cfg.logger.Warn("slow query", args...)
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

// writeEngineError maps engine failures on the gathered store the same
// way nsserve does: deadline → 504, budget → 503, bad plan → 400.
func (s *coordServer) writeEngineError(w http.ResponseWriter, err error) {
	var budget sparql.ErrBudgetExceeded
	var unsupported sparql.ErrUnsupportedPattern
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.GovernorTrip()
		writeJSONError(w, http.StatusGatewayTimeout, "query timeout: "+err.Error(), nil)
	case errors.Is(err, context.Canceled):
		// client gone
	case errors.As(err, &budget):
		s.metrics.GovernorTrip()
		writeJSONError(w, http.StatusServiceUnavailable, err.Error(), nil)
	case errors.As(err, &unsupported):
		writeJSONError(w, http.StatusBadRequest, err.Error(), nil)
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error(), nil)
	}
}

func (s *coordServer) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read error: "+err.Error(), http.StatusBadRequest)
		return
	}
	delta, err := rdf.ReadGraph(bytes.NewReader(data))
	if err != nil {
		http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if s.cfg.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.queryTimeout)
		defer cancel()
	}
	added, statuses, failed := s.coord.Insert(ctx, delta.Triples())
	failedList := failedShards(statuses)
	if failed && added == 0 && len(failedList) == len(statuses) {
		writeJSONError(w, http.StatusBadGateway, "no shard accepted the insert", failedList)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	doc := map[string]any{"added": added, "partial": failed}
	if failed {
		doc["shards"] = failedList
	}
	_ = json.NewEncoder(w).Encode(doc)
}

func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status": "ok", "version": %q, "shards": %d}`+"\n",
		buildVersion(), s.coord.NumShards())
}

func (s *coordServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status": "draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status": "ready"}`)
}

// handleMetrics serves the process registry plus the cluster block:
// per-shard scan/retry/hedge/ejection counters and latency histograms.
// JSON by default; Prometheus text exposition when the request
// negotiates it (Accept: text/plain or ?format=prometheus).
func (s *coordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	cs := s.coord.Stats()
	snap.Cluster = &cs
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
	_ = json.NewEncoder(w).Encode(snap)
}

func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}
