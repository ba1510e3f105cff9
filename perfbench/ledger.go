package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// The traced run.  It repeats the untraced run's open-loop phase twice
// on fresh servers, first with tracing off and then with
// -trace-sample 1, and builds the per-layer ledger from three sources:
//
//   - the server's own spans, fetched by NS-Trace-Id from /debug/traces
//     (handler time outside plan and exec; transport as client latency
//     minus the server's root span);
//   - /metrics deltas over the traced phase (plan cache, re-planning,
//     compactions, WAL, cluster retries and hedges);
//   - an in-process replay of the same operations against an
//     identically loaded store, timing the public function of each
//     layer from outside: parser.ParseAny, exec.CompileOpts,
//     exec.EvalCompiled, (*sparql.MappingSet).Sorted, the store's
//     batch commit, and on a cluster cluster.Coordinator.Gather,
//     cluster.ParseScanBody and cluster.MergeSorted.
//
// Every _us metric is a mean per query (per insert for rdf.commit_us),
// so the query layers add up to ledger.client_us.

// planCacheSize is nsserve's default -plan-cache capacity; the replay
// models the same LRU keyed by (query text, graph epoch).
const planCacheSize = 256

func (b *bench) runTraced(ctx context.Context, runDir string) (report, error) {
	var rep report
	dataDir := filepath.Join(runDir, "data")

	// Untraced reference phase, for trace.overhead_ratio and the
	// generator's own lag.
	topo, err := b.setUp(ctx, dataDir, false, 0)
	if err != nil {
		return rep, err
	}
	d := b.driverFor(topo.base)
	plain := d.open(ctx, b.in.open)
	topo.stop()
	plainP50 := percentile(d.latenciesMs(plain, b.in.open, isQuery), 0.5)
	rep.set("driver.send_lag_p99_ms", percentile(sortedLagMs(plain), 0.99))

	// Traced phase.
	if err := os.RemoveAll(dataDir); err != nil {
		return rep, err
	}
	ring := len(b.in.warm) + len(b.in.open) + len(b.in.inserts) + 64
	topo, err = b.setUp(ctx, dataDir, true, ring)
	if err != nil {
		return rep, err
	}
	defer func() { topo.stop() }()
	before, err := b.scrape(ctx, topo)
	if err != nil {
		return rep, err
	}
	d = b.driverFor(topo.base)
	traced := d.open(ctx, b.in.open)
	mid, err := b.scrape(ctx, topo)
	if err != nil {
		return rep, err
	}
	tracedP50 := percentile(d.latenciesMs(traced, b.in.open, isQuery), 0.5)
	rep.set("trace.overhead_ratio", tracedP50/plainP50)

	// Server spans: root "query" span and its direct children.
	clientUS, rootUS, childUS, err := b.serverSpans(ctx, topo, traced)
	if err != nil {
		return rep, err
	}
	// In-process replay, before the insert phase changes the shards'
	// graph.
	rp, err := b.replay(ctx, topo, runDir)
	if err != nil {
		return rep, err
	}

	d = b.driverFor(topo.base)
	insertRes := d.open(ctx, b.in.inserts)
	after, err := b.scrape(ctx, topo)
	if err != nil {
		return rep, err
	}
	rep.Attempted = len(plain) + len(traced) + len(insertRes)
	rep.Failed = countFailed(plain) + countFailed(traced) + countFailed(insertRes) + after.partials - before.partials

	q := mid.minus(before)
	all := after.minus(before)
	nQueries, nInserts, nTriples := 0, 0, 0
	var bodyBytes int64
	for i, o := range b.in.open {
		if o.insert {
			nInserts++
			nTriples += len(o.triples)
		} else {
			nQueries++
			bodyBytes += traced[i].bytes
		}
	}
	for _, o := range b.in.inserts {
		nInserts++
		nTriples += len(o.triples)
	}
	rep.set("plan.cache_hit_ratio", ratio(float64(q.cacheHits), float64(q.cacheHits+q.cacheMisses)))
	rep.set("plan.replans_per_query", ratio(float64(q.replans), float64(nQueries)))
	rep.set("encode.body_bytes_per_query", ratio(float64(bodyBytes), float64(nQueries)))
	rep.set("rdf.compactions_per_run", float64(all.compactions))
	rep.set("rdf.wal_bytes_per_triple", ratio(float64(all.walBytes), float64(nTriples)))
	rep.set("rdf.fsyncs_per_insert", ratio(float64(all.walSyncs), float64(nInserts)))
	rep.set("cluster.retries_per_query", ratio(float64(q.retries), float64(nQueries)))
	rep.set("cluster.hedges_wasted_ratio", ratio(float64(q.hedgesWasted), float64(q.hedges)))

	rep.set("parser.parse_us", rp.parseUS)
	rep.set("plan.prepare_us", rp.prepareUS)
	rep.set("plan.probes_per_query", rp.probes)
	rep.set("exec.eval_us", rp.evalUS)
	rep.set("exec.eval_p99_us", rp.evalP99US)
	rep.set("exec.rows_scanned_per_query", rp.rowsScanned)
	rep.set("exec.rows_out_per_query", rp.rowsOut)
	rep.set("exec.steps_per_query", rp.steps)
	rep.set("exec.pool_inline_ratio", rp.poolInline)
	rep.set("encode.sort_us", rp.sortUS)
	rep.set("rdf.commit_us", rp.commitUS)
	rep.set("cluster.gather_us", rp.gatherUS)
	rep.set("cluster.scan_bytes_per_query", rp.scanBytes)
	rep.set("cluster.scan_parse_us", rp.scanParseUS)
	rep.set("cluster.subgraph_build_us", rp.buildUS)
	other := rootUS - childUS - rp.sortUS
	rep.set("nsserve.handler_other_us", other)
	rep.set("http.transport_us", clientUS-rootUS)
	rep.set("ledger.client_us", clientUS)

	sum := rp.parseUS + rp.prepareUS + rp.gatherUS + rp.evalUS + rp.sortUS + other + (clientUS - rootUS)
	fmt.Fprintf(os.Stderr, "perfbench: ledger: layers sum to %.1f us against %.1f us mean client latency (%.1f%%)\n",
		sum, clientUS, 100*sum/clientUS)

	final := b.expectGraph(b.in.inserts, insertRes)
	if b.w.Mixed {
		final = b.expectGraph(b.in.open, traced)
	}
	b.checkGraph(ctx, topo, final, "after the traced run")
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverSpans fetches each traced query's trace and returns the mean
// client service latency, the mean root-span duration and the mean
// total of its parse/plan/gather/exec children, all in microseconds.
func (b *bench) serverSpans(ctx context.Context, topo *topology, rs []result) (client, root, children float64, err error) {
	d := b.driverFor(topo.base)
	n := 0
	for i, r := range rs {
		if b.in.open[i].insert || r.failed() {
			continue
		}
		if r.traceID == "" {
			return 0, 0, 0, fmt.Errorf("query %d: no NS-Trace-Id header", i)
		}
		body, err := d.fetch(ctx, "/debug/traces?id="+url.QueryEscape(r.traceID))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("trace %s: %w", r.traceID, err)
		}
		var tr obs.TraceSnapshot
		if err := json.Unmarshal(body, &tr); err != nil {
			return 0, 0, 0, fmt.Errorf("trace %s: %w", r.traceID, err)
		}
		var rootSpan *obs.SpanSnapshot
		for j := range tr.Spans {
			if s := &tr.Spans[j]; s.Parent == "" && s.Name == "query" {
				rootSpan = s
			}
		}
		if rootSpan == nil {
			return 0, 0, 0, fmt.Errorf("trace %s: no root query span", r.traceID)
		}
		for _, s := range tr.Spans {
			if s.Parent == rootSpan.ID {
				switch s.Name {
				case "parse", "plan", "gather", "exec":
					children += float64(s.DurationNS) / 1e3
				}
			}
		}
		root += float64(rootSpan.DurationNS) / 1e3
		client += float64(r.service) / 1e3
		n++
	}
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("no traced queries")
	}
	return client / float64(n), root / float64(n), children / float64(n), nil
}

// replayStats are the in-process replay's per-layer means.
type replayStats struct {
	parseUS, prepareUS, evalUS, evalP99US, sortUS float64
	probes, rowsScanned, rowsOut, steps           float64
	poolInline                                    float64
	commitUS                                      float64
	gatherUS, scanBytes, scanParseUS, buildUS     float64
}

// planLRU models nsserve's plan cache: an LRU over (text, epoch).
type planLRU struct {
	cap   int
	order *list.List
	items map[string]*list.Element
}

func newPlanLRU(n int) *planLRU {
	return &planLRU{cap: n, order: list.New(), items: map[string]*list.Element{}}
}

// touch reports whether key was cached, and caches it.
func (c *planLRU) touch(key string) bool {
	if e, ok := c.items[key]; ok {
		c.order.MoveToFront(e)
		return true
	}
	c.items[key] = c.order.PushFront(key)
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(string))
	}
	return false
}

// replay runs the traced run's operations in process.  Single-node
// workloads replay against a store loaded like the server's (durable
// in a temporary directory with the same fsync policy, when the server
// is durable), modelling the plan cache; a cluster replays each query
// through an in-process coordinator against the same shard processes
// and evaluates on the gathered subgraph, as nscoord does.  Rotation
// workloads replay one pass, which has the same mix as the whole
// phase.
func (b *bench) replay(ctx context.Context, topo *topology, runDir string) (replayStats, error) {
	var st replayStats
	ops := b.in.open
	if b.w.Rotation > 0 && !b.w.Mixed {
		ops = ops[:b.w.Rotation]
	}
	store, err := b.replayStore(filepath.Join(runDir, "replay"))
	if err != nil {
		return st, err
	}
	defer store.Close()

	var coord *cluster.Coordinator
	if b.w.Shards > 0 {
		if coord, err = cluster.New(cluster.Options{Shards: topo.shards, Seed: b.seed}); err != nil {
			return st, err
		}
		defer coord.Close()
	}
	cache := newPlanLRU(planCacheSize)
	key := func(q string) string { return strconv.FormatUint(store.Epoch(), 10) + "\x00" + q }
	for _, o := range b.in.warm {
		cache.touch(key(o.query))
	}
	var evals []float64
	var acquired, inline int64
	nq, ni := 0, 0
	commit := func(o op) error {
		g := rdf.NewGraph()
		for _, t := range o.triples {
			g.AddTriple(t)
		}
		t0 := time.Now()
		store.BeginBatch()
		store.AddAll(g)
		err := store.CommitBatch()
		st.commitUS += us(time.Since(t0))
		ni++
		return err
	}
	for _, o := range ops {
		if o.insert {
			if err := commit(o); err != nil {
				return st, err
			}
			continue
		}
		nq++
		evalStore := rdf.Store(store)
		hit := coord == nil && cache.touch(key(o.query))
		t0 := time.Now()
		parsed, err := parser.ParseAny("paper", o.query)
		if err != nil {
			return st, err
		}
		if !hit {
			st.parseUS += us(time.Since(t0))
		}
		if coord != nil {
			patterns := sparql.TriplePatterns(parsed.Pattern)
			t0 = time.Now()
			g, _, partial := coord.Gather(ctx, patterns)
			st.gatherUS += us(time.Since(t0))
			if partial {
				return st, fmt.Errorf("replay gather was partial")
			}
			evalStore = g
			if err := b.replayScans(ctx, topo, patterns, &st); err != nil {
				return st, err
			}
		}
		t0 = time.Now()
		c := exec.CompileOpts(evalStore, parsed.Pattern, parsed.Construct, parsed.Ask, plan.PlannerOptions{})
		if !hit {
			st.prepareUS += us(time.Since(t0))
			if ex := c.Prepared.Explain(); ex != nil {
				st.probes += float64(ex.Probes)
			}
		}
		prof := obs.NewNode("query", "")
		opts := plan.Options{Prof: prof}
		t0 = time.Now()
		res, err := exec.EvalCompiled(evalStore, c, sparql.NewBudget(ctx), opts)
		evalUS := us(time.Since(t0))
		if err != nil {
			return st, fmt.Errorf("replay %q: %w", o.query, err)
		}
		st.evalUS += evalUS
		evals = append(evals, evalUS)
		t0 = time.Now()
		res.Rows.Sorted()
		st.sortUS += us(time.Since(t0))

		snap := prof.Snapshot()
		st.rowsOut += float64(snap.RowsOut)
		st.rowsScanned += float64(snap.Sum(func(n *obs.Profile) int64 { return n.RowsOut }) - snap.RowsOut)
		st.steps += float64(snap.BudgetSteps)
		acquired += snap.Sum(func(n *obs.Profile) int64 { return n.PoolAcquired })
		inline += snap.Sum(func(n *obs.Profile) int64 { return n.PoolInline })
	}
	for _, o := range b.in.inserts {
		if err := commit(o); err != nil {
			return st, err
		}
	}
	sort.Float64s(evals)
	st.evalP99US = percentile(evals, 0.99)
	per := float64(max(nq, 1))
	for _, f := range []*float64{&st.parseUS, &st.prepareUS, &st.evalUS, &st.sortUS, &st.probes, &st.rowsOut,
		&st.rowsScanned, &st.steps, &st.gatherUS, &st.scanBytes, &st.scanParseUS, &st.buildUS} {
		*f /= per
	}
	st.commitUS = ratio(st.commitUS, float64(ni))
	st.poolInline = ratio(float64(inline), float64(acquired+inline))
	return st, nil
}

// replayStore returns a store holding the initial graph, of the same
// backend as the server's.
func (b *bench) replayStore(dir string) (rdf.Store, error) {
	g := rdf.NewGraph()
	for _, t := range b.in.initial {
		g.AddTriple(t)
	}
	var store rdf.Store = rdf.NewStore()
	if b.w.Durable {
		ds, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncBatch})
		if err != nil {
			return nil, err
		}
		store = ds
	}
	store.BeginBatch()
	store.AddAll(g)
	if err := store.CommitBatch(); err != nil {
		store.Close()
		return nil, err
	}
	return store, nil
}

// replayScans fetches each pattern's /scan bodies from every shard,
// then times parsing them and building the merged subgraph.
func (b *bench) replayScans(ctx context.Context, topo *topology, patterns []sparql.TriplePattern, st *replayStats) error {
	defer b.client.CloseIdleConnections()
	g := rdf.NewGraph()
	var build time.Duration
	for _, tp := range patterns {
		streams := make([][]rdf.Triple, len(topo.shards))
		for i, base := range topo.shards {
			d := &driver{client: b.client, base: base, timeout: 30 * time.Second}
			body, err := d.fetch(ctx, "/scan?"+cluster.ScanQuery(tp).Encode())
			if err != nil {
				return err
			}
			st.scanBytes += float64(len(body))
			t0 := time.Now()
			ts, err := cluster.ParseScanBody(bytes.NewReader(body))
			st.scanParseUS += us(time.Since(t0))
			if err != nil {
				return err
			}
			streams[i] = ts
		}
		t0 := time.Now()
		cluster.MergeSorted(streams, func(t rdf.Triple) bool {
			g.AddTriple(t)
			return true
		})
		build += time.Since(t0)
	}
	t0 := time.Now()
	g.Compact()
	st.buildUS += us(build + time.Since(t0))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
