package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// fastOpts is the test coordinator configuration: tiny deterministic
// backoff, short per-attempt timeout, prober off (tests step Probe
// explicitly), hedging off unless a test opts in.
func fastOpts(shards []string) Options {
	return Options{
		Shards:         shards,
		Backoff:        BackoffPolicy{Base: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, MaxAttempts: 3},
		ScanTimeout:    250 * time.Millisecond,
		DisableHedging: true,
		ProbeInterval:  -1,
		Seed:           1,
	}
}

func mustCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// shardServer mounts the real scan handler plus /readyz and /insert on
// one graph, optionally wrapped by a fault injector.
func shardServer(t *testing.T, g *rdf.Graph, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/scan", ScanHandler(graphSource(g)))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/insert", func(w http.ResponseWriter, r *http.Request) {
		in, err := rdf.ReadGraph(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		added := 0
		in.ForEach(func(t3 rdf.Triple) bool {
			if g.AddTriple(t3) {
				added++
			}
			return true
		})
		fmt.Fprintf(w, "{\"added\": %d}\n", added)
	})
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// seedGraphs partitions a deterministic random graph across n shards
// and also returns the union as the single-node reference.
func seedGraphs(n, triples int, seed int64) (full *rdf.Graph, parts []*rdf.Graph) {
	rng := rand.New(rand.NewSource(seed))
	full = rdf.NewGraph()
	parts = make([]*rdf.Graph, n)
	for i := range parts {
		parts[i] = rdf.NewGraph()
	}
	preds := []rdf.IRI{"knows", "worksAt", "name", "email", "type"}
	for i := 0; i < triples; i++ {
		s := rdf.IRI(fmt.Sprintf("p%d", rng.Intn(40)))
		p := preds[rng.Intn(len(preds))]
		o := rdf.IRI(fmt.Sprintf("v%d", rng.Intn(60)))
		full.Add(s, p, o)
		parts[ShardOf(s, n)].Add(s, p, o)
	}
	return full, parts
}

// gatherPatterns parses a paper-syntax pattern and extracts its triple
// patterns, as nscoord does.
func gatherPatterns(t *testing.T, query string) (sparql.Pattern, []sparql.TriplePattern) {
	t.Helper()
	parsed, err := parser.ParseAny("paper", query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return parsed.Pattern, sparql.TriplePatterns(parsed.Pattern)
}

func evalRows(t *testing.T, g rdf.Store, pattern sparql.Pattern) *sparql.MappingSet {
	t.Helper()
	b := sparql.NewBudget(context.Background())
	res, err := exec.EvalCompiled(g, exec.Compile(g, pattern, nil, false, plan.PlannerOptions{}), b, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestGatherDifferential is the scatter-gather exactness check: for
// every fragment of the language — AND joins, UNION, the non-monotone
// OPT and NS, FILTER, SELECT — evaluating over the coordinator's
// gathered subgraph must equal single-node evaluation over the full
// graph, at 1, 2 and 4 shards.
func TestGatherDifferential(t *testing.T) {
	queries := []string{
		"(?x knows ?y)",
		"(?x knows ?y) AND (?y knows ?z) AND (?z worksAt ?w)",
		"(?x knows ?y) UNION (?x worksAt ?y)",
		"(?x knows ?y) OPT (?y email ?e)",
		"((?x knows ?y) OPT (?y email ?e)) FILTER (!bound(?e))",
		"NS((?x worksAt ?w) UNION ((?x worksAt ?w) AND (?x email ?e)))",
		"SELECT {?x} WHERE (?x knows ?y) AND (?y worksAt ?w)",
		"(?x type v1) AND (?x knows ?y)",
	}
	for _, n := range []int{1, 2, 4} {
		full, parts := seedGraphs(n, 600, 11)
		var urls []string
		for _, g := range parts {
			urls = append(urls, shardServer(t, g, nil).URL)
		}
		c := mustCoordinator(t, fastOpts(urls))
		for _, q := range queries {
			pattern, tps := gatherPatterns(t, q)
			sub, statuses, partial := c.Gather(context.Background(), tps)
			if partial {
				t.Fatalf("%d shards, %q: unexpected partial gather: %+v", n, q, statuses)
			}
			got := evalRows(t, sub, pattern)
			want := evalRows(t, full, pattern)
			if !got.Equal(want) {
				t.Fatalf("%d shards, %q: cluster answer (%d rows) != single-node (%d rows)",
					n, q, got.Len(), want.Len())
			}
		}
	}
}

// faultInjector wraps a shard handler, failing the first `failures`
// scan requests in mode-specific ways before letting traffic through.
type faultInjector struct {
	mode     string // "5xx", "timeout", "reset", "midbody"
	failures int32
	inner    http.Handler
}

func (f *faultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/scan") || atomic.AddInt32(&f.failures, -1) < 0 {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.mode {
	case "5xx":
		http.Error(w, "shard exploding", http.StatusInternalServerError)
	case "timeout":
		select { // hold past the per-attempt timeout, then give up
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	case "reset":
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("no hijacker")
		}
		conn, _, _ := hj.Hijack()
		conn.Close()
	case "midbody":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", "1000") // promise more than delivered
		fmt.Fprint(w, "<a> <p> <o1> .\n")
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // tear the connection mid-body
	}
}

// TestGatherDegradation is the fault-injection table: each transient
// mode must be retried to success without marking the query partial,
// and a permanently-down shard must degrade the query to partial with
// that shard (and only that shard) in the error block.
func TestGatherDegradation(t *testing.T) {
	const shards = 3
	transient := []string{"5xx", "timeout", "reset", "midbody"}
	for _, mode := range transient {
		t.Run("transient/"+mode, func(t *testing.T) {
			full, parts := seedGraphs(shards, 300, 5)
			inj := &faultInjector{mode: mode, failures: 1}
			urls := []string{
				shardServer(t, parts[0], func(h http.Handler) http.Handler { inj.inner = h; return inj }).URL,
				shardServer(t, parts[1], nil).URL,
				shardServer(t, parts[2], nil).URL,
			}
			c := mustCoordinator(t, fastOpts(urls))
			pattern, tps := gatherPatterns(t, "(?x knows ?y) OPT (?y email ?e)")
			sub, statuses, partial := c.Gather(context.Background(), tps)
			if partial {
				t.Fatalf("one transient %s fault degraded the query: %+v", mode, statuses)
			}
			if got, want := evalRows(t, sub, pattern), evalRows(t, full, pattern); !got.Equal(want) {
				t.Fatalf("answer after retried %s fault differs from single-node", mode)
			}
			if st := c.Stats(); st.Shards[0].Retries < 1 {
				t.Fatalf("shard 0 stats show no retry after %s fault: %+v", mode, st.Shards[0])
			}
		})
	}

	t.Run("permanent-down", func(t *testing.T) {
		_, parts := seedGraphs(shards, 300, 5)
		down := httptest.NewServer(http.NotFoundHandler())
		down.Close() // connection refused from here on
		urls := []string{
			down.URL,
			shardServer(t, parts[1], nil).URL,
			shardServer(t, parts[2], nil).URL,
		}
		c := mustCoordinator(t, fastOpts(urls))
		pattern, tps := gatherPatterns(t, "(?x knows ?y) AND (?y worksAt ?w)")
		sub, statuses, partial := c.Gather(context.Background(), tps)
		if !partial {
			t.Fatal("dead shard did not mark the gather partial")
		}
		if statuses[0].Error == "" || statuses[1].Error != "" || statuses[2].Error != "" {
			t.Fatalf("error block misattributes the failure: %+v", statuses)
		}
		// The surviving shards' data still answers: the result is the
		// single-node answer over the reachable partitions.
		reachable := rdf.NewGraph()
		reachable.AddAll(parts[1])
		reachable.AddAll(parts[2])
		if got, want := evalRows(t, sub, pattern), evalRows(t, reachable, pattern); !got.Equal(want) {
			t.Fatal("partial answer differs from the reachable-shard reference")
		}
		// Exactly-once accounting: one degraded query = one tick, even
		// though the dead shard failed on two triple patterns.
		if st := c.Stats(); st.PartialResponses != 1 || st.Queries != 1 {
			t.Fatalf("partial accounting: queries=%d partials=%d, want 1/1", st.Queries, st.PartialResponses)
		}
	})

	t.Run("permanent-4xx-no-retry", func(t *testing.T) {
		_, parts := seedGraphs(2, 100, 5)
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no", http.StatusBadRequest)
		}))
		t.Cleanup(bad.Close)
		urls := []string{bad.URL, shardServer(t, parts[1], nil).URL}
		c := mustCoordinator(t, fastOpts(urls))
		_, statuses, partial := c.Gather(context.Background(), []sparql.TriplePattern{
			{S: sparql.V("x"), P: sparql.V("p"), O: sparql.V("y")},
		})
		if !partial || statuses[0].Error == "" {
			t.Fatalf("4xx shard not reported: partial=%v %+v", partial, statuses)
		}
		if st := c.Stats(); st.Shards[0].Retries != 0 {
			t.Fatalf("4xx was retried %d times; permanent errors must not burn the budget", st.Shards[0].Retries)
		}
	})
}

// TestGatherDeadline checks a query deadline bounds the whole gather:
// with one shard black-holing requests, Gather returns partial within
// the deadline instead of hanging.
func TestGatherDeadline(t *testing.T) {
	_, parts := seedGraphs(2, 100, 9)
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)
	opts := fastOpts([]string{hang.URL, shardServer(t, parts[1], nil).URL})
	opts.ScanTimeout = 10 * time.Second // per-attempt cap out of the way: the deadline must do it
	c := mustCoordinator(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, statuses, partial := c.Gather(ctx, []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.V("p"), O: sparql.V("y")},
	})
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Gather overshot the deadline by %v", elapsed)
	}
	if !partial || statuses[0].Error == "" {
		t.Fatalf("deadline expiry not reported as partial: %v %+v", partial, statuses)
	}
}

// TestHedgeWins makes the primary slow and checks a hedge fires and
// wins, with the accounting to prove it.
func TestHedgeWins(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "p", "b")
	var slowOnce atomic.Bool
	slowOnce.Store(true)
	inj := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/scan") && slowOnce.CompareAndSwap(true, false) {
			select { // first scan request stalls; the hedge sails past
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		ScanHandler(graphSource(g)).ServeHTTP(w, r)
	})
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	opts := fastOpts([]string{srv.URL})
	opts.DisableHedging = false
	opts.HedgeDelay = 20 * time.Millisecond
	opts.ScanTimeout = 5 * time.Second
	c := mustCoordinator(t, opts)
	start := time.Now()
	_, _, partial := c.Gather(context.Background(), []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.V("p"), O: sparql.V("y")},
	})
	if partial {
		t.Fatal("hedged gather came back partial")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue the slow primary: took %v", elapsed)
	}
	st := c.Stats()
	if st.Shards[0].Hedges < 1 || st.Shards[0].HedgeWins < 1 {
		t.Fatalf("hedge accounting: %+v", st.Shards[0])
	}
}

// TestProbeEjectReadmit steps the health state machine: EjectAfter
// consecutive probe failures eject the shard (Gather skips it),
// ReadmitAfter successes bring it back.
func TestProbeEjectReadmit(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "p", "b")
	var down atomic.Bool
	mux := http.NewServeMux()
	mux.Handle("/scan", ScanHandler(graphSource(g)))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	opts := fastOpts([]string{srv.URL})
	opts.EjectAfter = 2
	opts.ReadmitAfter = 2
	c := mustCoordinator(t, opts)
	all := []sparql.TriplePattern{{S: sparql.V("x"), P: sparql.V("p"), O: sparql.V("y")}}

	down.Store(true)
	c.Probe()
	if st := c.Stats(); st.Shards[0].State != "healthy" {
		t.Fatalf("ejected after 1 failed probe, EjectAfter=2: %+v", st.Shards[0])
	}
	c.Probe()
	if st := c.Stats(); st.Shards[0].State != "ejected" || st.Shards[0].Ejections != 1 {
		t.Fatalf("not ejected after 2 failed probes: %+v", st.Shards[0])
	}
	if _, statuses, partial := c.Gather(context.Background(), all); !partial || !strings.Contains(statuses[0].Error, "ejected") {
		t.Fatalf("Gather did not skip the ejected shard: %v %+v", partial, statuses)
	}

	down.Store(false)
	c.Probe()
	if st := c.Stats(); st.Shards[0].State == "healthy" {
		t.Fatalf("readmitted after 1 probe, ReadmitAfter=2: %+v", st.Shards[0])
	}
	c.Probe()
	if st := c.Stats(); st.Shards[0].State != "healthy" || st.Shards[0].Readmissions != 1 {
		t.Fatalf("not readmitted after 2 good probes: %+v", st.Shards[0])
	}
	if _, _, partial := c.Gather(context.Background(), all); partial {
		t.Fatal("Gather still partial after readmission")
	}
}

// TestInsertRouting pushes triples through the coordinator and checks
// each lands on exactly the shard its subject hashes to.
func TestInsertRouting(t *testing.T) {
	const shards = 3
	parts := make([]*rdf.Graph, shards)
	var urls []string
	for i := range parts {
		parts[i] = rdf.NewGraph()
		urls = append(urls, shardServer(t, parts[i], nil).URL)
	}
	c := mustCoordinator(t, fastOpts(urls))
	var ts []rdf.Triple
	for i := 0; i < 50; i++ {
		ts = append(ts, tr(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)))
	}
	added, statuses, failed := c.Insert(context.Background(), ts)
	if failed {
		t.Fatalf("insert failed: %+v", statuses)
	}
	if added != len(ts) {
		t.Fatalf("added %d, want %d", added, len(ts))
	}
	for _, t3 := range ts {
		home := ShardOf(t3.S, shards)
		for i, g := range parts {
			if got := g.ContainsTriple(t3); got != (i == home) {
				t.Fatalf("triple %v: on shard %d = %v, home is %d", t3, i, got, home)
			}
		}
	}
	// Idempotency: re-insert adds nothing.
	if added, _, _ := c.Insert(context.Background(), ts); added != 0 {
		t.Fatalf("re-insert added %d, want 0", added)
	}
}

// TestCoordinatorCloseNoLeaks runs a gather against a flaky cluster,
// closes the coordinator and checks the goroutine count settles back —
// no scan, hedge or prober goroutine outlives Close.
func TestCoordinatorCloseNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	g := rdf.NewGraph()
	g.Add("a", "p", "b")
	inj := &faultInjector{mode: "5xx", failures: 2}
	srv := shardServer(t, g, func(h http.Handler) http.Handler { inj.inner = h; return inj })
	opts := fastOpts([]string{srv.URL})
	opts.DisableHedging = false
	opts.HedgeDelay = time.Millisecond
	opts.ProbeInterval = 5 * time.Millisecond
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 5; i++ {
		c.Gather(context.Background(), []sparql.TriplePattern{
			{S: sparql.V("x"), P: sparql.V("p"), O: sparql.V("y")},
		})
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 { // allow httptest slack
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
}
