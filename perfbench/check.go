package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// counters are the /metrics counters the benchmark reads, summed over
// a topology's processes.
type counters struct {
	partials                      int // coordinator answers that were partial or failed
	cacheHits, cacheMisses        int64
	replans                       int64
	compactions                   int64
	walBytes, walSyncs            int64
	retries, hedges, hedgesWasted int64
}

func (c counters) minus(o counters) counters {
	return counters{
		partials: c.partials - o.partials, cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		replans: c.replans - o.replans, compactions: c.compactions - o.compactions,
		walBytes: c.walBytes - o.walBytes, walSyncs: c.walSyncs - o.walSyncs,
		retries: c.retries - o.retries, hedges: c.hedges - o.hedges, hedgesWasted: c.hedgesWasted - o.hedgesWasted,
	}
}

// scrape reads /metrics from every process of the topology.
func (b *bench) scrape(ctx context.Context, topo *topology) (counters, error) {
	defer b.client.CloseIdleConnections()
	var c counters
	for _, p := range topo.procs {
		d := &driver{client: b.client, base: p.base, timeout: 10 * time.Second}
		body, err := d.fetch(ctx, "/metrics")
		if err != nil {
			return c, fmt.Errorf("%s: %w", p.name, err)
		}
		var m struct {
			PlannerReplans int64 `json:"planner_replans"`
			Store          *struct {
				Compactions int64 `json:"compactions"`
			} `json:"store"`
			Durable *struct {
				WALBytes int64 `json:"wal_bytes"`
				WALSyncs int64 `json:"wal_syncs"`
			} `json:"durable"`
			PlanCache *struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"plan_cache"`
			Cluster *struct {
				Shards []struct {
					Retries      int64 `json:"retries"`
					Hedges       int64 `json:"hedges"`
					HedgesWasted int64 `json:"hedges_wasted"`
				} `json:"shards"`
				PartialResponses int64 `json:"partial_responses"`
				FailedResponses  int64 `json:"failed_responses"`
			} `json:"cluster"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return c, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		c.replans += m.PlannerReplans
		if m.Store != nil {
			c.compactions += m.Store.Compactions
		}
		if m.Durable != nil {
			c.walBytes += m.Durable.WALBytes
			c.walSyncs += m.Durable.WALSyncs
		}
		if m.PlanCache != nil {
			c.cacheHits += m.PlanCache.Hits
			c.cacheMisses += m.PlanCache.Misses
		}
		if m.Cluster != nil {
			c.partials += int(m.Cluster.PartialResponses + m.Cluster.FailedResponses)
			for _, s := range m.Cluster.Shards {
				c.retries += s.Retries
				c.hedges += s.Hedges
				c.hedgesWasted += s.HedgesWasted
			}
		}
	}
	return c, nil
}

// graphExpect is what the served graph must hold after a run: the
// initial graph plus every acknowledged insert, and nothing beyond the
// initial graph plus every insert sent (an insert whose reply was lost
// may or may not have landed).
type graphExpect struct {
	must map[rdf.Triple]bool
	may  map[rdf.Triple]bool
}

func (b *bench) expectGraph(sent []op, res []result) graphExpect {
	e := graphExpect{must: map[rdf.Triple]bool{}, may: map[rdf.Triple]bool{}}
	for _, t := range b.in.initial {
		e.must[t], e.may[t] = true, true
	}
	for i, o := range sent {
		if !o.insert {
			continue
		}
		for _, t := range o.triples {
			e.may[t] = true
			if !res[i].failed() {
				e.must[t] = true
			}
		}
	}
	return e
}

func (e graphExpect) triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(e.must))
	for t := range e.must {
		out = append(out, t)
	}
	return out
}

// servedTriples fetches every triple the topology holds through the
// /scan protocol (every shard, for a cluster).
func (b *bench) servedTriples(ctx context.Context, topo *topology) ([]rdf.Triple, error) {
	defer b.client.CloseIdleConnections()
	bases := topo.shards
	if len(bases) == 0 {
		bases = []string{topo.base}
	}
	var out []rdf.Triple
	for _, base := range bases {
		d := &driver{client: b.client, base: base, timeout: 30 * time.Second}
		body, err := d.fetch(ctx, "/scan")
		if err != nil {
			return nil, err
		}
		ts, err := cluster.ParseScanBody(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%s /scan: %w", base, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// checkGraph compares the served graph with the expectation.
func (b *bench) checkGraph(ctx context.Context, topo *topology, e graphExpect, when string) {
	got, err := b.servedTriples(ctx, topo)
	if err != nil {
		b.fail("graph %s: %v", when, err)
		return
	}
	have := make(map[rdf.Triple]bool, len(got))
	extra := 0
	for _, t := range got {
		have[t] = true
		if !e.may[t] {
			extra++
		}
	}
	missing := 0
	for t := range e.must {
		if !have[t] {
			missing++
		}
	}
	if missing > 0 || extra > 0 {
		b.fail("graph %s: %d acknowledged triples missing, %d triples never sent", when, missing, extra)
	}
}

// verifyAnswers fetches every distinct query of the timed phases once and
// compares its answer with the reference evaluator's over triples (and,
// on a cluster, with the single-node engine's over the same graph).
// The comparison is made in the structure seed's labels: the graph,
// each query and each served value are mapped back through the seed's
// renaming, a bijection that query evaluation commutes with, so the
// oracle's cache serves every run seed alike.
func (b *bench) verifyAnswers(ctx context.Context, d *driver, triples []rdf.Triple) {
	t0 := time.Now()
	g := rdf.NewGraph()
	canon := make([]rdf.Triple, len(triples))
	for i, t := range triples {
		canon[i] = b.in.rl.backTriple(t)
		g.AddTriple(canon[i])
	}
	g.Compact()
	orc, err := openOracle(filepath.Join(b.workDir, "oracle"), graphDigest(canon))
	if err != nil {
		b.fail("oracle cache: %v", err)
		return
	}
	texts := distinct(append([][]op{b.in.open}, b.in.closed...)...)
	canonTexts := make([]string, len(texts))
	for i, q := range texts {
		canonTexts[i] = b.in.rl.back(q)
	}
	want, err := orc.answers(g, canonTexts)
	if err != nil {
		b.fail("%v", err)
		return
	}
	tOracle := time.Since(t0)
	got := make([]answer, len(texts))
	errs := make([]error, len(texts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(texts); i = int(next.Add(1) - 1) {
				body, err := d.fetch(ctx, "/query?syntax=paper&q="+url.QueryEscape(texts[i]))
				if err == nil {
					got[i], err = answerOfBody(body, b.in.rl.back)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	var bad []string
	for i, q := range texts {
		ref := want[canonTexts[i]]
		switch {
		case errs[i] != nil:
			bad = append(bad, fmt.Sprintf("%s: %v", q, errs[i]))
		case got[i] != ref:
			bad = append(bad, fmt.Sprintf("%s: served %v, reference %v", q, got[i], ref))
		}
		if b.w.Shards > 0 {
			if single, err := singleNode(g, canonTexts[i]); err != nil || single != ref {
				bad = append(bad, fmt.Sprintf("%s: single-node %v (%v), reference %v", q, single, err, ref))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: checked %d distinct answers (reference %v, total %v)\n",
		len(texts), tOracle.Round(time.Millisecond), time.Since(t0).Round(time.Millisecond))
	if len(bad) > 0 {
		b.fail("%d of %d answers differ from the reference:\n  %s", len(bad), len(texts), mismatchReport(bad))
	}
}

// singleNode answers q with the single-node engine, as nsserve would.
func singleNode(g rdf.Store, q string) (answer, error) {
	parsed, err := parser.ParseAny("paper", q)
	if err != nil {
		return answer{}, err
	}
	c := exec.CompileOpts(g, parsed.Pattern, parsed.Construct, parsed.Ask, plan.PlannerOptions{})
	res, err := exec.EvalCompiled(g, c, sparql.NewBudget(context.Background()), plan.Options{})
	if err != nil {
		return answer{}, err
	}
	return answerOfSet(res.Rows), nil
}
