package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// countingStore decorates a Store, counting CountMatch index probes.
type countingStore struct {
	rdf.Store
	probes int
}

func (c *countingStore) CountMatch(s, p, o *rdf.IRI) int {
	c.probes++
	return c.Store.CountMatch(s, p, o)
}

// TestPrepareProbeCount pins the estimator's memoization contract:
// planning a k-pattern query issues exactly one CountMatch probe per
// distinct triple pattern, no matter how many orders the DP
// enumerates (2^k subsets for a connected component of size k).
func TestPrepareProbeCount(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern(
		`(?x livesIn city_1) AND (?x type Person) AND (?x email ?e) AND ` +
			`(?x worksAt org_2) AND (?x knows ?y) AND (?x name ?n)`)
	k := len(sparql.TriplePatterns(q))
	if k != 6 {
		t.Fatalf("expected 6 patterns, got %d", k)
	}
	cs := &countingStore{Store: s.G}
	pr := Prepare(cs, q, PlannerOptions{})
	if cs.probes != k {
		t.Fatalf("Prepare issued %d index probes for %d patterns, want exactly %d (memoized)",
			cs.probes, k, k)
	}
	ex := pr.Explain()
	if ex == nil {
		t.Fatal("prepared plan has no explain record")
	}
	if ex.Probes != k {
		t.Fatalf("Explain.Probes = %d, want %d", ex.Probes, k)
	}
	if len(ex.JoinOrder) != k {
		t.Fatalf("Explain.JoinOrder has %d scans, want %d", len(ex.JoinOrder), k)
	}
	// The greedy baseline must be equally frugal.
	cs2 := &countingStore{Store: s.G}
	Prepare(cs2, q, PlannerOptions{Greedy: true})
	if cs2.probes != k {
		t.Fatalf("greedy Prepare issued %d probes, want %d", cs2.probes, k)
	}
}

// TestExplainWellDesigned checks the recorded well-designedness flag
// against the analysis package's verdict on the original (unoptimized)
// pattern, over the eight query shapes of the cluster differential
// suite — so plan optimization can never silently flip the property.
func TestExplainWellDesigned(t *testing.T) {
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
	g := rdf.NewGraph()
	g.Add("a", "knows", "b")
	g.Add("a", "worksAt", "w1")
	want := func(p sparql.Pattern) bool {
		if sparql.InFragment(p, sparql.FragmentAOF) {
			ok, err := analysis.IsWellDesigned(p)
			return err == nil && ok
		}
		if sparql.InFragment(p, sparql.FragmentAUOF) {
			ok, err := analysis.IsWellDesignedUnion(p)
			return err == nil && ok
		}
		return false
	}
	sawTrue, sawFalse := false, false
	for _, q := range queries {
		p := parser.MustParsePattern(q)
		ex := Prepare(g, p, PlannerOptions{}).Explain()
		if ex == nil {
			t.Fatalf("%q: no explain record", q)
		}
		if w := want(p); ex.WellDesigned != w {
			t.Errorf("%q: recorded well_designed=%t, analysis says %t", q, ex.WellDesigned, w)
		}
		if ex.WellDesigned {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatalf("shape set must exercise both verdicts (true=%t false=%t)", sawTrue, sawFalse)
	}
}

// plannerConfigs are the ablation points every differential check runs.
var plannerConfigs = []struct {
	name string
	po   PlannerOptions
}{
	{"greedy", PlannerOptions{Greedy: true}},
	{"dp", PlannerOptions{NoReplan: true}},
	{"dp-adaptive", PlannerOptions{}},
	{"dp-eager-replan", PlannerOptions{ReplanFactor: 1.0000001}},
}

// TestPlannerDifferential: on the social workload (zipf skew, the
// shapes that arm merge joins, bind joins, short-circuits and
// replans), every planner configuration must return exactly the
// reference answer set on every fragment of the language, under both
// the serial and the parallel engine.
func TestPlannerDifferential(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 400})
	rng := rand.New(rand.NewSource(3))
	var queries []sparql.Pattern
	for i := 0; i < 12; i++ {
		queries = append(queries, s.MixedQueries(rng, 1, nil)...)
	}
	for _, q := range []string{
		// The non-AND fragments the chain executor must leave intact.
		"(?x knows ?y) UNION (?x worksAt ?y)",
		"((?x livesIn city_0) AND (?x knows ?y)) OPT (?y email ?e)",
		"((?x knows ?y) OPT (?y email ?e)) FILTER (!bound(?e))",
		"NS((?x worksAt ?w) UNION ((?x worksAt ?w) AND (?x email ?e)))",
		"SELECT {?x} WHERE (?x knows ?y) AND (?y worksAt ?w)",
		"(?x0 follows ?x1) AND (?x1 mentors ?x2) AND (?x2 worksAt org_3)",
		"(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)",
	} {
		queries = append(queries, parser.MustParsePattern(q))
	}
	for qi, q := range queries {
		want := sparql.Eval(s.G, q)
		for _, cfg := range plannerConfigs {
			pr := Prepare(s.G, q, cfg.po)
			for _, opts := range []Options{
				{Parallel: 1},
				{MinParallelEstimate: -1}, // force the parallel engine
			} {
				got, err := EvalPrepared(s.G, pr, nil, opts)
				if err != nil {
					t.Fatalf("q%d %s under %s: %v", qi, q, cfg.name, err)
				}
				if !got.Equal(want) {
					t.Fatalf("q%d %s under %s (parallel=%d): %d rows, reference %d",
						qi, q, cfg.name, opts.Parallel, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestAdaptiveReplanAndBindJoin drives the adaptive executor into both
// of its runtime decisions and checks they surface on the profile: a
// correlated anchored pair whose observed cardinality collapses far
// below the model triggers a re-plan, and a selective prefix against a
// large predicate switches the join to an index bind join.
func TestAdaptiveReplanAndBindJoin(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 1000})
	// Find a (city, org) pair with a small nonempty intersection: the
	// model estimates the pair near min(|livesIn|, |worksAt|), so 1–3
	// observed rows is far outside the confidence band.
	var city, org rdf.IRI
	found := false
	for i := 0; i < s.Opts.People && !found; i++ {
		p := s.Person(i)
		var pc, po rdf.IRI
		s.G.ForEach(func(tr rdf.Triple) bool {
			if tr.S == p && tr.P == workload.PredLivesIn {
				pc = tr.O
			}
			if tr.S == p && tr.P == workload.PredWorksAt {
				po = tr.O
			}
			return true
		})
		n := 0
		for j := 0; j < s.Opts.People; j++ {
			q := s.Person(j)
			if countPair(s.G, q, pc, po) {
				n++
			}
		}
		if n >= 1 && n <= 3 {
			city, org, found = pc, po, true
		}
	}
	if !found {
		t.Skip("no suitably selective (city, org) pair in this seed")
	}
	q := parser.MustParsePattern(fmt.Sprintf(
		"(?x livesIn %s) AND (?x worksAt %s) AND (?x knows ?y) AND (?y name ?n) AND (?x type Person)",
		city, org))
	pr := Prepare(s.G, q, PlannerOptions{})
	prof := obs.NewNode("query", "")
	got, err := EvalPrepared(s.G, pr, nil, Options{Parallel: 1, Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sparql.Eval(s.G, q)) {
		t.Fatal("adaptive answer differs from reference")
	}
	snap := prof.Snapshot()
	if n := snap.Sum(func(p *obs.Profile) int64 { return p.Replans }); n < 1 {
		t.Errorf("expected >=1 replan on a collapsed prefix, got %d", n)
	}
	if !hasOp(snap, "bindjoin") {
		t.Error("expected a bindjoin node on the profile (tiny prefix vs large predicate)")
	}
}

func countPair(g *rdf.Graph, person, city, org rdf.IRI) bool {
	lp, wp := workload.PredLivesIn, workload.PredWorksAt
	return g.CountMatch(&person, &lp, &city) > 0 && g.CountMatch(&person, &wp, &org) > 0
}

func hasOp(p *obs.Profile, op string) bool {
	if p == nil {
		return false
	}
	if p.Op == op {
		return true
	}
	for _, c := range p.Children {
		if hasOp(c, op) {
			return true
		}
	}
	return false
}
