package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// TestEvalMatchesReferenceQuick is the planner's core guarantee: for
// random NS-SPARQL patterns and graphs, the optimized evaluator returns
// exactly the reference answer set.
func TestEvalMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(25), nil)
		want := sparql.Eval(g, p)
		got := evalPlan(t, g, p, Options{})
		if !got.Equal(want) {
			t.Logf("pattern %s\noptimized %s\ngraph\n%s\nwant %v\ngot  %v",
				p, Optimize(g, p), g, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizePreservesSemanticsQuick(t *testing.T) {
	// Optimize alone (evaluated by the *reference* evaluator) must also
	// preserve answers — this isolates rewriting bugs from algebra bugs.
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(25), nil)
		if !sparql.Eval(g, p).Equal(sparql.Eval(g, Optimize(g, p))) {
			t.Logf("pattern %s\noptimized %s\ngraph\n%s", p, Optimize(g, p), g)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFilterPushdown(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 50, OptionalPct: 50, Seed: 3})
	p := parser.MustParsePattern(
		`((?p name ?n) AND (?p works_at ?u)) FILTER (?u = university_0 && bound(?n))`)
	opt := Optimize(g, p)
	// The conjuncts must have been pushed inside the AND: the top node
	// is no longer a Filter.
	if _, isFilter := opt.(sparql.Filter); isFilter {
		t.Fatalf("filter not pushed down: %s", opt)
	}
	if !sparql.Eval(g, p).Equal(evalPlan(t, g, p, Options{})) {
		t.Fatal("pushdown changed semantics")
	}
}

func TestFilterNotPushedWhenUnsafe(t *testing.T) {
	// ¬bound over an optional variable must stay at the top: pushing it
	// into the OPT's left side would change semantics.
	g := workload.Figure2G2()
	p := parser.MustParsePattern(
		`((?X was_born_in Chile) OPT (?X email ?Y)) FILTER (!(bound(?Y)))`)
	opt := Optimize(g, p)
	if _, isFilter := opt.(sparql.Filter); !isFilter {
		t.Fatalf("unsafe filter was pushed: %s", opt)
	}
	if !sparql.Eval(g, p).Equal(evalPlan(t, g, p, Options{})) {
		t.Fatal("semantics changed")
	}
}

func TestJoinOrdering(t *testing.T) {
	// The selective triple pattern (?p name Name_3) should be joined
	// before the broad (?p ?r ?x) one.
	g := workload.University(workload.UniversityOpts{People: 100, OptionalPct: 50, Seed: 4})
	p := parser.MustParsePattern(`(?p ?r ?x) AND (?p name Name_3)`)
	opt := Optimize(g, p).(sparql.And)
	if Estimate(g, opt.L) > Estimate(g, opt.R) {
		// With two operands, the chain is L then R; L must be the
		// smaller estimate.
		t.Fatalf("join order not by selectivity: %s", opt)
	}
	if !sparql.Eval(g, p).Equal(evalPlan(t, g, p, Options{})) {
		t.Fatal("reordering changed semantics")
	}
}

func TestEstimate(t *testing.T) {
	g := rdf.FromTriples(
		rdf.T("a", "p", "x"), rdf.T("b", "p", "y"), rdf.T("c", "q", "z"),
	)
	tp := func(s string) sparql.Pattern { return parser.MustParsePattern(s) }
	if got := Estimate(g, tp(`(?s p ?o)`)); got != 2 {
		t.Fatalf("Estimate(?s p ?o) = %v", got)
	}
	if got := Estimate(g, tp(`(?s ?p ?o)`)); got != 3 {
		t.Fatalf("Estimate(?s ?p ?o) = %v", got)
	}
	if got := Estimate(g, tp(`(?s zzz ?o)`)); got != 0 {
		t.Fatalf("Estimate of unmatched predicate = %v", got)
	}
	if got := Estimate(g, tp(`(?s p ?o) UNION (?s q ?o)`)); got != 3 {
		t.Fatalf("Estimate of union = %v", got)
	}
}

func TestCountMatchAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := workload.RandomGraph(rng, 60, nil)
	iris := []rdf.IRI{"a", "b", "c", "p", "q", "zzz"}
	for mask := 0; mask < 8; mask++ {
		for trial := 0; trial < 20; trial++ {
			var s, p, o *rdf.IRI
			if mask&1 != 0 {
				i := iris[rng.Intn(len(iris))]
				s = &i
			}
			if mask&2 != 0 {
				i := iris[rng.Intn(len(iris))]
				p = &i
			}
			if mask&4 != 0 {
				i := iris[rng.Intn(len(iris))]
				o = &i
			}
			n := 0
			g.Match(s, p, o, func(rdf.Triple) bool { n++; return true })
			if got := g.CountMatch(s, p, o); got != n {
				t.Fatalf("CountMatch mask=%b: got %d, want %d", mask, got, n)
			}
		}
	}
}

// evalPlan prepares p under the default planner options and evaluates
// it under o, failing the test on an evaluation error.
func evalPlan(t testing.TB, g rdf.Store, p sparql.Pattern, o Options) *sparql.MappingSet {
	t.Helper()
	ms, err := EvalPrepared(g, Prepare(g, p, PlannerOptions{}), nil, o)
	if err != nil {
		t.Fatalf("eval %s: %v", p, err)
	}
	return ms
}
