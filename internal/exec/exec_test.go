package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

type rdfTriple = rdf.Triple

var rdfT = rdf.T

// askOf runs an ASK of p through the compiled path.
func askOf(g rdf.Store, p sparql.Pattern, b *sparql.Budget) (bool, error) {
	res, err := EvalCompiled(g, Compile(g, p, nil, true, plan.PlannerOptions{}), b, plan.Options{})
	if err != nil {
		return false, err
	}
	return *res.Bool, nil
}

// limitOf runs Limit on p prepared under the default planner options.
func limitOf(g rdf.Store, p sparql.Pattern, k int, b *sparql.Budget) (*sparql.MappingSet, error) {
	return Limit(g, plan.Prepare(g, p, plan.PlannerOptions{}), k, b, plan.Options{})
}

func mustAsk(t testing.TB, g rdf.Store, p sparql.Pattern) bool {
	t.Helper()
	ok, err := askOf(g, p, nil)
	if err != nil {
		t.Fatalf("ask %s: %v", p, err)
	}
	return ok
}

func mustLimit(t testing.TB, g rdf.Store, p sparql.Pattern, k int) *sparql.MappingSet {
	t.Helper()
	ms, err := limitOf(g, p, k, nil)
	if err != nil {
		t.Fatalf("limit %s: %v", p, err)
	}
	return ms
}

func mustContains(t testing.TB, g rdf.Store, q sparql.ConstructQuery, target rdf.Triple) bool {
	t.Helper()
	ok, err := ConstructContains(g, q, target, nil, plan.Options{})
	if err != nil {
		t.Fatalf("construct-contains %s: %v", q, err)
	}
	return ok
}

// TestLimitAllMatchesEvalQuick: Limit with k < 0 enumerates exactly the
// reference answer set, on random full NS-SPARQL patterns.
func TestLimitAllMatchesEvalQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(20), nil)
		want := sparql.Eval(g, p)
		got := mustLimit(t, g, p, -1)
		if !got.Equal(want) {
			t.Logf("pattern %s\ngraph\n%s\nwant %v\ngot  %v", p, g, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAskMatchesEvalQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(20), nil)
		return mustAsk(t, g, p) == (sparql.Eval(g, p).Len() > 0)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLimitCounts(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 100, OptionalPct: 50, Seed: 1})
	p := parser.MustParsePattern(`(?p name ?n) AND (?p works_at ?u)`)
	total := sparql.Eval(g, p).Len()
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	for _, k := range []int{0, 1, 7, 100, 1000} {
		want := k
		if k > total {
			want = total
		}
		got := mustLimit(t, g, p, k)
		if got.Len() != want {
			t.Errorf("Limit(%d).Len() = %d, want %d", k, got.Len(), want)
		}
		// Every returned mapping must be a genuine answer.
		full := sparql.Eval(g, p)
		for _, mu := range got.Mappings() {
			if !full.Contains(mu) {
				t.Errorf("Limit returned a non-answer %s", mu)
			}
		}
	}
}

func TestLimitDistinctUnderSelect(t *testing.T) {
	// SELECT projections collapse; the limit must count distinct
	// projected mappings, not underlying solutions.
	g := workload.University(workload.UniversityOpts{People: 50, OptionalPct: 100, Seed: 2})
	// Every person works at university_0 or _1; the projection has at
	// most a couple of distinct answers.
	p := parser.MustParsePattern(`SELECT {?u} WHERE (?p works_at ?u)`)
	total := sparql.Eval(g, p).Len()
	got := mustLimit(t, g, p, total+5)
	if got.Len() != total {
		t.Fatalf("Limit over-counted projections: %d vs %d", got.Len(), total)
	}
}

func TestAskEarlyOnHugeGraph(t *testing.T) {
	// Ask on a selective pattern over a large graph must find the single
	// witness; correctness check (the speed is measured in E23).
	g := workload.University(workload.UniversityOpts{People: 3000, OptionalPct: 50, Seed: 3})
	p := parser.MustParsePattern(`(?p name Name_1234) AND (?p works_at ?u)`)
	if !mustAsk(t, g, p) {
		t.Fatal("existing witness not found")
	}
	q := parser.MustParsePattern(`(?p name Name_1234) AND (?p works_at nowhere)`)
	if mustAsk(t, g, q) {
		t.Fatal("nonexistent witness found")
	}
}

func TestAskWithOptAndNS(t *testing.T) {
	g := workload.Figure2G2()
	p := parser.MustParsePattern(`(?X was_born_in Chile) OPT (?X email ?Y)`)
	if !mustAsk(t, g, p) {
		t.Fatal("OPT pattern with answers reported empty")
	}
	ns := parser.MustParsePattern(`NS((?X was_born_in Peru))`)
	if mustAsk(t, g, ns) {
		t.Fatal("empty NS pattern reported non-empty")
	}
}

func TestConstructContainsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		vars := sparql.Vars(p)
		tmpl := []sparql.TriplePattern{sparql.TP(sparql.I("s"), sparql.I("p"), sparql.I("o"))}
		if len(vars) > 0 {
			tmpl = append(tmpl, sparql.TP(
				sparql.V(vars[rng.Intn(len(vars))]), sparql.I("rel"), sparql.V(vars[rng.Intn(len(vars))])))
		}
		q := sparql.ConstructQuery{Template: tmpl, Where: p}
		g := workload.RandomGraph(rng, rng.Intn(20), nil)
		full := sparql.EvalConstruct(g, q)
		// Every produced triple is found...
		ok := true
		full.ForEach(func(tr rdfTriple) bool {
			if !mustContains(t, g, q, tr) {
				t.Logf("produced triple %v not found for %s", tr, q)
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
		// ...and random probes agree with the full output.
		iris := append(workload.DefaultIRIs, "rel", "s", "p", "o")
		for i := 0; i < 10; i++ {
			probe := rdfT(iris[rng.Intn(len(iris))], iris[rng.Intn(len(iris))], iris[rng.Intn(len(iris))])
			if mustContains(t, g, q, probe) != full.ContainsTriple(probe) {
				t.Logf("probe %v disagrees for %s", probe, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
