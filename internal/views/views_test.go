package views

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func TestNewRejectsNonMonotone(t *testing.T) {
	base := rdf.NewGraph()
	for _, text := range []string{
		"CONSTRUCT {(?x out ?y)} WHERE (?x a ?y) OPT (?x b ?z)",
		"CONSTRUCT {(?x out ?x)} WHERE NS((?x a b))",
		"CONSTRUCT {(?x out ?x)} WHERE SELECT {?x} WHERE (?x a ?y)",
	} {
		q := parser.MustParseConstruct(text)
		if _, err := New(q, base); err == nil {
			t.Errorf("non-AUF view accepted: %s", text)
		}
	}
}

func TestViewBasics(t *testing.T) {
	base := rdf.FromTriples(rdf.T("juan", "born", "chile"))
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p chilean yes)} WHERE (?p born chile)")
	v, err := New(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if v.Graph().Len() != 1 || !v.Graph().Contains("juan", "chilean", "yes") {
		t.Fatalf("initial view:\n%s", v.Graph())
	}
	// Mutating the original base must not affect the view's snapshot.
	base.Add("ana", "born", "chile")
	if v.Base().Len() != 1 {
		t.Fatal("view base not snapshotted")
	}
	// Inserting through the view extends the output.
	if added := mustInsert(t, v, rdf.T("ana", "born", "chile")); added != 1 {
		t.Fatalf("added = %d", added)
	}
	if !v.Graph().Contains("ana", "chilean", "yes") {
		t.Fatal("incremental triple missing")
	}
	// Re-inserting is a no-op.
	if added := mustInsert(t, v, rdf.T("ana", "born", "chile")); added != 0 {
		t.Fatal("duplicate insert produced output")
	}
}

func TestViewJoinAcrossDelta(t *testing.T) {
	// A join whose two sides arrive in separate inserts: the AND delta
	// rule must combine new triples with both old and new ones.
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p works_in ?c)} WHERE (?p works_at ?u) AND (?u located_in ?c)")
	v, err := New(q, rdf.NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, v, rdf.T("ana", "works_at", "puc"))
	if v.Graph().Len() != 0 {
		t.Fatal("half a join produced output")
	}
	mustInsert(t, v, rdf.T("puc", "located_in", "chile"))
	if !v.Graph().Contains("ana", "works_in", "chile") {
		t.Fatalf("join across deltas missed:\n%s", v.Graph())
	}
	// Both sides within one delta.
	mustInsert(t, v, rdf.T("bob", "works_at", "uc"), rdf.T("uc", "located_in", "peru"))
	if !v.Graph().Contains("bob", "works_in", "peru") {
		t.Fatalf("join within one delta missed:\n%s", v.Graph())
	}
}

// TestViewMatchesRecomputeQuick: after any sequence of inserts, the
// incrementally maintained output equals a from-scratch recomputation.
func TestViewMatchesRecomputeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{
			Depth: 3,
			Ops:   []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter},
		})
		vars := sparql.Vars(p)
		tmpl := []sparql.TriplePattern{sparql.TP(sparql.I("s"), sparql.I("p"), sparql.I("o"))}
		if len(vars) > 0 {
			tmpl = append(tmpl, sparql.TP(
				sparql.V(vars[rng.Intn(len(vars))]), sparql.I("out"), sparql.V(vars[rng.Intn(len(vars))])))
		}
		q := sparql.ConstructQuery{Template: tmpl, Where: p}
		v, err := New(q, workload.RandomGraph(rng, rng.Intn(10), nil))
		if err != nil {
			return false
		}
		for round := 0; round < 3; round++ {
			var batch []rdf.Triple
			ext := workload.RandomGraph(rng, 1+rng.Intn(5), nil)
			ext.ForEach(func(tr rdf.Triple) bool { batch = append(batch, tr); return true })
			mustInsert(t, v, batch...)
			want := sparql.EvalConstruct(v.Base(), q)
			if !v.Graph().Equal(want) {
				t.Logf("query %s\nview:\n%s\nrecompute:\n%s", q, v.Graph(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// mustInsert is an ungoverned Insert that fails the test on error.
func mustInsert(t testing.TB, v *View, triples ...rdf.Triple) int {
	t.Helper()
	added, err := v.Insert(nil, nil, triples...)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return added
}
