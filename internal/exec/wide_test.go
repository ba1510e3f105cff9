package exec

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/views"
	"repro/internal/workload"
)

func TestEvalConstructMatchesReference(t *testing.T) {
	g := workload.Figure3()
	q := parser.MustParseConstruct(`CONSTRUCT {(?n affiliated_to ?u), (?n email ?e)}
		WHERE ((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
	res, err := EvalCompiled(g, Compile(g, q.Where, &q, false, plan.PlannerOptions{}), nil, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(sparql.EvalConstruct(g, q)) {
		t.Fatal("planner CONSTRUCT differs from reference")
	}
}

// widePattern is a star over one more variable than the row engine's
// schema holds: (?x p00 ?v00) AND … AND (?x p64 ?v64).
func widePattern() sparql.Pattern {
	var p sparql.Pattern
	for i := 0; i <= sparql.MaxSchemaVars-1; i++ {
		tp := sparql.TP(sparql.V("x"), sparql.I(rdf.IRI(fmt.Sprintf("p%02d", i))), sparql.V(sparql.Var(fmt.Sprintf("v%02d", i))))
		if p == nil {
			p = tp
		} else {
			p = sparql.And{L: p, R: tp}
		}
	}
	return p
}

// wideSubject adds a subject matching every triple of widePattern, with
// alt extra objects on p00 (so the star has 1+alt answers per subject).
func wideSubject(g rdf.Store, s rdf.IRI, alt int) []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i <= sparql.MaxSchemaVars-1; i++ {
		ts = append(ts, rdf.T(s, rdf.IRI(fmt.Sprintf("p%02d", i)), rdf.IRI(fmt.Sprintf("%s_o%02d", s, i))))
	}
	for j := 0; j < alt; j++ {
		ts = append(ts, rdf.T(s, "p00", rdf.IRI(fmt.Sprintf("%s_alt%d", s, j))))
	}
	if g != nil {
		for _, t := range ts {
			g.AddTriple(t)
		}
	}
	return ts
}

// TestWideSchemaMatchesReference pins patterns wider than
// sparql.MaxSchemaVars on every evaluation entry point: SELECT, ASK
// and CONSTRUCT through EvalCompiled, Limit, ConstructContains and a
// view's incremental Insert all agree with the reference evaluator.
func TestWideSchemaMatchesReference(t *testing.T) {
	p := widePattern()
	if got := len(sparql.Vars(p)); got <= sparql.MaxSchemaVars {
		t.Fatalf("pattern has %d variables, want > %d", got, sparql.MaxSchemaVars)
	}
	g := rdf.NewGraph()
	wideSubject(g, "a", 1)
	wideSubject(g, "b", 0)
	g.Add("c", "p00", "c_o00") // a partial star: no answer
	want := sparql.Eval(g, p)
	if want.Len() != 3 {
		t.Fatalf("reference has %d answers, want 3", want.Len())
	}
	po := plan.PlannerOptions{}
	for _, o := range []plan.Options{{Parallel: 1}, {Parallel: 4, MinParallelEstimate: -1, MinPartition: 1}} {
		res, err := EvalCompiled(g, Compile(g, p, nil, false, po), nil, o)
		if err != nil || !res.Rows.Equal(want) {
			t.Fatalf("SELECT %+v: err=%v got %v want %v", o, err, res.Rows, want)
		}
		ns := sparql.NS{P: p}
		res, err = EvalCompiled(g, Compile(g, ns, nil, false, po), nil, o)
		if err != nil || !res.Rows.Equal(sparql.Eval(g, ns)) {
			t.Fatalf("SELECT NS %+v: err=%v", o, err)
		}
		res, err = EvalCompiled(g, Compile(g, p, nil, true, po), nil, o)
		if err != nil || !*res.Bool {
			t.Fatalf("ASK %+v: err=%v, want true", o, err)
		}
		empty := sparql.And{L: p, R: sparql.TP(sparql.V("x"), sparql.I("missing"), sparql.V("v00"))}
		res, err = EvalCompiled(g, Compile(g, empty, nil, true, po), nil, o)
		if err != nil || *res.Bool {
			t.Fatalf("ASK of an empty pattern %+v: err=%v, want false", o, err)
		}
	}

	q := sparql.ConstructQuery{
		Template: []sparql.TriplePattern{
			sparql.TP(sparql.V("x"), sparql.I("first"), sparql.V("v00")),
			sparql.TP(sparql.V("v01"), sparql.I("last"), sparql.V(sparql.Var(fmt.Sprintf("v%02d", sparql.MaxSchemaVars-1)))),
		},
		Where: p,
	}
	wantGraph := sparql.EvalConstruct(g, q)
	res, err := EvalCompiled(g, Compile(g, q.Where, &q, false, po), nil, plan.Options{})
	if err != nil || !res.Graph.Equal(wantGraph) {
		t.Fatalf("CONSTRUCT: err=%v\ngot  %v\nwant %v", err, res.Graph, wantGraph)
	}

	pr := plan.Prepare(g, p, po)
	all, err := Limit(g, pr, -1, nil, plan.Options{})
	if err != nil || !all.Equal(want) {
		t.Fatalf("Limit(-1): err=%v got %v", err, all)
	}
	two, err := Limit(g, pr, 2, nil, plan.Options{})
	if err != nil || two.Len() != 2 {
		t.Fatalf("Limit(2): err=%v got %d answers", err, two.Len())
	}
	for _, mu := range two.Mappings() {
		if !want.Contains(mu) {
			t.Fatalf("Limit(2) returned a non-answer %v", mu)
		}
	}

	wantGraph.ForEach(func(tr rdf.Triple) bool {
		if ok, err := ConstructContains(g, q, tr, nil, plan.Options{}); err != nil || !ok {
			t.Fatalf("ConstructContains(%v) = %v, %v; want true", tr, ok, err)
		}
		return true
	})
	for _, tr := range []rdf.Triple{rdf.T("c", "first", "c_o00"), rdf.T("a", "first", "b_o00")} {
		if ok, err := ConstructContains(g, q, tr, nil, plan.Options{}); err != nil || ok {
			t.Fatalf("ConstructContains(%v) = %v, %v; want false", tr, ok, err)
		}
	}

	v, err := views.New(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Graph().Equal(wantGraph) {
		t.Fatal("wide view materialization differs from the reference")
	}
	inserted := append(wideSubject(nil, "d", 2), rdf.T("c", "p01", "c_o01"))
	added, err := v.Insert(nil, nil, inserted...)
	if err != nil {
		t.Fatal(err)
	}
	after := rdf.CloneStore(g)
	for _, tr := range inserted {
		after.AddTriple(tr)
	}
	wantAfter := sparql.EvalConstruct(after, q)
	if !v.Graph().Equal(wantAfter) {
		t.Fatalf("wide view after insert\ngot  %v\nwant %v", v.Graph(), wantAfter)
	}
	if want := wantAfter.Len() - wantGraph.Len(); added != want {
		t.Fatalf("Insert reported %d new triples, want %d", added, want)
	}
}
