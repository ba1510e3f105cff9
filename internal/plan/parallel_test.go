package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// forcePar bypasses both parallel gates: four workers regardless of
// GOMAXPROCS, no estimate cutover, and single-row partitions so the
// partitioned operators engage on tiny test inputs.
var forcePar = Options{Parallel: 4, MinParallelEstimate: -1, MinPartition: 1}

// TestEvalOptsParallelMatchesReferenceQuick extends the planner's core
// guarantee to the parallel engine: forced-parallel evaluation returns
// exactly the reference answer set on random patterns × graphs.
func TestEvalOptsParallelMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3})
		g := workload.RandomGraph(rng, rng.Intn(25), nil)
		want := sparql.Eval(g, p)
		got, err := EvalPrepared(g, Prepare(g, p, PlannerOptions{}), nil, forcePar)
		if err != nil {
			t.Logf("pattern %s: parallel eval failed: %v", p, err)
			return false
		}
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

// TestAndComponentsSplit checks the connectivity analysis: an AND
// chain over variable-disjoint groups must come out of the optimizer
// as a balanced tree of per-component subplans (so the parallel
// engine can fan the components out), and still evaluate to the
// reference answers.
func TestAndComponentsSplit(t *testing.T) {
	g := workload.RandomGraph(rand.New(rand.NewSource(5)), 30, nil)
	// Three components: {?x}, {?y, ?z}, {?w}.
	p := parser.MustParsePattern(
		"(?x a b) AND (?y p ?z) AND (?z q ?u) AND (?w r c)")
	opt := Optimize(g, p)
	and, ok := opt.(sparql.And)
	if !ok {
		t.Fatalf("optimized root is %T, want And", opt)
	}
	// A balanced tree over 3 components has a component on one side
	// and a two-component And on the other; a serial left-deep chain
	// over all 4 triples would instead nest And three deep on one side
	// with a bare triple at every right child.  Distinguish by
	// checking that both children of the root contain at least one
	// full component (share no variables with each other).
	if shared := sharedVars(and.L, and.R); len(shared) != 0 {
		t.Fatalf("root children share variables %v — components not split", shared)
	}
	want := sparql.Eval(g, p)
	if got := evalPlan(t, g, p, Options{}); !got.Equal(want) {
		t.Fatalf("component plan diverges\ngot: %v\nwant:%v", got, want)
	}
	if got, err := EvalPrepared(g, Prepare(g, p, PlannerOptions{}), nil, forcePar); err != nil || !got.Equal(want) {
		t.Fatalf("parallel component plan diverges (err=%v)\ngot: %v\nwant:%v", err, got, want)
	}
}

func sharedVars(l, r sparql.Pattern) []sparql.Var {
	lv := map[sparql.Var]bool{}
	for _, v := range sparql.Vars(l) {
		lv[v] = true
	}
	var shared []sparql.Var
	for _, v := range sparql.Vars(r) {
		if lv[v] {
			shared = append(shared, v)
		}
	}
	return shared
}

// TestConnectedChainStaysLeftDeep pins the complementary property: a
// fully connected AND chain must not be split — the greedy order
// produces one left-deep component.
func TestConnectedChainStaysLeftDeep(t *testing.T) {
	g := workload.RandomGraph(rand.New(rand.NewSource(6)), 30, nil)
	p := parser.MustParsePattern(
		"(?x a ?y) AND (?y b ?z) AND (?z c ?w)")
	opt := Optimize(g, p)
	and, ok := opt.(sparql.And)
	if !ok {
		t.Fatalf("optimized root is %T, want And", opt)
	}
	if _, leaf := and.R.(sparql.TriplePattern); !leaf {
		t.Fatalf("connected chain not left-deep: right child is %T", and.R)
	}
	want := sparql.Eval(g, p)
	if got := evalPlan(t, g, p, Options{}); !got.Equal(want) {
		t.Fatalf("left-deep plan diverges\ngot: %v\nwant:%v", got, want)
	}
}
