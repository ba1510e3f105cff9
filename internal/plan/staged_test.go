package plan

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// matchCountingStore decorates a Store, counting MatchIDs scans.  The
// counter is atomic because the staged executor's workers probe
// concurrently.
type matchCountingStore struct {
	rdf.Store
	scans atomic.Int64
}

func (c *matchCountingStore) MatchIDs(s, p, o *rdf.ID, fn func(rdf.IDTriple) bool) {
	c.scans.Add(1)
	c.Store.MatchIDs(s, p, o, fn)
}

// findNode returns the first profile node with the given op and detail.
func findNode(p *obs.Profile, op, detail string) *obs.Profile {
	if p == nil {
		return nil
	}
	if p.Op == op && p.Detail == detail {
		return p
	}
	for _, c := range p.Children {
		if n := findNode(c, op, detail); n != nil {
			return n
		}
	}
	return nil
}

// TestStagedMatchesReferenceQuick is the staged executor's core
// differential property: on random AND chains (the shape that arms the
// adaptive driver) over random graphs, forced staged-parallel
// evaluation returns exactly the reference answer set.
func TestStagedMatchesReferenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		g := workload.RandomGraph(rng, 4+rng.Intn(25), nil)
		n := 3 + rng.Intn(4)
		var p sparql.Pattern = workload.RandomTriplePattern(rng, &workload.PatternOpts{})
		for i := 1; i < n; i++ {
			p = sparql.And{L: p, R: workload.RandomTriplePattern(rng, &workload.PatternOpts{})}
		}
		want := sparql.Eval(g, p)
		pr := Prepare(g, p, PlannerOptions{})
		got, err := EvalPrepared(g, pr, nil, forcePar)
		if err != nil {
			t.Fatalf("trial %d %s: staged eval failed: %v", trial, p, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: staged eval diverges on %s\ngot: %v\nwant:%v",
				trial, p, got, want)
		}
	}
}

// TestStagedRouting pins the engine routing: an armed chain under the
// parallel gates runs on the staged executor (an "and" node with
// detail "staged" and a positive stage count appears on the profile),
// a NoReplan plan of the same query runs on the static tree, and the
// serial engine keeps the serial adaptive driver.  All three answer
// identically.
func TestStagedRouting(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	q := parser.MustParsePattern(
		"(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)")
	want := sparql.Eval(s.G, q)
	pr := Prepare(s.G, q, PlannerOptions{})
	if !pr.adaptiveArmed() {
		t.Fatal("test query must arm the adaptive driver")
	}

	run := func(pr Prepared, o Options) (*obs.Profile, *sparql.MappingSet) {
		prof := obs.NewNode("query", "")
		o.Prof = prof
		got, err := EvalPrepared(s.G, pr, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("answer diverges from reference under %+v", o)
		}
		return prof.Snapshot(), got
	}

	staged, _ := run(pr, forcePar)
	node := findNode(staged, "and", "staged")
	if node == nil {
		t.Fatal("parallel adaptive run has no staged chain node on the profile")
	}
	if node.Stages < 1 {
		t.Fatalf("staged node records %d stages, want >=1", node.Stages)
	}

	static, _ := run(Prepare(s.G, q, PlannerOptions{NoReplan: true}), forcePar)
	if findNode(static, "and", "staged") != nil {
		t.Fatal("NoReplan run still produced a staged chain node")
	}

	serial, _ := run(pr, Options{Parallel: 1})
	if findNode(serial, "and", "staged") != nil {
		t.Fatal("serial run produced a staged chain node")
	}
	if findNode(serial, "and", "adaptive") == nil {
		t.Fatal("serial run lost its adaptive chain node")
	}
}

// TestStagedEmptyPrefixShortCircuit pins satellite behaviour: when the
// first stage of a staged chain comes back empty, the remaining
// fan-out is cancelled — no morsels are dispatched for tail operands.
// The scan counter makes the short-circuit observable: a static tree
// over the four-operand chain scans every operand, the short-circuited
// staged run touches at most the first pair.
func TestStagedEmptyPrefixShortCircuit(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	// First operand matches nothing: the DP order puts the 0-cost scan
	// first, and the chain is long enough to stay armed.
	q := parser.MustParsePattern(
		"(?x nosuchpred nosuchvalue) AND (?x knows ?y) AND (?y knows ?z) AND (?z worksAt ?w)")
	pr := Prepare(s.G, q, PlannerOptions{})
	if !pr.adaptiveArmed() {
		t.Fatal("test query must arm the adaptive driver")
	}
	cs := &matchCountingStore{Store: s.G}
	prof := obs.NewNode("query", "")
	o := forcePar
	o.Prof = prof
	got, err := EvalPrepared(cs, pr, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("expected empty answer, got %d rows", got.Len())
	}
	if findNode(prof.Snapshot(), "and", "staged") == nil {
		t.Fatal("empty-prefix query did not run on the staged executor")
	}
	// The empty first operand costs one scan; a merge attempt on the
	// first pair may add a second.  The two tail operands must never be
	// scanned.
	if n := cs.scans.Load(); n > 2 {
		t.Fatalf("%d index scans after an empty first stage, want <=2 (tail fan-out not cancelled)", n)
	}
}

// TestStagedReplanAndBindJoin drives the staged parallel executor into
// both of its runtime decisions on the same setup as the serial
// adaptive test: the collapsed prefix must trigger a re-plan between
// stages, and the tiny observed prefix must flip the next stage to the
// parallel bind join — with the probes surfacing on the profile.
func TestStagedReplanAndBindJoin(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 1000})
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
			if countPair(s.G, s.Person(j), pc, po) {
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
	o := forcePar
	o.Prof = prof
	got, err := EvalPrepared(s.G, pr, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sparql.Eval(s.G, q)) {
		t.Fatal("staged adaptive answer differs from reference")
	}
	snap := prof.Snapshot()
	node := findNode(snap, "and", "staged")
	if node == nil {
		t.Fatal("no staged chain node on the profile")
	}
	if node.Replans < 1 {
		t.Errorf("expected >=1 replan on a collapsed prefix, got %d", node.Replans)
	}
	if node.Stages < 2 {
		t.Errorf("expected >=2 stages on a 5-operand chain, got %d", node.Stages)
	}
	if !hasOp(snap, "bindjoin") {
		t.Error("expected a bindjoin node on the profile (tiny prefix vs large predicate)")
	}
	if n := snap.Sum(func(p *obs.Profile) int64 { return p.BindProbes }); n < 1 {
		t.Errorf("expected >=1 recorded bind probe, got %d", n)
	}
}

// TestStagedDifferential extends the planner differential to forced
// parallel execution: every planner configuration must return the
// reference answers — the adaptive ones on the staged executor, the
// greedy and NoReplan ones on the static parallel tree.
func TestStagedDifferential(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 300})
	rng := rand.New(rand.NewSource(31))
	var queries []sparql.Pattern
	for i := 0; i < 8; i++ {
		queries = append(queries, s.MixedQueries(rng, 1, nil)...)
	}
	queries = append(queries,
		parser.MustParsePattern("(?x0 follows ?x1) AND (?x1 mentors ?x2) AND (?x2 worksAt org_3)"),
		parser.MustParsePattern("(?x livesIn city_1) AND (?x worksAt org_0) AND (?x knows ?y) AND (?y name ?n)"))
	for qi, q := range queries {
		want := sparql.Eval(s.G, q)
		for _, cfg := range plannerConfigs {
			pr := Prepare(s.G, q, cfg.po)
			if (cfg.po.Greedy || cfg.po.NoReplan) && pr.adaptiveArmed() {
				t.Fatalf("q%d under %s armed the chain driver; the static tree is not reached", qi, cfg.name)
			}
			got, err := EvalPrepared(s.G, pr, nil, forcePar)
			if err != nil {
				t.Fatalf("q%d %s under %s: %v", qi, q, cfg.name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("q%d %s under %s: %d rows, reference %d",
					qi, q, cfg.name, got.Len(), want.Len())
			}
		}
	}
}
