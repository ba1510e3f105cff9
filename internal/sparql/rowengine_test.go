package sparql_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// randomMapping draws a partial mapping over the variable and IRI
// pools, possibly empty.
func randomMapping(rng *rand.Rand, vars []sparql.Var, iris []rdf.IRI) sparql.Mapping {
	mu := sparql.Mapping{}
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			mu[v] = iris[rng.Intn(len(iris))]
		}
	}
	return mu
}

// TestRowRoundTripQuick checks Mapping → Row → Mapping is the identity,
// including mappings with unbound slots and the empty mapping.
func TestRowRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vars := []sparql.Var{"A", "B", "C", "D", "E"}
	sc, ok := sparql.NewVarSchema(vars)
	if !ok {
		t.Fatal("schema rejected")
	}
	c := sparql.Codec{Schema: sc, Dict: rdf.NewDict()}
	for trial := 0; trial < 500; trial++ {
		mu := randomMapping(rng, vars, workload.DefaultIRIs)
		r, ok := c.Encode(mu)
		if !ok {
			t.Fatalf("Encode failed for %v", mu)
		}
		if got := c.Decode(r); !got.Equal(mu) {
			t.Fatalf("round trip: %v -> %v", mu, got)
		}
		// The mask must mirror the domain exactly.
		var want int
		for range mu {
			want++
		}
		if got := r.Mask; popcount64(got) != want {
			t.Fatalf("mask %b has %d bits, dom size %d", got, popcount64(got), want)
		}
	}
	// A variable outside the schema must be rejected, not dropped.
	if _, ok := c.Encode(sparql.Mapping{"Z": "a"}); ok {
		t.Fatal("Encode accepted out-of-schema variable")
	}
}

func popcount64(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// TestRowMaximalAgreesWithStringQuick checks that the mask-bucketed row
// Maximal agrees with both string NS algorithms (naive pairwise and
// domain-bucketed) on random mapping sets with heterogeneous domains.
func TestRowMaximalAgreesWithStringQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []sparql.Var{"A", "B", "C", "D"}
	sc, _ := sparql.NewVarSchema(vars)
	for trial := 0; trial < 300; trial++ {
		ms := sparql.NewMappingSet()
		for i, n := 0, rng.Intn(40); i < n; i++ {
			ms.Add(randomMapping(rng, vars, workload.DefaultIRIs))
		}
		c := sparql.Codec{Schema: sc, Dict: rdf.NewDict()}
		rs, ok := sparql.EncodeMappingSet(ms, c)
		if !ok {
			t.Fatal("encode failed")
		}
		want := ms.MaximalNaive()
		if got := rs.Maximal().MappingSet(c.Dict); !got.Equal(want) {
			t.Fatalf("row Maximal != string MaximalNaive\nin:  %v\ngot: %v\nwant:%v", ms, got, want)
		}
		if got := rs.MaximalNaive().MappingSet(c.Dict); !got.Equal(want) {
			t.Fatalf("row MaximalNaive != string MaximalNaive on %v", ms)
		}
		if got := ms.MaximalBucketed(); !got.Equal(want) {
			t.Fatalf("string MaximalBucketed != MaximalNaive on %v", ms)
		}
	}
}

// TestRowAlgebraAgreesWithStringQuick checks each RowSet operator
// against its MappingSet counterpart on random operand sets.
func TestRowAlgebraAgreesWithStringQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vars := []sparql.Var{"A", "B", "C", "D"}
	sc, _ := sparql.NewVarSchema(vars)
	randSet := func(d *rdf.Dict) (*sparql.MappingSet, *sparql.RowSet) {
		ms := sparql.NewMappingSet()
		for i, n := 0, rng.Intn(25); i < n; i++ {
			ms.Add(randomMapping(rng, vars, workload.DefaultIRIs))
		}
		rs, ok := sparql.EncodeMappingSet(ms, sparql.Codec{Schema: sc, Dict: d})
		if !ok {
			t.Fatal("encode failed")
		}
		return ms, rs
	}
	for trial := 0; trial < 200; trial++ {
		d := rdf.NewDict()
		m1, r1 := randSet(d)
		m2, r2 := randSet(d)
		check := func(op string, got *sparql.RowSet, want *sparql.MappingSet) {
			t.Helper()
			if g := got.MappingSet(d); !g.Equal(want) {
				t.Fatalf("%s diverges\nΩ1: %v\nΩ2: %v\ngot: %v\nwant:%v", op, m1, m2, g, want)
			}
		}
		check("Join", r1.Join(r2), m1.Join(m2))
		check("Union", r1.Union(r2), m1.Union(m2))
		check("Diff", r1.Diff(r2), m1.Diff(m2))
		check("LeftJoin", r1.LeftJoin(r2), m1.LeftJoin(m2))
		proj := []sparql.Var{"A", "C"}
		check("Project", r1.Project(sc.SlotMask(proj)), m1.Project(proj))
		cond := workload.RandomCondition(rng, 2, &workload.PatternOpts{Vars: vars})
		check("Filter", r1.Filter(sparql.CompileCond(cond, sc, d)),
			m1.Filter(cond))
	}
}

// fragmentCases enumerates the operator fragments exercised by the
// differential test: AF and AUFS (weakly monotone algebra), SP and USP
// (NS-normal forms), plus the full language.
func fragmentCases() []struct {
	name string
	ops  []sparql.Op
	ns   string // "", "wrap" (NS at the root → SP-style), "free" (NS anywhere)
} {
	return []struct {
		name string
		ops  []sparql.Op
		ns   string
	}{
		{"AF", []sparql.Op{sparql.OpAnd, sparql.OpFilter}, ""},
		{"AUFS", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter, sparql.OpSelect}, ""},
		{"SP", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter, sparql.OpSelect}, "wrap"},
		{"USP", []sparql.Op{sparql.OpAnd, sparql.OpFilter, sparql.OpSelect}, "union"},
		{"full", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}, "free"},
	}
}

// TestEvalRowsAgreesWithEvalQuick is the differential property test of
// the tentpole: on random patterns × random graphs, the row engine and
// the string reference evaluator produce the same answer set, per
// fragment.
func TestEvalRowsAgreesWithEvalQuick(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			for trial := 0; trial < 150; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(30), nil)
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
				switch fc.ns {
				case "wrap": // SP: a single subsumption-maximal block
					p = sparql.NS{P: p}
				case "union": // USP: union of NS blocks
					q := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: fc.ops})
					p = sparql.Union{L: sparql.NS{P: p}, R: sparql.NS{P: q}}
				}
				want := sparql.Eval(g, p)
				got := evalRows(t, g, p, sparql.ParOptions{})
				if !got.Equal(want) {
					t.Fatalf("trial %d: row engine diverges on\n%s\ngot: %v\nwant:%v",
						trial, p, got, want)
				}
			}
		})
	}
}

// TestSearcherAgreesWithEvalQuick checks the streaming backtracking
// searcher against the reference evaluator: collecting every emitted
// row (deduplicated) must equal Eval up to multiplicity.
func TestSearcherAgreesWithEvalQuick(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4321))
			for trial := 0; trial < 100; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(25), nil)
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
				if fc.ns == "wrap" {
					p = sparql.NS{P: p}
				}
				sc, ok := sparql.SchemaFor(p)
				if !ok {
					t.Fatal("schema rejected small pattern")
				}
				s := sparql.NewSearcher(g, sc)
				got := sparql.NewRowSet(sc)
				s.Iterate(p, 0, func(m uint64) bool {
					got.Add(s.IDs(), m)
					return true
				})
				want := sparql.Eval(g, p)
				if gs := got.MappingSet(g.Dict()); !gs.Equal(want) {
					t.Fatalf("trial %d: searcher diverges on\n%s\ngot: %v\nwant:%v",
						trial, p, gs, want)
				}
			}
		})
	}
}

// TestSearcherSeededCompatible checks that seeding the searcher with an
// environment row streams exactly the Eval answers compatible with it.
func TestSearcherSeededCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter}
	for trial := 0; trial < 150; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(25), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
		sc, _ := sparql.SchemaFor(p)
		env := sparql.Mapping{}
		for _, v := range sc.Vars() {
			if rng.Intn(3) == 0 {
				env[v] = workload.DefaultIRIs[rng.Intn(len(workload.DefaultIRIs))]
			}
		}
		c := sparql.Codec{Schema: sc, Dict: g.Dict()}
		row, ok := c.EncodeLookup(env)
		if !ok {
			continue // an env IRI is absent from the graph dictionary
		}
		s := sparql.NewSearcher(g, sc)
		s.Seed(row)
		got := sparql.NewRowSet(sc)
		s.Iterate(p, row.Mask, func(m uint64) bool {
			got.Add(s.IDs(), m)
			return true
		})
		want := sparql.NewMappingSet()
		for _, mu := range sparql.Eval(g, p).Mappings() {
			if mu.CompatibleWith(env) {
				want.Add(mu)
			}
		}
		if gs := got.MappingSet(g.Dict()); !gs.Equal(want) {
			t.Fatalf("trial %d: seeded searcher diverges on\n%s\nenv: %v\ngot: %v\nwant:%v",
				trial, p, env, gs, want)
		}
	}
}

// TestRepeatedVarTriple is the regression test for triple patterns with
// repeated variables, e.g. (?X, p, ?X): both engines must bind the
// variable once and require the two positions to agree.
func TestRepeatedVarTriple(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "p", "a")
	g.Add("a", "p", "b")
	g.Add("b", "p", "b")
	g.Add("c", "q", "c")

	cases := []struct {
		name string
		p    sparql.Pattern
		want *sparql.MappingSet
	}{
		{
			"subject-object (?X p ?X)",
			sparql.TP(sparql.V("X"), sparql.I("p"), sparql.V("X")),
			sparql.NewMappingSet(
				sparql.Mapping{"X": "a"},
				sparql.Mapping{"X": "b"},
			),
		},
		{
			"all three (?X ?X ?X)",
			sparql.TP(sparql.V("X"), sparql.V("X"), sparql.V("X")),
			sparql.NewMappingSet(),
		},
		{
			"subject-predicate with constant object (?X ?X b)",
			sparql.TP(sparql.V("X"), sparql.V("X"), sparql.I("b")),
			sparql.NewMappingSet(),
		},
		{
			"repeated under join",
			sparql.And{
				L: sparql.TP(sparql.V("X"), sparql.I("p"), sparql.V("X")),
				R: sparql.TP(sparql.V("X"), sparql.I("p"), sparql.V("Y")),
			},
			sparql.NewMappingSet(
				sparql.Mapping{"X": "a", "Y": "a"},
				sparql.Mapping{"X": "a", "Y": "b"},
				sparql.Mapping{"X": "b", "Y": "b"},
			),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sparql.Eval(g, tc.p); !got.Equal(tc.want) {
				t.Errorf("string engine: got %v want %v", got, tc.want)
			}
			if got := evalRows(t, g, tc.p, sparql.ParOptions{}); !got.Equal(tc.want) {
				t.Errorf("row engine: got %v want %v", got, tc.want)
			}
			sc, _ := sparql.SchemaFor(tc.p)
			s := sparql.NewSearcher(g, sc)
			rs := sparql.NewRowSet(sc)
			s.Iterate(tc.p, 0, func(m uint64) bool {
				rs.Add(s.IDs(), m)
				return true
			})
			if got := rs.MappingSet(g.Dict()); !got.Equal(tc.want) {
				t.Errorf("searcher: got %v want %v", got, tc.want)
			}
		})
	}
}

// evalRows runs the row engine and decodes its answers, failing the
// test on any error.
func evalRows(t testing.TB, g rdf.Store, p sparql.Pattern, o sparql.ParOptions) *sparql.MappingSet {
	t.Helper()
	rs, err := sparql.EvalRows(g, p, nil, o)
	if err != nil {
		t.Fatalf("row engine failed on %s: %v", p, err)
	}
	return rs.MappingSet(g.Dict())
}

// TestSchemaWidthLimit checks that the row engine refuses patterns
// wider than MaxSchemaVars with its typed error (the planned evaluator
// routes them to the reference evaluator; see internal/exec's
// TestWideSchemaMatchesReference).
func TestSchemaWidthLimit(t *testing.T) {
	wide := make([]sparql.Var, sparql.MaxSchemaVars+1)
	for i := range wide {
		wide[i] = sparql.Var(fmt.Sprintf("V%02d", i))
	}
	if _, ok := sparql.NewVarSchema(wide); ok {
		t.Fatalf("schema accepted %d variables", len(wide))
	}
	// Build a chain pattern with 65 variables; EvalRows must refuse it.
	g := rdf.NewGraph()
	g.Add("a", "p", "a")
	var p sparql.Pattern = sparql.TP(sparql.V(wide[0]), sparql.I("p"), sparql.V(wide[0]))
	for _, v := range wide[1:] {
		p = sparql.And{L: p, R: sparql.TP(sparql.V(v), sparql.I("p"), sparql.V(v))}
	}
	if _, err := sparql.EvalRows(g, p, nil, sparql.ParOptions{}); !errors.Is(err, sparql.ErrSchemaTooWide) {
		t.Fatalf("EvalRows on a pattern wider than MaxSchemaVars: err = %v, want ErrSchemaTooWide", err)
	}
}
