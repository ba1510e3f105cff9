package parser

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestParseTriplePattern(t *testing.T) {
	p := MustParsePattern("(?x founder ?y)")
	want := sparql.TP(sparql.V("x"), sparql.I("founder"), sparql.V("y"))
	if !sparql.Equal(p, want) {
		t.Fatalf("got %s", p)
	}
	p = MustParsePattern("(<a b> <c> d)")
	want = sparql.TP(sparql.I("a b"), sparql.I("c"), sparql.I("d"))
	if !sparql.Equal(p, want) {
		t.Fatalf("got %s", p)
	}
}

// TestParseNonASCIIWords: bare words are split on Unicode spaces only,
// never inside a multi-byte character ("à" ends in the byte 0xA0, "Å"
// in 0x85, the encodings of U+00A0 and U+0085 as single bytes).
func TestParseNonASCIIWords(t *testing.T) {
	p := MustParsePattern("(?à p\u00a0Å)")
	want := sparql.TP(sparql.V("à"), sparql.I("p"), sparql.I("Å"))
	if !sparql.Equal(p, want) {
		t.Fatalf("got %s, want %s", p, want)
	}
}

func TestParseBinaryOperatorsAndPrecedence(t *testing.T) {
	// AND binds tighter than OPT, which binds tighter than UNION.
	p := MustParsePattern("(?a p ?b) AND (?b q ?c) OPT (?c r ?d) UNION (?e s ?f)")
	want := sparql.Union{
		L: sparql.Opt{
			L: sparql.And{
				L: sparql.TP(sparql.V("a"), sparql.I("p"), sparql.V("b")),
				R: sparql.TP(sparql.V("b"), sparql.I("q"), sparql.V("c")),
			},
			R: sparql.TP(sparql.V("c"), sparql.I("r"), sparql.V("d")),
		},
		R: sparql.TP(sparql.V("e"), sparql.I("s"), sparql.V("f")),
	}
	if !sparql.Equal(p, want) {
		t.Fatalf("got %s\nwant %s", p, want)
	}
	// Parentheses override precedence; OPTIONAL is a synonym for OPT.
	p = MustParsePattern("(?a p ?b) OPTIONAL ((?b q ?c) UNION (?c r ?d))")
	if _, ok := p.(sparql.Opt); !ok {
		t.Fatalf("got %T", p)
	}
}

func TestParseLeftAssociativity(t *testing.T) {
	p := MustParsePattern("(?a p ?b) AND (?b q ?c) AND (?c r ?d)")
	and, ok := p.(sparql.And)
	if !ok {
		t.Fatalf("got %T", p)
	}
	if _, ok := and.L.(sparql.And); !ok {
		t.Fatalf("AND is not left-associative: %s", p)
	}
}

func TestParseSelect(t *testing.T) {
	p := MustParsePattern("SELECT {?p} WHERE (?p founder ?o)")
	sel, ok := p.(sparql.Select)
	if !ok || len(sel.Vars) != 1 || sel.Vars[0] != "p" {
		t.Fatalf("got %s", p)
	}
	// Bare variable list, multiple variables, nested select.
	p = MustParsePattern("SELECT ?x ?y WHERE (SELECT {?x, ?y, ?z} WHERE (?x a ?y) AND (?y b ?z))")
	outer, ok := p.(sparql.Select)
	if !ok || len(outer.Vars) != 2 {
		t.Fatalf("got %s", p)
	}
	if _, ok := outer.P.(sparql.Select); !ok {
		t.Fatalf("inner select lost: %s", p)
	}
}

func TestParseNS(t *testing.T) {
	p := MustParsePattern("NS((?x a b) UNION ((?x a b) AND (?x c ?y)))")
	ns, ok := p.(sparql.NS)
	if !ok {
		t.Fatalf("got %T", p)
	}
	if !sparql.IsSimple(ns) {
		t.Fatalf("expected a simple pattern, got %s", p)
	}
}

func TestParseFilter(t *testing.T) {
	p := MustParsePattern("(?x works_at ?w) FILTER (?w = PUC_Chile && (bound(?x) || ?x != ?w))")
	f, ok := p.(sparql.Filter)
	if !ok {
		t.Fatalf("got %T", p)
	}
	and, ok := f.Cond.(sparql.AndCond)
	if !ok {
		t.Fatalf("cond = %s", f.Cond)
	}
	if _, ok := and.L.(sparql.EqConst); !ok {
		t.Fatalf("lhs = %T", and.L)
	}
	or, ok := and.R.(sparql.OrCond)
	if !ok {
		t.Fatalf("rhs = %T", and.R)
	}
	if _, ok := or.R.(sparql.Not); !ok {
		t.Fatalf("!= did not desugar to Not: %s", or.R)
	}
}

func TestParseFilterConstantFolding(t *testing.T) {
	p := MustParsePattern("(?x a ?y) FILTER (c = c && TRUE)")
	f := p.(sparql.Filter)
	and := f.Cond.(sparql.AndCond)
	if _, ok := and.L.(sparql.TrueCond); !ok {
		t.Fatalf("constant equality did not fold: %s", f.Cond)
	}
	p = MustParsePattern("(?x a ?y) FILTER (c = d)")
	if _, ok := p.(sparql.Filter).Cond.(sparql.FalseCond); !ok {
		t.Fatalf("unequal constants did not fold: %s", p)
	}
	// Reversed constant-variable equality normalizes to EqConst.
	p = MustParsePattern("(?x a ?y) FILTER (c = ?x)")
	if eq, ok := p.(sparql.Filter).Cond.(sparql.EqConst); !ok || eq.X != "x" || eq.C != "c" {
		t.Fatalf("got %s", p)
	}
}

func TestParseMinusSugar(t *testing.T) {
	p := MustParsePattern("(?x a ?y) MINUS (?x b ?z)")
	// MINUS desugars per Appendix D to (P1 OPT (P2 AND (?m ?m ?m))) FILTER !bound(?m).
	f, ok := p.(sparql.Filter)
	if !ok {
		t.Fatalf("got %T: %s", p, p)
	}
	if _, ok := f.Cond.(sparql.Not); !ok {
		t.Fatalf("cond = %s", f.Cond)
	}
	opt, ok := f.P.(sparql.Opt)
	if !ok {
		t.Fatalf("body = %s", f.P)
	}
	if _, ok := opt.R.(sparql.And); !ok {
		t.Fatalf("opt right = %s", opt.R)
	}
	// Semantics check: MINUS removes compatible mappings.
	g := rdf.FromTriples(rdf.T("1", "a", "2"), rdf.T("1", "b", "3"), rdf.T("4", "a", "5"))
	r := sparql.Eval(g, p)
	if r.Len() != 1 || !r.Contains(sparql.M("x", "4", "y", "5")) {
		t.Fatalf("MINUS eval = %v", r)
	}
}

func TestParseConstruct(t *testing.T) {
	q := MustParseConstruct(`CONSTRUCT {(?n affiliated_to ?u), (?n email ?e)}
		WHERE ((?p name ?n) AND (?p works_at ?u)) OPT (?p email ?e)`)
	if len(q.Template) != 2 {
		t.Fatalf("template = %v", q.Template)
	}
	if _, ok := q.Where.(sparql.Opt); !ok {
		t.Fatalf("where = %s", q.Where)
	}
	// Empty template is allowed.
	q = MustParseConstruct("CONSTRUCT {} WHERE (?x a ?y)")
	if len(q.Template) != 0 {
		t.Fatalf("template = %v", q.Template)
	}
}

func TestParseQueryDispatch(t *testing.T) {
	q, err := ParseQuery("CONSTRUCT {(?x a ?y)} WHERE (?x b ?y)")
	if err != nil || q.Construct == nil || q.Pattern != nil {
		t.Fatalf("q = %+v, err = %v", q, err)
	}
	q, err = ParseQuery("(?x b ?y)")
	if err != nil || q.Pattern == nil || q.Construct != nil {
		t.Fatalf("q = %+v, err = %v", q, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(?x a)",
		"(?x a b c)",
		"(?x a ?y) AND",
		"SELECT WHERE (?x a ?y)",
		"SELECT {?x WHERE (?x a ?y)",
		"NS (?x a ?y",
		"(?x a ?y) FILTER (?x)",
		"(?x a ?y) FILTER (bound(x))",
		"(?x a ?y) FILTER (?x = )",
		"(?x a ?y) extra",
		"(?x a ?y) FILTER (?x & ?y)",
		"(?x a ?y) FILTER (?x | ?y)",
		"(? a b)",
		"(<unterminated a b)",
		"CONSTRUCT {(?x a ?y) WHERE (?x a ?y)",
		"CONSTRUCT {(?x a ?y)} (?x a ?y)",
	}
	for _, s := range bad {
		if _, err := ParseQuery(s); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", s)
		}
	}
}

func TestParseComments(t *testing.T) {
	p := MustParsePattern("(?x a ?y) # trailing comment\n AND (?y b ?z)")
	if _, ok := p.(sparql.And); !ok {
		t.Fatalf("got %s", p)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	queries := []string{
		"(?o stands_for sharing_rights) AND ((?p founder ?o) UNION (?p supporter ?o))",
		"SELECT {?p} WHERE ((?p founder ?o) OPT (?p email ?e))",
		"NS((?x was_born_in Chile) UNION ((?x was_born_in Chile) AND (?x email ?y)))",
		"((?x a b) FILTER (bound(?x) && !(?x = c))) UNION (SELECT {?x} WHERE (?x d ?y))",
		"(?x <iri with space> ?y) FILTER (?x = <AND>)",
	}
	for _, s := range queries {
		p1 := MustParsePattern(s)
		p2, err := ParsePattern(p1.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", p1.String(), err)
		}
		if !sparql.Equal(p1, p2) {
			t.Fatalf("round trip changed pattern:\n%s\nvs\n%s", p1, p2)
		}
	}
}

// randomPattern builds a random pattern for the round-trip property test.
func randomPattern(rng *rand.Rand, depth int) sparql.Pattern {
	if depth == 0 || rng.Intn(3) == 0 {
		vals := make([]sparql.Value, 3)
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = sparql.V(sparql.Var(rune('A' + rng.Intn(4))))
			} else {
				vals[i] = sparql.I(rdf.IRI(rune('a' + rng.Intn(4))))
			}
		}
		return sparql.TP(vals[0], vals[1], vals[2])
	}
	switch rng.Intn(6) {
	case 0:
		return sparql.And{L: randomPattern(rng, depth-1), R: randomPattern(rng, depth-1)}
	case 1:
		return sparql.Union{L: randomPattern(rng, depth-1), R: randomPattern(rng, depth-1)}
	case 2:
		return sparql.Opt{L: randomPattern(rng, depth-1), R: randomPattern(rng, depth-1)}
	case 3:
		return sparql.Filter{P: randomPattern(rng, depth-1), Cond: randomCond(rng, 2)}
	case 4:
		return sparql.NewSelect([]sparql.Var{sparql.Var(rune('A' + rng.Intn(4)))}, randomPattern(rng, depth-1))
	default:
		return sparql.NS{P: randomPattern(rng, depth-1)}
	}
}

func randomCond(rng *rand.Rand, depth int) sparql.Condition {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return sparql.Bound{X: sparql.Var(rune('A' + rng.Intn(4)))}
		case 1:
			return sparql.EqConst{X: sparql.Var(rune('A' + rng.Intn(4))), C: rdf.IRI(rune('a' + rng.Intn(4)))}
		default:
			return sparql.EqVars{X: sparql.Var(rune('A' + rng.Intn(4))), Y: sparql.Var(rune('A' + rng.Intn(4)))}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return sparql.Not{R: randomCond(rng, depth-1)}
	case 1:
		return sparql.AndCond{L: randomCond(rng, depth-1), R: randomCond(rng, depth-1)}
	default:
		return sparql.OrCond{L: randomCond(rng, depth-1), R: randomCond(rng, depth-1)}
	}
}

func TestPrintParseRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(rng, 3)
		q, err := ParsePattern(p.String())
		if err != nil {
			t.Logf("parse of %q failed: %v", p.String(), err)
			return false
		}
		return sparql.Equal(p, q)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConstructPrintParseRoundTrip(t *testing.T) {
	q1 := MustParseConstruct("CONSTRUCT {(?n affiliated_to ?u)} WHERE (?p name ?n) AND (?p works_at ?u)")
	q2, err := ParseConstruct(q1.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v (text %q)", err, q1.String())
	}
	if !sparql.Equal(q1.Where, q2.Where) || len(q1.Template) != len(q2.Template) {
		t.Fatalf("round trip changed query: %s vs %s", q1, q2)
	}
}

func TestParseGroundTriple(t *testing.T) {
	tr, err := ParseGroundTriple("(a b c)")
	if err != nil || tr != rdf.T("a", "b", "c") {
		t.Fatalf("tr = %v, err = %v", tr, err)
	}
	if _, err := ParseGroundTriple("(?x b c)"); err == nil {
		t.Fatal("ground parse with variable succeeded")
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	p := MustParsePattern("select {?x} where (?x a ?y) and (?y b ?z)")
	if _, ok := p.(sparql.Select); !ok {
		t.Fatalf("got %s", p)
	}
	if !strings.Contains(p.String(), "AND") {
		t.Fatalf("printer did not normalize keywords: %s", p)
	}
}
