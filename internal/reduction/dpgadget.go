package reduction

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sat"
	"repro/internal/sparql"
)

// DPGadget is the Theorem 7.1 reduction from SAT-UNSAT to the
// evaluation problem for simple patterns: a graph G, a *simple* pattern
// P = NS(P_φ UNION (P_φ AND P_ψ)) and a mapping µ such that
//
//	µ ∈ ⟦P⟧_G  iff  φ is satisfiable and ψ is unsatisfiable.
//
// The two SAT gadgets use disjoint namespaces, so Lemma G.2 ensures
// they evaluate independently over the union graph; when ψ is
// satisfiable, every P_φ answer is properly subsumed by a joint answer
// and the NS removes it.
type DPGadget struct {
	Graph   *rdf.Graph
	Pattern sparql.Pattern
	Mapping sparql.Mapping
}

// NewDPGadget builds the reduction for the pair (φ, ψ).
func NewDPGadget(phi, psi *sat.CNF) DPGadget {
	gPhi := NewSATGadget(phi, "f")
	gPsi := NewSATGadget(psi, "g")
	pattern := sparql.NS{P: sparql.Union{
		L: gPhi.Pattern,
		R: sparql.And{L: gPhi.Pattern, R: gPsi.Pattern},
	}}
	return DPGadget{
		Graph:   gPhi.Graph.Union(gPsi.Graph),
		Pattern: pattern,
		Mapping: gPhi.Mapping,
	}
}

// Holds reports µ ∈ ⟦P⟧_G, deciding (φ, ψ) ∈ SAT-UNSAT.
func (d DPGadget) Holds() bool {
	return sparql.Eval(d.Graph, d.Pattern).Contains(d.Mapping)
}

// ConstructGadget is the Theorem 7.4 reduction from SAT to the
// evaluation problem for CONSTRUCT[AUF]: a graph G, a CONSTRUCT query Q
// with an AUF pattern, and a triple t with t ∈ ans(Q, G) iff φ is
// satisfiable.
type ConstructGadget struct {
	Graph  *rdf.Graph
	Query  sparql.ConstructQuery
	Triple rdf.Triple
}

// NewConstructGadget builds the reduction.  The pattern is the SAT
// gadget body *without* the SELECT (CONSTRUCT[AUF] admits no
// projection); the template mentions only the always-bound witness
// variable, so the satisfying-assignment bindings are irrelevant to
// the output triple.
func NewConstructGadget(phi *sat.CNF) ConstructGadget {
	g := NewSATGadget(phi, "c")
	sel := g.Pattern.(sparql.Select)
	w := sel.Vars[0]
	result := rdf.IRI("c_result")
	return ConstructGadget{
		Graph: g.Graph,
		Query: sparql.ConstructQuery{
			Template: []sparql.TriplePattern{sparql.TP(sparql.V(w), sparql.I(result), sparql.V(w))},
			Where:    sel.P,
		},
		Triple: rdf.T(g.Mapping[w], result, g.Mapping[w]),
	}
}

// Holds reports t ∈ ans(Q, G), deciding satisfiability of φ.
func (c ConstructGadget) Holds() bool {
	return sparql.ConstructContains(c.Graph, c.Query, c.Triple)
}

// HoldsFast is Holds using the constrained membership procedure.
func (d DPGadget) HoldsFast() bool {
	return sparql.Member(d.Graph, d.Pattern, d.Mapping)
}

// HoldsFast is Holds with the early-terminating search of the exec
// package (unify the target with the template, backtrack for a
// witness).
func (c ConstructGadget) HoldsFast() bool {
	found, _ := exec.ConstructContains(c.Graph, c.Query, c.Triple, nil, plan.Options{})
	return found
}
