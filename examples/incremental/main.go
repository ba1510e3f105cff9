// Incremental demonstrates the practical payoff of Section 6 /
// Corollary 6.8: a CONSTRUCT view in the monotone fragment
// CONSTRUCT[AUF] can be maintained under insertions without ever
// recomputing or retracting — while a non-monotone view (OPT in the
// WHERE clause) would silently go stale.
package main

import (
	"fmt"

	nssparql "repro"
	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/views"
	"repro/internal/workload"
)

func main() {
	base := workload.University(workload.UniversityOpts{People: 50, OptionalPct: 40, Seed: 3})

	// A monotone view: who works in which mission area.
	q := parser.MustParseConstruct(`CONSTRUCT {(?p works_in ?m)}
		WHERE (?p works_at ?u) AND (?u stands_for ?m)`)
	v, err := views.New(q, base)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Materialized view over %d base triples: %d output triples.\n",
		v.Base().Len(), v.Graph().Len())

	// New facts arrive; the view absorbs them incrementally.
	added, err := v.Insert(nil, nil,
		rdf.T("new_hire", "works_at", "university_0"),
		rdf.T("new_hire", "name", "Zoe"),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("After hiring Zoe: +%d output triple(s); view now has %d.\n",
		added, v.Graph().Len())

	// The incremental state is exactly the recomputed state.
	recomputed := sparql.EvalConstruct(v.Base(), q)
	fmt.Printf("Incremental == recomputed: %v\n\n", v.Graph().Equal(recomputed))

	// Why monotonicity matters: the same idea is UNSOUND for an OPT
	// view.  The views package refuses it...
	optQ := parser.MustParseConstruct(`CONSTRUCT {(?p contact ?e)}
		WHERE (?p works_at ?u) OPT (?p email ?e)`)
	if _, err := views.New(optQ, base); err != nil {
		fmt.Println("OPT view rejected:", err)
	}

	// ...and here is the stale triple that naive insert-only
	// maintenance would leave behind: "juan contact juan" style outputs
	// change retroactively when an email becomes known.
	g1 := nssparql.FromTriples(nssparql.T("juan", "works_at", "puc"))
	g2 := g1.Clone()
	g2.Add("juan", "email", "juan@puc.cl")
	out1 := nssparql.EvalConstruct(g1, optQ)
	out2 := nssparql.EvalConstruct(g2, optQ)
	fmt.Printf("\nOPT view over G:      %d triples\n", out1.Len())
	fmt.Printf("OPT view over G ∪ Δ:  %d triples — outputs changed shape, not just grew:\n", out2.Len())
	fmt.Print(out2)
	fmt.Println("(monotone growth holds for the *pattern answers* under subsumption —")
	fmt.Println(" weak monotonicity — but not for insert-only view deltas with OPT)")
}
