package main

// Experiment E22: incremental maintenance of monotone CONSTRUCT[AUF]
// views (the practical payoff of Corollary 6.8) — incremental insert
// vs from-scratch recomputation.

import (
	"fmt"
	"time"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/views"
	"repro/internal/workload"
)

func init() {
	register("E22", "Corollary 6.8 in practice: incremental CONSTRUCT[AUF] view maintenance", func() {
		q := parser.MustParseConstruct(`CONSTRUCT {(?p works_in ?m)}
			WHERE (?p works_at ?u) AND (?u stands_for ?m)`)
		fmt.Println("  base people | view triples | batch | incremental | recompute | agree")
		for _, size := range []int{1000, 5000} {
			base := workload.University(workload.UniversityOpts{People: size, OptionalPct: 50, Seed: 1})
			v, err := views.New(q, base)
			if err != nil {
				fmt.Println("  ERROR:", err)
				return
			}
			// A batch of new hires.
			batch := make([]rdf.Triple, 0, 20)
			for i := 0; i < 20; i++ {
				batch = append(batch, rdf.T(
					rdf.IRI(fmt.Sprintf("new_hire_%d", i)), "works_at", "university_0"))
			}
			dInc := timeIt(func() { v.Insert(nil, nil, batch...) })
			var full rdf.Store
			dFull := timeIt(func() { full = sparql.EvalConstruct(v.Base(), q) })
			fmt.Printf("  %11d | %12d | %5d | %11s | %9s | %v\n",
				size, v.Graph().Len(), len(batch),
				dInc.Round(time.Microsecond), dFull.Round(time.Microsecond),
				v.Graph().Equal(full))
		}
		fmt.Println("  (soundness of insert-only maintenance is exactly the monotonicity")
		fmt.Println("   that Corollary 6.8 proves for CONSTRUCT[AUF])")
	})
}
