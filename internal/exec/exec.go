// Package exec is the query-execution layer of NS-SPARQL: one entry
// point per query form, all on the planned engine.
//
//   - Compile prepares a query (SELECT, ASK or CONSTRUCT) and
//     EvalCompiled runs it; this is the path both servers, nsq and
//     the public facade take.
//   - Limit returns the first k solutions of a prepared plan and
//     ConstructContains decides t ∈ ans(Q, G), both with early
//     termination.
//
// ASK, Limit and ConstructContains search depth-first on the ID-native
// row runtime (sparql.Searcher) over dictionary-encoded rows, binding
// triple patterns through the ID-level graph indexes.  Slots are bound
// in place in a single row buffer and presence masks travel by value,
// so extending or abandoning a partial solution allocates nothing.
//
// For the monotone operators (AND, UNION, FILTER, SELECT) this is the
// classic certificate search that witnesses the NP membership of
// Eval(SPARQL[AUFS]) (Section 7).  The non-monotone operators OPT and
// NS need the complete sub-answer sets to decide what survives, so
// sub-patterns under them fall back to the reference evaluator; the
// search still terminates early at the outer level.  A plan whose root
// is OPT or NS, or that is wider than sparql.MaxSchemaVars, is
// materialized by plan.EvalPrepared instead.
package exec

import (
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// instrumentSearch attaches a "search" node under prof and returns a
// completion callback recording wall time, budget deltas and rows out.
// The backtracking searcher interleaves all operators in one depth-first
// walk, so exec profiles it as a single node instead of an operator
// tree; materializing fallbacks go through plan.EvalPrepared, which
// builds the full tree.  A nil prof costs one nil check.
func instrumentSearch(prof *obs.Node, b *sparql.Budget, detail string) func(rows int64) {
	if prof == nil {
		return func(int64) {}
	}
	node := prof.Child("search", detail)
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	return func(rows int64) {
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		node.AddRowsOut(rows)
	}
}

// ask reports whether the prepared plan has a solution, stopping at the
// first one found.  The backtracking search charges the budget per
// index probe and aborts with the budget's typed error the moment the
// governor trips.  Plans that force full materialization anyway — a
// non-monotone (OPT/NS) root, or a schema wider than the row runtime —
// run on the planner's (possibly parallel) evaluator instead.
func ask(g rdf.Store, pr plan.Prepared, b *sparql.Budget, o plan.Options) (bool, error) {
	opt, sc := pr.Pattern(), pr.Schema()
	if sc == nil || materializes(opt) {
		ms, err := plan.EvalPrepared(g, pr, b, o)
		if err != nil {
			return false, err
		}
		return ms.Len() > 0, nil
	}
	done := instrumentSearch(o.Prof, b, "ask")
	found := false
	err := sparql.NewSearcherBudget(g, sc, b).Search(opt, 0, func(uint64) bool {
		found = true
		return false
	})
	if err != nil {
		done(0)
		return false, err
	}
	var rows int64
	if found {
		rows = 1
	}
	done(rows)
	return found, nil
}

// materializes reports whether the root operator needs its complete
// sub-answer sets before it can emit anything, so a backtracking
// search over it cannot terminate early and would only add overhead
// on top of a full evaluation.
func materializes(p sparql.Pattern) bool {
	switch p.(type) {
	case sparql.Opt, sparql.NS:
		return true
	}
	return false
}

// Limit returns up to k distinct solutions of the prepared plan (all
// of them for k < 0), stopping the search as soon as k are found.
// Each returned solution also charges the budget's row limit, so
// MaxRows bounds the result set even for k < 0.  Like ASK, plans that
// materialize anyway run on the planner's evaluator and are cut to k.
func Limit(g rdf.Store, pr plan.Prepared, k int, b *sparql.Budget, o plan.Options) (*sparql.MappingSet, error) {
	out := sparql.NewMappingSet()
	if k == 0 {
		return out, nil
	}
	opt, sc := pr.Pattern(), pr.Schema()
	if sc == nil || materializes(opt) {
		ms, err := plan.EvalPrepared(g, pr, b, o)
		if err != nil {
			return nil, err
		}
		for _, mu := range ms.Mappings() {
			out.Add(mu)
			if k >= 0 && out.Len() >= k {
				break
			}
		}
		return out, nil
	}
	done := instrumentSearch(o.Prof, b, "limit")
	s := sparql.NewSearcherBudget(g, sc, b)
	seen := sparql.NewRowSet(sc)
	var rowErr error
	err := s.Search(opt, 0, func(m uint64) bool {
		if !seen.Add(s.IDs(), m) {
			return true
		}
		if rowErr = b.AddRows(1); rowErr != nil {
			return false
		}
		out.Add(s.Decode(m))
		return k < 0 || out.Len() < k
	})
	if err == nil {
		err = rowErr
	}
	if err != nil {
		done(0)
		return nil, err
	}
	done(int64(out.Len()))
	return out, nil
}

// ConstructContains decides t ∈ ans(Q, G) with early termination: the
// target triple is unified with each template triple, the resulting
// binding seeds the backtracking search, and the first witness stops
// it.  This is the decision problem of Section 7.3.  The seeded
// searches stay serial: the seed row usually prunes the search long
// before materialization would pay off.  A WHERE clause wider than
// the row runtime materializes the CONSTRUCT output instead.
func ConstructContains(g rdf.Store, q sparql.ConstructQuery, target rdf.Triple, b *sparql.Budget, o plan.Options) (bool, error) {
	opt := plan.Optimize(g, q.Where)
	sc, ok := sparql.SchemaFor(opt)
	if !ok {
		out, err := construct(g, plan.Prepare(g, q.Where, plan.PlannerOptions{}), q.Template, b, o)
		if err != nil {
			return false, err
		}
		return out.ContainsTriple(target), nil
	}
	for _, tp := range q.Template {
		seed, ok := unifyTemplate(tp, target)
		if !ok {
			continue
		}
		// Encode the seed against the graph dictionary without
		// interning.  Solutions only bind template variables to graph
		// IRIs, so a seed value absent from the dictionary — or a
		// template variable outside the pattern — cannot be witnessed.
		c := sparql.Codec{Schema: sc, Dict: g.Dict()}
		row, ok := c.EncodeLookup(seed)
		if !ok {
			continue
		}
		// ans(Q, G) requires var(tp) ⊆ dom(µ); every emitted solution
		// agrees with the seed on shared slots, so domain coverage alone
		// certifies that µ(tp) is the target.
		tpMask := sc.SlotMask(sparql.Vars(tp))
		done := instrumentSearch(o.Prof, b, "construct-contains")
		s := sparql.NewSearcherBudget(g, sc, b)
		s.Seed(row)
		found := false
		err := s.Search(opt, row.Mask, func(m uint64) bool {
			if tpMask&^m != 0 {
				return true
			}
			found = true
			return false
		})
		if err != nil {
			done(0)
			return false, err
		}
		if found {
			done(1)
			return true, nil
		}
		done(0)
	}
	return false, nil
}

// unifyTemplate matches a template triple against a concrete triple,
// returning the variable bindings (false on a constant mismatch or a
// repeated variable with different values).
func unifyTemplate(tp sparql.TriplePattern, tr rdf.Triple) (sparql.Mapping, bool) {
	mu := make(sparql.Mapping, 3)
	unify := func(v sparql.Value, iri rdf.IRI) bool {
		if !v.IsVar() {
			return v.IRI() == iri
		}
		if prev, ok := mu[v.Var()]; ok {
			return prev == iri
		}
		mu[v.Var()] = iri
		return true
	}
	if unify(tp.S, tr.S) && unify(tp.P, tr.P) && unify(tp.O, tr.O) {
		return mu, true
	}
	return nil, false
}
