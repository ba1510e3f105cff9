package sparql

import (
	"repro/internal/rdf"
)

// EvalBudget is the reference evaluator Eval under a governor: the
// same bottom-up semantics over string mappings, with budget charges
// proportional to the work of each algebra operator.  It evaluates the
// patterns wider than MaxSchemaVars, which the row engine refuses
// (plan.EvalPrepared and views route them here), so that even those
// respect deadlines and step limits.
//
// Charging is coarser than on the row engine: binary operators charge
// their input cardinalities up front (the nested-loop Join is O(n·m),
// so that product is charged before the join runs).  A single operator
// invocation can therefore overshoot a deadline by its own runtime,
// but never run unboundedly across operators.
//
// With b == nil, EvalBudget(g, p, nil) computes exactly Eval(g, p)
// (differentially tested), except that a malformed pattern returns
// ErrUnsupportedPattern instead of panicking.
func EvalBudget(g rdf.Store, p Pattern, b *Budget) (*MappingSet, error) {
	if err := b.Step(); err != nil {
		return nil, err
	}
	switch q := p.(type) {
	case TriplePattern:
		return evalTripleBudget(g, q, b)
	case And:
		l, err := EvalBudget(g, q.L, b)
		if err != nil {
			return nil, err
		}
		r, err := EvalBudget(g, q.R, b)
		if err != nil {
			return nil, err
		}
		if err := b.StepN(l.Len() * r.Len()); err != nil {
			return nil, err
		}
		return l.Join(r), nil
	case Union:
		l, err := EvalBudget(g, q.L, b)
		if err != nil {
			return nil, err
		}
		r, err := EvalBudget(g, q.R, b)
		if err != nil {
			return nil, err
		}
		if err := b.StepN(l.Len() + r.Len()); err != nil {
			return nil, err
		}
		return l.Union(r), nil
	case Opt:
		l, err := EvalBudget(g, q.L, b)
		if err != nil {
			return nil, err
		}
		r, err := EvalBudget(g, q.R, b)
		if err != nil {
			return nil, err
		}
		if err := b.StepN(2 * l.Len() * max(r.Len(), 1)); err != nil {
			return nil, err
		}
		return l.LeftJoin(r), nil
	case Filter:
		inner, err := EvalBudget(g, q.P, b)
		if err != nil {
			return nil, err
		}
		if err := b.StepN(inner.Len()); err != nil {
			return nil, err
		}
		return inner.Filter(q.Cond), nil
	case Select:
		inner, err := EvalBudget(g, q.P, b)
		if err != nil {
			return nil, err
		}
		if err := b.StepN(inner.Len()); err != nil {
			return nil, err
		}
		return inner.Project(q.Vars), nil
	case NS:
		inner, err := EvalBudget(g, q.P, b)
		if err != nil {
			return nil, err
		}
		if err := b.StepN(inner.Len() * inner.Len()); err != nil {
			return nil, err
		}
		return inner.Maximal(), nil
	default:
		return nil, ErrUnsupportedPattern{Pattern: p}
	}
}

// evalTripleBudget computes ⟦t⟧_G like evalTriple, charging one step
// per index match.
func evalTripleBudget(g rdf.Store, t TriplePattern, b *Budget) (*MappingSet, error) {
	out := NewMappingSet()
	var s, p, o *rdf.IRI
	if !t.S.IsVar() {
		i := t.S.IRI()
		s = &i
	}
	if !t.P.IsVar() {
		i := t.P.IRI()
		p = &i
	}
	if !t.O.IsVar() {
		i := t.O.IRI()
		o = &i
	}
	var err error
	g.Match(s, p, o, func(tr rdf.Triple) bool {
		if err = b.Step(); err != nil {
			return false
		}
		mu := make(Mapping, 3)
		if bindPos(mu, t.S, tr.S) && bindPos(mu, t.P, tr.P) && bindPos(mu, t.O, tr.O) {
			out.Add(mu)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
