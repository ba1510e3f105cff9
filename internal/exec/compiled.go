package exec

// Compiled queries: the shape both servers (nsserve and the cluster
// coordinator nscoord) execute.  A Compiled bundles a prepared plan
// with the query kind — SELECT, ASK or CONSTRUCT — and EvalCompiled
// dispatches to the matching engine entry point, so the two servers
// share one execution path and cannot drift apart on governor or
// profiling behaviour.

import (
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Compiled is a query ready to execute: the optimized plan plus the
// query kind.  Exactly one of Ask / Construct / neither (SELECT)
// applies.
type Compiled struct {
	// Prepared is the optimized plan of the query's graph pattern (the
	// WHERE pattern, for CONSTRUCT).
	Prepared plan.Prepared
	// Construct is non-nil for CONSTRUCT queries; its Template builds
	// the output graph.
	Construct *sparql.ConstructQuery
	// Ask marks ASK queries.
	Ask bool
}

// Compile prepares pattern against g under planner options po and
// tags the result with the query kind.  construct may be nil and ask
// false for plain SELECT / pattern queries.  Servers expose po as
// flags (nsserve -planner) and must key their plan caches by
// po.CacheTag().
func Compile(g rdf.Store, pattern sparql.Pattern, construct *sparql.ConstructQuery, ask bool, po plan.PlannerOptions) Compiled {
	return Compiled{Prepared: plan.Prepare(g, pattern, po), Construct: construct, Ask: ask}
}

// CompileOpts is Compile.
//
// Deprecated: use Compile; this alias remains for the end-to-end
// benchmark module under perfbench/, which builds against it.
func CompileOpts(g rdf.Store, pattern sparql.Pattern, construct *sparql.ConstructQuery, ask bool, po plan.PlannerOptions) Compiled {
	return Compile(g, pattern, construct, ask, po)
}

// Result is the outcome of EvalCompiled; exactly one field is set,
// matching the Compiled's kind.
type Result struct {
	// Bool is set for ASK queries.
	Bool *bool
	// Rows is set for SELECT / pattern queries.
	Rows *sparql.MappingSet
	// Graph is set for CONSTRUCT queries.
	Graph rdf.Store
}

// EvalCompiled executes c against g under the budget and planner
// options: ASK through the early-terminating search, CONSTRUCT by
// instantiating the template over the WHERE answers, everything else
// through the planned row evaluator.  g must be the store c was
// prepared against (or one with identical contents — the plan embeds
// index cardinalities, not data).
func EvalCompiled(g rdf.Store, c Compiled, b *sparql.Budget, o plan.Options) (Result, error) {
	switch {
	case c.Ask:
		ok, err := ask(g, c.Prepared, b, o)
		if err != nil {
			return Result{}, err
		}
		return Result{Bool: &ok}, nil
	case c.Construct != nil:
		out, err := construct(g, c.Prepared, c.Construct.Template, b, o)
		if err != nil {
			return Result{}, err
		}
		return Result{Graph: out}, nil
	default:
		ms, err := plan.EvalPrepared(g, c.Prepared, b, o)
		if err != nil {
			return Result{}, err
		}
		return Result{Rows: ms}, nil
	}
}

// construct computes ans(Q, G) = {µ(t) | µ ∈ ⟦WHERE⟧_G, t ∈ template,
// var(t) ⊆ dom(µ)} from the prepared WHERE plan, charging one budget
// step per answer instantiated.
func construct(g rdf.Store, pr plan.Prepared, template []sparql.TriplePattern, b *sparql.Budget, o plan.Options) (rdf.Store, error) {
	ms, err := plan.EvalPrepared(g, pr, b, o)
	if err != nil {
		return nil, err
	}
	out := rdf.NewGraph()
	for _, mu := range ms.Mappings() {
		if err := b.Step(); err != nil {
			return nil, err
		}
		for _, t := range template {
			if tr, ok := mu.Apply(t); ok {
				out.AddTriple(tr)
			}
		}
	}
	return out, nil
}
