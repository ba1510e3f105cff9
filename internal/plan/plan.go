// Package plan is a query planner and optimized evaluator for
// NS-SPARQL.  It is semantics-preserving engineering on top of the
// reference evaluator of internal/sparql (which stays the oracle in
// differential tests):
//
//   - AND chains are flattened, split into variable-connected
//     components, and each component is ordered by a dynamic program
//     over its connected subsets minimizing the C_out cost metric fed
//     by exact index cardinalities (see cost.go and dp.go); components
//     beyond DPMaxPatterns — and the v1 ablation baseline
//     (PlannerOptions.Greedy) — use the greedy
//     smallest-connected-estimate heuristic;
//   - merge vs hash join is chosen per binary node by estimated cost
//     and passed to the row engine as sparql.EvalHints;
//   - long AND chains run under the adaptive chain driver
//     (adaptive.go): the serial path evaluates operand by operand and
//     re-orders the remaining operands mid-query when observed
//     cardinalities drift past ReplanFactor× the estimate; the
//     parallel path runs the same driver morsel-style (staged.go),
//     fanning each join stage out across the worker pool and
//     re-planning between stages;
//   - conjunctive FILTER conditions are split and pushed down to the
//     earliest operand that certainly binds their variables;
//   - joins, differences and left-outer joins run hash-bucketed on the
//     shared always-bound variables (sparql.JoinHash and friends);
//   - the optimized pattern is evaluated on the ID-native row engine
//     (sparql.EvalRows): dictionary-encoded rows with presence bitsets,
//     hash joins keyed on always-bound slot masks, and the
//     mask-bucketed NS algorithm.  Patterns wider than
//     sparql.MaxSchemaVars run on the budgeted reference evaluator
//     (sparql.EvalBudget) instead.
//
// The API is one preparation and one evaluation step: Prepare
// optimizes a pattern against a graph into a cacheable Prepared plan,
// and EvalPrepared runs it under a budget and engine Options.  These
// choices are ablated in the E20 experiment.
package plan

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/transform"
)

// Options tunes the evaluator.  The zero value is the production
// default: the parallel row engine with one worker per CPU, engaging
// only when the planner's cardinality estimate says the query is big
// enough to amortize the fan-out.
type Options struct {
	// Parallel is the worker count for the parallel row engine
	// (including the calling goroutine): 0 means runtime.GOMAXPROCS(0),
	// 1 forces the serial engine.
	Parallel int
	// MinParallelEstimate is the planner's estimated result
	// cardinality below which evaluation stays serial even when
	// Parallel > 1 (goroutine handoff would dominate on small
	// queries).  0 means DefaultMinParallelEstimate; set it negative
	// to parallelize unconditionally.
	MinParallelEstimate float64
	// MinPartition is passed through to the row engine's partitioned
	// operators (0 = sparql.DefaultMinPartition).
	MinPartition int
	// Prof, when non-nil, collects a per-query execution profile: the
	// evaluator attaches one obs child node per operator under it (see
	// internal/obs and sparql.EvalRows).  The reference-evaluator path
	// for patterns wider than sparql.MaxSchemaVars records only
	// root-level totals.  A nil Prof disables all instrumentation at
	// the cost of one nil check per operator node.
	Prof *obs.Node
	// Trace, when non-nil, is the live execution span of the query's
	// distributed trace: the adaptive chain executor records each
	// mid-query replan checkpoint as a child span (position, observed
	// vs estimated cardinality), so re-optimizations survive the
	// request and show up in /debug/traces.  A nil Trace is a no-op.
	Trace *obs.Span
}

// DefaultMinParallelEstimate is the default serial/parallel cutover
// estimate: queries the planner expects to stay under this many
// intermediate rows are evaluated serially.
const DefaultMinParallelEstimate = 256

func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

func (o Options) minEstimate() float64 {
	if o.MinParallelEstimate == 0 {
		return DefaultMinParallelEstimate
	}
	return o.MinParallelEstimate
}

// Prepared is an optimized, ready-to-run query plan: the rewritten
// pattern, the planner's cardinality estimate for the serial/parallel
// cutover, the recorded plan (Explain), the engine hints, and — for
// AND chains — the flattened operand order plus prefix estimates the
// adaptive executor checkpoints against.  Preparation reads the
// graph's index counts (CountMatch), so a Prepared plan is only valid
// for the graph contents it was built against — cache it keyed by the
// graph's Epoch and the PlannerOptions.CacheTag, as nsserve's plan
// cache does, and it never goes stale.
type Prepared struct {
	pattern sparql.Pattern
	est     float64
	popts   PlannerOptions
	explain *Explain
	hints   *sparql.EvalHints
	estr    *estimator
	// chain is the ordered flat operand list when the whole pattern is
	// an AND chain (components concatenated), nil otherwise;
	// chainEsts[i] is the estimated cardinality after joining
	// chain[:i+1].
	chain     []sparql.Pattern
	chainEsts []float64
	// schema is the row engine's variable schema of pattern, nil when
	// the pattern is wider than sparql.MaxSchemaVars.
	schema *sparql.VarSchema
}

// Pattern returns the optimized pattern the plan will evaluate.
func (pr Prepared) Pattern() sparql.Pattern { return pr.pattern }

// Explain returns the recorded plan (nil only for a zero Prepared).
func (pr Prepared) Explain() *Explain { return pr.explain }

// Schema returns the row engine's variable schema of the optimized
// pattern, or nil when the pattern is wider than sparql.MaxSchemaVars
// (such plans evaluate on the reference evaluator).
func (pr Prepared) Schema() *sparql.VarSchema { return pr.schema }

// Prepare optimizes p for g under planner options po (greedy baseline,
// DP cutoff, re-plan factor; the zero value is the production
// default): the graph-dependent, and therefore cacheable, half of
// evaluation.
func Prepare(g rdf.Store, p sparql.Pattern, po PlannerOptions) Prepared {
	pc := &planCtx{g: g, e: newEstimator(g), po: po}
	opt := pc.optimize(sparql.SimplifyPattern(p))
	pr := Prepared{pattern: opt, popts: po, estr: pc.e}
	pr.schema, _ = sparql.SchemaFor(opt)
	if _, ok := opt.(sparql.And); ok {
		// andOperands of the rebuilt tree recovers the planner's full
		// chain order (left-deep within components, concatenated across).
		pr.chain = andOperands(opt)
		pr.chainEsts = chainCards(buildCands(pc.e, pr.chain), identityOrder(len(pr.chain)))
	}
	pr.explain, pr.hints = buildExplain(pc.e, opt, po, pr.adaptiveArmed())
	pr.est = pr.explain.Estimate
	return pr
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// EvalPrepared runs a Prepared plan under budget b (nil disables
// accounting; limits surface as the budget's typed errors).  The
// optimized pattern runs on the parallel row engine when o asks for
// more than one worker and the cardinality estimate clears the serial
// cutover, and on the serial row engine otherwise; adaptive-armed AND
// chains go through the chain driver on either engine.  All engines
// return exactly the same answer set (differentially tested).  A plan
// wider than sparql.MaxSchemaVars is evaluated by the budgeted
// reference evaluator, sparql.EvalBudget.
func EvalPrepared(g rdf.Store, pr Prepared, b *sparql.Budget, o Options) (*sparql.MappingSet, error) {
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	recordRoot := func(resultRows int) {
		if o.Prof == nil {
			return
		}
		o.Prof.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		o.Prof.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		o.Prof.AddRowsOut(int64(resultRows))
	}
	if pr.schema == nil {
		ms, err := sparql.EvalBudget(g, pr.pattern, b)
		if err == nil {
			err = b.AddRows(ms.Len())
		}
		if err != nil {
			recordRoot(0)
			return nil, err
		}
		recordRoot(ms.Len())
		return ms, nil
	}
	var (
		rs  *sparql.RowSet
		err error
	)
	workers := o.workers()
	if workers <= 1 || pr.est < o.minEstimate() {
		workers = 1
	}
	if pr.adaptiveArmed() {
		// Drift-checkpointed chain execution: serially operand by
		// operand, or morsel-style with each join stage fanned out on
		// the pool (staged.go).
		rs, err = evalChain(g, pr, b, o, workers)
	} else {
		// Static tree: the whole plan runs at once — non-chain plans,
		// -no-replan and the greedy baseline.
		rs, err = sparql.EvalRows(g, pr.pattern, b, sparql.ParOptions{
			Workers:      workers,
			MinPartition: o.MinPartition,
			Prof:         o.Prof,
			Hints:        pr.hints,
		})
	}
	if err == nil {
		err = b.AddRows(rs.Len())
	}
	if err != nil {
		recordRoot(0)
		return nil, err
	}
	recordRoot(rs.Len())
	return rs.MappingSet(g.Dict()), nil
}

// Optimize rewrites the pattern into a semantically equal pattern with
// pushed-down filters and reordered AND chains.  The rewriting uses
// only equivalences that hold for arbitrary patterns:
//
//	AND is associative and commutative;
//	(P1 AND P2) FILTER R ≡ (P1 FILTER R) AND P2
//	    when var(R) ⊆ cb(P1) (the certainly-bound variables);
//	R1 ∧ R2 splits into two FILTER applications.
func Optimize(g rdf.Store, p sparql.Pattern) sparql.Pattern {
	pc := &planCtx{g: g, e: newEstimator(g)}
	return pc.optimize(sparql.SimplifyPattern(p))
}

// planCtx threads the shared estimator and planner options through one
// optimization pass, so a k-pattern query costs O(k) index probes no
// matter how many candidate orders the DP scores.
type planCtx struct {
	g  rdf.Store
	e  *estimator
	po PlannerOptions
}

func (pc *planCtx) optimize(p sparql.Pattern) sparql.Pattern {
	switch q := p.(type) {
	case sparql.TriplePattern:
		return q
	case sparql.And:
		return pc.optimizeAndChain(q)
	case sparql.Union:
		return sparql.Union{L: pc.optimize(q.L), R: pc.optimize(q.R)}
	case sparql.Opt:
		return sparql.Opt{L: pc.optimize(q.L), R: pc.optimize(q.R)}
	case sparql.Filter:
		return pc.optimizeFilter(q)
	case sparql.Select:
		return sparql.Select{Vars: q.Vars, P: pc.optimize(q.P)}
	case sparql.NS:
		return sparql.NS{P: pc.optimize(q.P)}
	default:
		// Unknown operator: leave it untouched (optimization is always
		// allowed to be the identity) and let the evaluator report a
		// typed sparql.ErrUnsupportedPattern instead of panicking here.
		return p
	}
}

// andOperands flattens an AND chain.
func andOperands(p sparql.Pattern) []sparql.Pattern {
	if a, ok := p.(sparql.And); ok {
		return append(andOperands(a.L), andOperands(a.R)...)
	}
	return []sparql.Pattern{p}
}

// optimizeAndChain orders a flattened AND chain: operands split into
// variable-connected components (ordered by smallest member estimate,
// reproducing the v1 greedy's global sequencing), and each component
// is ordered by the connected-subset DP (dp.go) — or the v1 greedy
// heuristic when PlannerOptions.Greedy is set or the component exceeds
// the DP cutoff.
func (pc *planCtx) optimizeAndChain(a sparql.And) sparql.Pattern {
	ops := andOperands(a)
	for i, op := range ops {
		ops[i] = pc.optimize(op)
	}
	cands := buildCands(pc.e, ops)
	comps := chainComponents(cands)
	ordered := make([]sparql.Pattern, 0, len(cands))
	starts := make([]int, 0, len(comps))
	for _, members := range comps {
		starts = append(starts, len(ordered))
		var order []int
		if pc.po.Greedy || len(members) > pc.po.dpMax() {
			order = greedyOrderComponent(cands, members)
		} else {
			order = dpOrderComponent(cands, members)
		}
		for _, i := range order {
			ordered = append(ordered, cands[i].p)
		}
	}
	return andComponents(ordered, starts)
}

// andComponents rebuilds the AND tree from the greedily ordered chain:
// each connected component keeps its left-deep greedy order (good join
// ordering), and the variable-disjoint components combine through a
// balanced tree of cross products.  AND is associative and commutative,
// so the reshaping is an equivalence; its point is structural — the
// parallel engine fans out the operands of every AND node, and a
// balanced tree over independent components exposes them as concurrent
// sub-problems instead of hiding them down one left spine.
func andComponents(ordered []sparql.Pattern, starts []int) sparql.Pattern {
	if len(starts) <= 1 {
		return sparql.AndOf(ordered...)
	}
	parts := make([]sparql.Pattern, 0, len(starts))
	for i, lo := range starts {
		hi := len(ordered)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		parts = append(parts, sparql.AndOf(ordered[lo:hi]...))
	}
	return balancedAnd(parts)
}

// balancedAnd folds patterns into a balanced binary AND tree.
func balancedAnd(parts []sparql.Pattern) sparql.Pattern {
	switch len(parts) {
	case 1:
		return parts[0]
	case 2:
		return sparql.And{L: parts[0], R: parts[1]}
	}
	mid := len(parts) / 2
	return sparql.And{L: balancedAnd(parts[:mid]), R: balancedAnd(parts[mid:])}
}

func (pc *planCtx) optimizeFilter(f sparql.Filter) sparql.Pattern {
	body := pc.optimize(f.P)
	conjuncts := splitConjuncts(f.Cond)
	var remaining []sparql.Condition
	for _, c := range conjuncts {
		if pushed, ok := pushFilter(body, c); ok {
			body = pushed
		} else {
			remaining = append(remaining, c)
		}
	}
	if len(remaining) == 0 {
		return body
	}
	return sparql.Filter{P: body, Cond: sparql.ConjoinConds(remaining...)}
}

func splitConjuncts(c sparql.Condition) []sparql.Condition {
	if a, ok := c.(sparql.AndCond); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []sparql.Condition{c}
}

// pushFilter tries to push a single conjunct into an operand of an AND
// chain whose certainly-bound variables cover it.  It reports whether
// the push happened.
func pushFilter(p sparql.Pattern, cond sparql.Condition) (sparql.Pattern, bool) {
	a, ok := p.(sparql.And)
	if !ok {
		return p, false
	}
	vars := cond.Vars(nil)
	covered := func(q sparql.Pattern) bool {
		cb := transform.CertainlyBound(q)
		for _, v := range vars {
			if _, ok := cb[v]; !ok {
				return false
			}
		}
		return true
	}
	ops := andOperands(a)
	for i, op := range ops {
		if covered(op) {
			// Try to push deeper first.
			if deeper, ok := pushFilter(op, cond); ok {
				ops[i] = deeper
			} else {
				ops[i] = sparql.Filter{P: op, Cond: cond}
			}
			return sparql.AndOf(ops...), true
		}
	}
	return p, false
}

// Estimate returns a rough upper estimate of |⟦P⟧_G| used for join
// ordering.  Triple patterns use exact index counts; operators combine
// estimates structurally.  (The formulas live on the memoizing
// estimator in cost.go; this entry point builds a throwaway memo.)
func Estimate(g rdf.Store, p sparql.Pattern) float64 {
	return newEstimator(g).estimate(p)
}
