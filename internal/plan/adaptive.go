// Adaptive chain execution (mid-query re-optimization).
//
// When the whole optimized pattern is an AND chain, the engine does
// not have to commit to the planner's join order: the chain driver
// (runChain) evaluates the chain one operand at a time, compares the
// accumulated row count against the planner's prefix estimates
// (chainCards), and when the observed cardinality drifts past
// ReplanFactor× the estimate it re-orders the *remaining* operands
// against the observed cardinality before continuing.  Estimates are
// exact for leaf scans but join selectivities are only modeled, so a
// mid-chain blow-up (or an unexpectedly empty prefix) is exactly the
// case a static order gets wrong.
//
// The driver is engine-agnostic: it is parameterized by chainOps, the
// executor primitives of one engine.  evalChain (staged.go)
// instantiates it with the serial row operators or with the parallel
// pool's morsel operators, making the same drift checkpoints,
// re-plans, bind-join gate and empty-prefix short-circuit available to
// both engines.
// Replans are visible as `replans=N` on the query profile node and
// aggregate into the server's planner_replans counter.
package plan

import (
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// adaptiveArmed reports whether the prepared plan carries enough chain
// state for mid-query re-optimization: a v2 plan over an AND chain
// long enough that a drift checkpoint can still reorder ≥2 remaining
// operands.
func (pr Prepared) adaptiveArmed() bool {
	return !pr.popts.Greedy && !pr.popts.NoReplan && len(pr.chain) >= 3 && pr.estr != nil
}

// chainOps abstracts the executor primitives the chain driver drives:
// the serial row engine and the staged parallel engine plug in here.
// staged marks the parallel instantiation, which counts each join step
// as one morsel fan-out stage and records a span per stage.
type chainOps struct {
	evalOperand   func(p sparql.Pattern, parent *obs.Node) (*sparql.RowSet, error)
	tryMergeFirst func(l, r sparql.Pattern, node *obs.Node) (*sparql.RowSet, bool, error)
	join          func(acc, r *sparql.RowSet, node *obs.Node) (*sparql.RowSet, error)
	bindJoin      func(acc *sparql.RowSet, t sparql.TriplePattern, node *obs.Node) (*sparql.RowSet, error)
	staged        bool
}

// serialChainOps builds the chain driver's primitives over the serial
// row engine.
func serialChainOps(g rdf.Store, sc *sparql.VarSchema, b *sparql.Budget, hints *sparql.EvalHints) chainOps {
	return chainOps{
		evalOperand: func(p sparql.Pattern, parent *obs.Node) (*sparql.RowSet, error) {
			return sparql.EvalPatternRows(g, p, sc, b, parent, hints)
		},
		tryMergeFirst: func(l, r sparql.Pattern, node *obs.Node) (*sparql.RowSet, bool, error) {
			return sparql.TryMergeScanJoin(g, l, r, sc, b, node, false)
		},
		join: func(acc, r *sparql.RowSet, node *obs.Node) (*sparql.RowSet, error) {
			node.AddRowsIn(int64(acc.Len() + r.Len()))
			return acc.JoinB(r, b)
		},
		bindJoin: func(acc *sparql.RowSet, t sparql.TriplePattern, node *obs.Node) (*sparql.RowSet, error) {
			return sparql.BindJoinScan(g, acc, t, b, node)
		},
	}
}

// runInstrumentedChain wraps runChain with the driver's profile node
// ("and" with the executor name as detail) and root counters, shared
// by the serial and staged instantiations.
func runInstrumentedChain(pr Prepared, ops chainOps, detail string, b *sparql.Budget, prof *obs.Node, span *obs.Span) (*sparql.RowSet, error) {
	node := prof.Child("and", detail)
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	rs, err := runChain(pr, ops, node, span)
	if node != nil {
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		if err == nil {
			node.AddRowsOut(int64(rs.Len()))
		}
	}
	return rs, err
}

// runChain is the engine-agnostic chain driver: evaluate operands in
// the planner's order, checkpoint observed cardinality against the
// prefix estimates, re-plan the tail on drift, and pick bind vs hash
// join per step against the observed accumulator size.
func runChain(pr Prepared, ops chainOps, node *obs.Node, span *obs.Span) (*sparql.RowSet, error) {
	factor := pr.popts.replanFactor()
	chain := append([]sparql.Pattern(nil), pr.chain...)
	targets := append([]float64(nil), pr.chainEsts...)
	e := pr.estr

	var (
		acc *sparql.RowSet
		err error
		i   int
	)
	// First pair: honor the planner's merge choice with the pair fast
	// path (it evaluates both scans itself); otherwise evaluate the
	// first operand alone.
	first := sparql.And{L: chain[0], R: chain[1]}
	if pr.hints.JoinStrategyFor(first) != sparql.StrategyHash {
		if rs, handled, merr := ops.tryMergeFirst(chain[0], chain[1], node); handled {
			if merr != nil {
				return nil, merr
			}
			acc, i = rs, 2
			recordStage(ops, node, span, 1, "merge", acc)
		}
	}
	if acc == nil {
		acc, err = ops.evalOperand(chain[0], node)
		if err != nil {
			return nil, err
		}
		i = 1
	}
	// accDV tracks the distinct-value bounds of the accumulated prefix
	// so re-planning can estimate remaining joins from the observed
	// cardinality.
	accDV := prefixDV(e, chain[:i], float64(acc.Len()))
	for ; i < len(chain); i++ {
		// Drift checkpoint: the chain is all inner joins, so an empty
		// prefix decides the query — return before evaluating (on the
		// staged engine: before dispatching morsels for) the tail.
		if acc.Len() == 0 {
			if span != nil {
				span.SetAttr("empty_prefix_at", i)
			}
			return acc, nil
		}
		obsCard := float64(acc.Len())
		if est := targets[i-1]; len(chain)-i >= 2 && drifted(obsCard, est, factor) {
			rsp := span.StartChild("replan", "")
			rsp.SetAttr("position", i)
			rsp.SetAttr("observed", obsCard)
			rsp.SetAttr("estimate", est)
			rsp.SetAttr("remaining", len(chain)-i)
			replanTail(e, chain, targets, i, obsCard, accDV)
			rsp.End()
			node.AddReplans(1)
		}
		est := e.estimate(chain[i])
		// Join-strategy choice against the OBSERVED cardinality: when
		// the accumulated prefix is small relative to the next operand's
		// extension, probing the index per row (bind join) beats scanning
		// and hashing the whole extension — the choice no static plan can
		// make, because it depends on the prefix's actual row count.
		if t, isTriple := chain[i].(sparql.TriplePattern); isTriple &&
			bindJoinCost(obsCard) < hashJoinCost(obsCard, est) {
			acc, err = ops.bindJoin(acc, t, node)
			if err != nil {
				return nil, err
			}
			recordStage(ops, node, span, i, "bind", acc)
		} else {
			r, err := ops.evalOperand(chain[i], node)
			if err != nil {
				return nil, err
			}
			acc, err = ops.join(acc, r, node)
			if err != nil {
				return nil, err
			}
			recordStage(ops, node, span, i, "hash", acc)
		}
		_, accDV = joinCardInto(float64(acc.Len()), accDV, leafDV(sparql.Vars(chain[i]), est))
	}
	return acc, nil
}

// recordStage accounts one completed morsel fan-out stage of the
// staged parallel driver: a stage counter on the profile node and a
// span carrying the stage's position, join strategy and output
// cardinality.  Serial instantiations record nothing (their join steps
// are not fan-outs).
func recordStage(ops chainOps, node *obs.Node, span *obs.Span, position int, strategy string, acc *sparql.RowSet) {
	if !ops.staged {
		return
	}
	node.AddStages(1)
	if span != nil {
		ssp := span.StartChild("stage", strategy)
		ssp.SetAttr("position", position)
		ssp.SetAttr("strategy", strategy)
		ssp.SetAttr("rows", acc.Len())
		ssp.End()
	}
}

// drifted reports whether the observed prefix cardinality left the
// planner's confidence band [est/factor, est·factor] (±1 row of slack
// so tiny prefixes never trigger).
func drifted(obs, est, factor float64) bool {
	return obs > est*factor+1 || obs*factor+1 < est
}

// prefixDV rebuilds the distinct-value bounds of an evaluated prefix,
// capped at the observed cardinality.
func prefixDV(e *estimator, prefix []sparql.Pattern, obs float64) dvMap {
	dv := make(dvMap)
	for _, p := range prefix {
		est := e.estimate(p)
		for _, v := range sparql.Vars(p) {
			if cur, ok := dv[v]; !ok || est < cur {
				dv[v] = est
			}
		}
	}
	for v, d := range dv {
		if d > obs {
			dv[v] = maxf(obs, 1)
		}
	}
	return dv
}

// joinCardInto re-caps dv bounds after a join whose output size is
// already known (observed), merging in the new operand's bounds.
func joinCardInto(obs float64, dvL, dvR dvMap) (float64, dvMap) {
	dv := make(dvMap, len(dvL)+len(dvR))
	for v, d := range dvL {
		dv[v] = d
	}
	for v, d := range dvR {
		if cur, ok := dv[v]; !ok || d < cur {
			dv[v] = d
		}
	}
	for v, d := range dv {
		if d > obs {
			dv[v] = maxf(obs, 1)
		}
	}
	return obs, dv
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// replanTail greedily re-orders chain[i:] against the observed prefix
// cardinality: at each step it takes the operand whose estimated join
// output with the current accumulator is smallest (cross products cost
// their full product, so connected operands win naturally), then
// rewrites the remaining prefix targets so the next checkpoints
// compare against the new plan.
func replanTail(e *estimator, chain []sparql.Pattern, targets []float64, i int, obs float64, accDV dvMap) {
	rest := chain[i:]
	type tailCand struct {
		p    sparql.Pattern
		est  float64
		vars []sparql.Var
	}
	cands := make([]tailCand, len(rest))
	for j, p := range rest {
		cands[j] = tailCand{p: p, est: e.estimate(p), vars: sparql.Vars(p)}
	}
	card, dv := obs, accDV
	used := make([]bool, len(cands))
	for k := range rest {
		best, bestOut := -1, 0.0
		var bestDV dvMap
		for j, c := range cands {
			if used[j] {
				continue
			}
			out, ndv := joinCard(card, c.est, dv, leafDV(c.vars, c.est))
			if best == -1 || out < bestOut || (out == bestOut && c.est < cands[best].est) {
				best, bestOut, bestDV = j, out, ndv
			}
		}
		used[best] = true
		chain[i+k] = cands[best].p
		card, dv = bestOut, bestDV
		targets[i+k] = card
	}
}
