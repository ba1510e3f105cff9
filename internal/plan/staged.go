// Staged adaptive parallel execution (morsel-style fan-out with
// mid-query re-planning).
//
// The static parallel engine (sparql.EvalRows with Workers > 1)
// commits the whole DP-ordered AND chain to a plan-time tree: it fans
// operands and partitioned joins out across the worker pool, but once
// the tree is built no observation can change it — exactly the
// queries big enough to parallelize are the ones stuck with
// estimate-only plans when cardinalities drift.  The staged executor instead drives the chain
// through the shared adaptive driver (runChain in adaptive.go) with
// the parallel pool's operators plugged in:
//
//   - each join step is one *stage*: the accumulated prefix and the
//     next operand fan out across the pool in morsels (partitioned
//     hash join, or the parallel bind join when the observed prefix
//     is small enough that per-row index probes beat scanning the
//     operand's full extension — sparql.BindJoinScanPar, gated by the
//     same bindJoinCost(obs) < hashJoinCost(obs, est) comparison the
//     serial adaptive path uses);
//   - between stages the driver observes the materialized prefix
//     cardinality at a drift checkpoint (the [est/factor, est·factor]
//     confidence band) and re-plans the remaining operands against
//     observed counts before the next fan-out;
//   - an empty prefix short-circuits the whole tail: no dead morsels
//     are dispatched for operands that can no longer contribute.
//
// Stages are visible as `stages=N` and bind probes as `bind_probes=N`
// on the profile's staged "and" node, and each stage records a trace
// span (position, strategy, rows).  -no-replan disarms the adaptive
// driver entirely, which routes parallel queries to the static tree
// (the E30 "static-parallel" baseline).
package plan

import (
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// evalChain runs the prepared AND chain through the chain driver: on
// the serial row engine when workers is 1, and morsel-style on a pool
// of workers otherwise.
func evalChain(g rdf.Store, pr Prepared, b *sparql.Budget, o Options, workers int) (*sparql.RowSet, error) {
	if workers <= 1 {
		return runInstrumentedChain(pr, serialChainOps(g, pr.schema, b, pr.hints), "adaptive", b, o.Prof, o.Trace)
	}
	x := sparql.NewStagedExec(g, pr.schema, b, sparql.ParOptions{
		Workers:      workers,
		MinPartition: o.MinPartition,
		Hints:        pr.hints,
	})
	return runInstrumentedChain(pr, stagedChainOps(x), "staged", b, o.Prof, o.Trace)
}

// stagedChainOps plugs the parallel pool's morsel operators into the
// shared chain driver.
func stagedChainOps(x *sparql.StagedExec) chainOps {
	return chainOps{
		evalOperand:   x.EvalOperand,
		tryMergeFirst: x.TryMergeFirst,
		join:          x.Join,
		bindJoin:      x.BindJoin,
		staged:        true,
	}
}
