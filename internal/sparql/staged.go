package sparql

import (
	"repro/internal/obs"
	"repro/internal/rdf"
)

// StagedExec is the planner-facing handle on the parallel engine's
// worker pool for morsel-style staged chain execution (see
// internal/plan's staged driver): the driver evaluates a DP-ordered
// AND chain one operand at a time — observing materialized prefix
// cardinalities at drift checkpoints between stages — while each
// stage's work (operand scans, partitioned hash joins, bind-join
// probes) fans out across the pool in morsels.  One StagedExec serves
// one query: it owns the pool and shares the query's schema, budget
// and hints with every stage, so the whole staged evaluation is
// governed by a single atomic budget exactly like the static tree.
type StagedExec struct {
	e *parEval
}

// NewStagedExec builds the handle for a query under schema sc (see
// SchemaFor).  Workers counts the calling goroutine; 1 degrades every
// stage to the serial operators (nil pool), which the plan package
// uses only in tests — production serial chains run the serial
// adaptive executor instead.
func NewStagedExec(g rdf.Store, sc *VarSchema, b *Budget, o ParOptions) *StagedExec {
	return &StagedExec{e: newParEval(g, sc, b, o)}
}

// Schema returns the query-wide schema the handle evaluates under.
func (x *StagedExec) Schema() *VarSchema { return x.e.sc }

// EvalOperand evaluates one chain operand on the parallel engine,
// attaching its operator profile under parent.  Operands are usually
// single index scans, but composite operands (filter-wrapped scans,
// nested unions) fan their own sub-operators out across the pool.
func (x *StagedExec) EvalOperand(p Pattern, parent *obs.Node) (*RowSet, error) {
	return x.e.eval(p, parent)
}

// TryMergeFirst exposes the sort-merge fast path for the chain's first
// pair, mirroring TryMergeScanJoin on the shared pool's budget and
// schema.  handled = false means the operands don't qualify and
// nothing was evaluated.
func (x *StagedExec) TryMergeFirst(l, r Pattern, node *obs.Node) (*RowSet, bool, error) {
	return tryMergeScanJoin(x.e.g, l, r, x.e.sc, x.e.b, node, false)
}

// Join joins the accumulated prefix with one operand's rows through
// the partitioned parallel hash join: the probe side splits into
// contiguous morsels across the pool, each probing the shared chain
// index into a private RowSet, merged through the open-addressed
// dedup.  Small or keyless joins stay serial (JoinB).
func (x *StagedExec) Join(acc, r *RowSet, node *obs.Node) (*RowSet, error) {
	node.AddRowsIn(int64(acc.Len() + r.Len()))
	return acc.joinParB(r, x.e.b, x.e.po, x.e.minPart, node)
}

// BindJoin is the parallel bind join: acc's rows split into morsels
// across the pool, each worker probing the sorted indexes with
// row-bound constants (see BindJoinScanPar).
func (x *StagedExec) BindJoin(acc *RowSet, t TriplePattern, node *obs.Node) (*RowSet, error) {
	return bindJoinScanPar(x.e.g, acc, t, x.e.b, x.e.po, x.e.minPart, node)
}
