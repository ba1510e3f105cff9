package sparql

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// EvalRows computes ⟦P⟧_G with the ID-native row engine: one
// VarSchema for the whole query, dictionary-encoded rows throughout,
// and the mask-bucketed NS algorithm.  It is the single row-engine
// entry point: with o.Workers <= 1 it runs the serial evaluator, and
// otherwise the parallel one (see parallel.go).
//
// The budget is charged per triple-index probe, join candidate and
// materialized row, and evaluation aborts with the budget's typed
// error (ErrCanceled, ErrBudgetExceeded) as soon as the governor
// trips; a nil budget disables accounting.  When o.Prof is non-nil,
// evaluation attaches one child node per operator of the pattern tree
// under it, recording wall time, rows in/out, dedup hits, NS pruning
// per mask bucket, and budget consumption; a nil Prof costs one nil
// check per operator node, nothing per row.  o.Hints carries the
// planner's join-strategy choices (nil = structural auto behaviour).
//
// A pattern wider than MaxSchemaVars fails with ErrSchemaTooWide and a
// malformed one with ErrUnsupportedPattern.  The result decodes to
// exactly Eval(g, p) (differentially tested); Eval stays the reference
// implementation and oracle.
func EvalRows(g rdf.Store, p Pattern, b *Budget, o ParOptions) (*RowSet, error) {
	sc, ok := SchemaFor(p)
	if !ok {
		return nil, ErrSchemaTooWide
	}
	if o.Workers <= 1 {
		return evalRowsB(g, p, sc, b, o.Prof, o.Hints)
	}
	return newParEval(g, sc, b, o).eval(p, o.Prof)
}

// opName maps a pattern node to its profile operator name and detail.
// Only triples carry a detail (their pattern text): inner nodes are
// identified by tree position, and repeating whole sub-pattern strings
// would bloat every profile response.
func opName(p Pattern) (op, detail string) {
	switch q := p.(type) {
	case TriplePattern:
		return "triple", q.String()
	case And:
		return "and", ""
	case Union:
		return "union", ""
	case Opt:
		return "opt", ""
	case Filter:
		return "filter", ""
	case Select:
		return "select", ""
	case NS:
		return "ns", ""
	}
	return fmt.Sprintf("%T", p), ""
}

// childNode attaches a profile node for pattern p under parent (nil in,
// nil out: the uninstrumented path never allocates).
func childNode(parent *obs.Node, p Pattern) *obs.Node {
	if parent == nil {
		return nil
	}
	op, detail := opName(p)
	return parent.Child(op, detail)
}

// evalInstrumented wraps one operator evaluation with the profile
// counters common to the serial and parallel engines: wall time and
// budget deltas over the call's window, then rows out and dedup hits of
// the result.  Budget deltas include the children evaluated inside the
// window (see obs.Node.AddBudget); the root node's totals are exact.
func evalInstrumented(node *obs.Node, b *Budget, eval func() (*RowSet, error)) (*RowSet, error) {
	if node == nil {
		return eval()
	}
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	rs, err := eval()
	node.AddWall(time.Since(start))
	steps1, rows1, bytes1 := b.Counters()
	node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
	if err != nil {
		return nil, err
	}
	node.AddRowsOut(int64(rs.Len()))
	node.AddDedupHits(rs.DedupHits())
	return rs, nil
}

// recordNS attributes an NS operator's pruning to its profile node:
// total candidates vs survivors, plus the per-presence-mask breakdown
// (survivors are a subset of candidates, so every survivor mask has a
// candidate bucket).
func recordNS(node *obs.Node, in, out *RowSet) {
	if node == nil {
		return
	}
	node.AddNS(int64(in.Len()), int64(out.Len()))
	type cs struct{ c, s int64 }
	buckets := make(map[uint64]*cs)
	for i := 0; i < in.Len(); i++ {
		m := in.masks[i]
		b := buckets[m]
		if b == nil {
			b = &cs{}
			buckets[m] = b
		}
		b.c++
	}
	for i := 0; i < out.Len(); i++ {
		buckets[out.masks[i]].s++
	}
	for m, b := range buckets {
		node.AddNSBucket(m, b.c, b.s)
	}
}

// evalRowsB is the bottom-up evaluator over rows; every sub-result uses
// the same query-wide schema, and every operator runs its budgeted
// variant so a hostile sub-pattern cannot outrun the governor.  parent
// is the enclosing profile node (nil disables instrumentation); h
// carries the planner's join-strategy hints (nil = structural auto).
func evalRowsB(g rdf.Store, p Pattern, sc *VarSchema, b *Budget, parent *obs.Node, h *EvalHints) (*RowSet, error) {
	node := childNode(parent, p)
	return evalInstrumented(node, b, func() (*RowSet, error) {
		return evalRowsOp(g, p, sc, b, node, h)
	})
}

// evalRowsOp dispatches one operator, recursing through evalRowsB so
// the children attach under node.  Rows-in is the operand total fed to
// the operator (its own output is recorded by the wrapper).
func evalRowsOp(g rdf.Store, p Pattern, sc *VarSchema, b *Budget, node *obs.Node, h *EvalHints) (*RowSet, error) {
	if err := b.Step(); err != nil {
		return nil, err
	}
	switch q := p.(type) {
	case TriplePattern:
		return evalTripleRowsB(g, q, sc, b, node)
	case And:
		if h.JoinStrategyFor(p) != StrategyHash {
			if rs, handled, err := tryMergeScanJoin(g, q.L, q.R, sc, b, node, false); handled {
				return rs, err
			}
		}
		l, err := evalRowsB(g, q.L, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		r, err := evalRowsB(g, q.R, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		return l.JoinB(r, b)
	case Union:
		l, err := evalRowsB(g, q.L, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		r, err := evalRowsB(g, q.R, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		return l.UnionB(r, b)
	case Opt:
		if h.JoinStrategyFor(p) != StrategyHash {
			if rs, handled, err := tryMergeScanJoin(g, q.L, q.R, sc, b, node, true); handled {
				return rs, err
			}
		}
		l, err := evalRowsB(g, q.L, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		r, err := evalRowsB(g, q.R, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		return l.LeftJoinB(r, b)
	case Filter:
		inner, err := evalRowsB(g, q.P, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		return inner.FilterB(CompileCond(q.Cond, sc, g.Dict()), b)
	case Select:
		inner, err := evalRowsB(g, q.P, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		return inner.ProjectB(sc.SlotMask(q.Vars), b)
	case NS:
		inner, err := evalRowsB(g, q.P, sc, b, node, h)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.MaximalB(b)
		if err != nil {
			return nil, err
		}
		recordNS(node, inner, out)
		return out, nil
	default:
		return nil, ErrUnsupportedPattern{Pattern: p}
	}
}

// tripleSlots resolves the positions of a triple pattern against a
// schema and dictionary: each position is either a constant ID or a
// slot index.  ok = false when a constant is absent from the
// dictionary (the pattern matches nothing).
type tripleSlots struct {
	constID [3]rdf.ID
	isConst [3]bool
	slot    [3]int
	mask    uint64 // slots of the variable positions, i.e. var(t)
}

func resolveTriple(t TriplePattern, sc *VarSchema, d *rdf.Dict) (tripleSlots, bool) {
	var ts tripleSlots
	for i, v := range [3]Value{t.S, t.P, t.O} {
		if v.IsVar() {
			s, ok := sc.Slot(v.Var())
			if !ok {
				// Schema built from var(P) always covers var(t).
				panic("sparql: triple variable outside schema")
			}
			ts.slot[i] = s
			ts.mask |= 1 << uint(s)
			continue
		}
		id, ok := d.Lookup(v.IRI())
		if !ok {
			return ts, false
		}
		ts.isConst[i] = true
		ts.constID[i] = id
	}
	return ts, true
}

// bindTriple writes the matched IDs of a triple into the variable slots
// of dst, reporting false when a repeated variable would need two
// different images.  Positions bound as constants are skipped (the
// index already constrained them).
func (ts *tripleSlots) bindTriple(dst []rdf.ID, tr rdf.IDTriple, boundMask uint64) (uint64, bool) {
	vals := [3]rdf.ID{tr.S, tr.P, tr.O}
	written := boundMask
	for i := 0; i < 3; i++ {
		if ts.isConst[i] {
			continue
		}
		bit := uint64(1) << uint(ts.slot[i])
		if written&bit != 0 {
			if dst[ts.slot[i]] != vals[i] {
				return 0, false
			}
			continue
		}
		dst[ts.slot[i]] = vals[i]
		written |= bit
	}
	return written, true
}

// EvalTripleDelta computes the matches of t among a slice of delta
// triples given in the dictionary's ID space — the Δ⟦t⟧ rule of
// incremental view maintenance, evaluated without building a delta
// graph (which would carry its own, incompatible dictionary).
func EvalTripleDelta(t TriplePattern, sc *VarSchema, d *rdf.Dict, delta []rdf.IDTriple) *RowSet {
	out, _ := EvalTripleDeltaB(t, sc, d, delta, nil)
	return out
}

// EvalTripleDeltaB is EvalTripleDelta under a governor.
func EvalTripleDeltaB(t TriplePattern, sc *VarSchema, d *rdf.Dict, delta []rdf.IDTriple, b *Budget) (*RowSet, error) {
	out := NewRowSet(sc)
	ts, ok := resolveTriple(t, sc, d)
	if !ok {
		return out, nil
	}
	scratch := make([]rdf.ID, sc.Len())
	for _, tr := range delta {
		if err := b.Step(); err != nil {
			return nil, err
		}
		vals := [3]rdf.ID{tr.S, tr.P, tr.O}
		match := true
		for i := 0; i < 3; i++ {
			if ts.isConst[i] && ts.constID[i] != vals[i] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if _, ok := ts.bindTriple(scratch, tr, 0); ok {
			out.Add(scratch, ts.mask)
		}
	}
	return out, nil
}

// evalTripleRowsB computes ⟦t⟧_G directly on the ID-level indexes: a
// constant in any of the three positions selects the matching index
// order (SPO/POS/OSP) via MatchIDs, and repeated variables are checked
// in ID space.  Each index probe charges one budget step; the scan is
// recorded as one range scan on the pattern's profile node.
func evalTripleRowsB(g rdf.Store, t TriplePattern, sc *VarSchema, b *Budget, node *obs.Node) (*RowSet, error) {
	out := NewRowSet(sc)
	ts, ok := resolveTriple(t, sc, g.Dict())
	if !ok {
		return out, nil
	}
	node.AddRangeScans(1)
	var sp, pp, op *rdf.ID
	if ts.isConst[0] {
		sp = &ts.constID[0]
	}
	if ts.isConst[1] {
		pp = &ts.constID[1]
	}
	if ts.isConst[2] {
		op = &ts.constID[2]
	}
	scratch := make([]rdf.ID, sc.Len())
	var err error
	g.MatchIDs(sp, pp, op, func(tr rdf.IDTriple) bool {
		if err = b.Step(); err != nil {
			return false
		}
		if _, ok := ts.bindTriple(scratch, tr, 0); ok {
			if err = out.addCharged(scratch, ts.mask, b); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
