package sparql

import (
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// BindJoinScan joins an accumulated row set with ⟦t⟧_G by index
// nested-loop: for each accumulator row, the row's bindings for t's
// variables are pinned as constants and the matching index permutation
// is probed directly (rdf.Store.MatchIDs), instead of scanning and
// hashing the pattern's full extension.  With the sorted permutation
// store every probe is one O(log n) range lookup, so the cost is
// |acc| probes plus the matched triples — the winning strategy when a
// selective prefix meets a large predicate, and the reason the
// adaptive executor can beat any static plan on selective chains.
//
// The result is exactly acc ⋈ ⟦t⟧_G under the row algebra's
// compatibility semantics: pinned slots enforce equality on shared
// bound variables, bindTriple rejects repeated-variable mismatches,
// and slots unbound in a given accumulator row simply stay free in
// the probe (that row's probe degrades toward a wider scan, keeping
// the join exact for heterogeneous masks).
func BindJoinScan(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget, parent *obs.Node) (*RowSet, error) {
	return bindJoinScanPar(g, acc, t, b, nil, 0, parent)
}

// BindJoinScanPar is BindJoinScan with the accumulator's rows split
// into morsels dispatched across a bounded worker pool: each worker
// probes the sorted indexes for a contiguous chunk of accumulator rows
// into a private RowSet, and the per-morsel results merge through the
// open-addressed dedup (mergeParts).  workers counts the calling
// goroutine; minPart is the accumulator size below which the join
// stays serial (0 = DefaultMinPartition).  The budget is shared and
// atomic, so a governor trip or injected fault stops every morsel
// within a stride and the pool drains before the error returns.
func BindJoinScanPar(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget, workers, minPart int, parent *obs.Node) (*RowSet, error) {
	o := ParOptions{MinPartition: minPart}
	return bindJoinScanPar(g, acc, t, b, newPool(workers-1), o.minPartition(), parent)
}

func bindJoinScanPar(g rdf.Store, acc *RowSet, t TriplePattern, b *Budget, po *pool, minPart int, parent *obs.Node) (*RowSet, error) {
	var out *RowSet
	node := parent.Child("bindjoin", t.String())
	start := time.Now()
	steps0, rows0, bytes0 := b.Counters()
	defer func() {
		if node != nil {
			node.AddWall(time.Since(start))
			steps1, rows1, bytes1 := b.Counters()
			node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
			if out != nil {
				node.AddRowsOut(int64(out.Len()))
			}
		}
	}()
	ts, ok := resolveTriple(t, acc.Schema, g.Dict())
	if !ok {
		// A constant of t is not in the dictionary: ⟦t⟧_G = ∅.
		out = NewRowSet(acc.Schema)
		return out, nil
	}
	node.AddRowsIn(int64(acc.Len()))
	if po == nil || acc.Len() < minPart {
		o := NewRowSet(acc.Schema)
		if err := bindProbeRange(g, acc, &ts, 0, acc.Len(), o, b, node); err != nil {
			return nil, err
		}
		out = o
		return out, nil
	}
	parts, err := parChunks(po, acc.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
		part := NewRowSet(acc.Schema)
		if err := bindProbeRange(g, acc, &ts, lo, hi, part, b, node); err != nil {
			return nil, err
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}
	node.AddPartitions(int64(len(parts)))
	merged, err := mergeParts(parts, b)
	if err != nil {
		return nil, err
	}
	out = merged
	return out, nil
}

// bindProbeRange probes the sorted indexes for accumulator rows
// [lo, hi), appending the join output to out — the per-morsel work of
// the bind join, shared by the serial and parallel paths.  out is
// private to the caller; the budget and profile node are shared and
// atomic.
func bindProbeRange(g rdf.Store, acc *RowSet, ts *tripleSlots, lo, hi int, out *RowSet, b *Budget, node *obs.Node) error {
	scratch := make([]rdf.ID, acc.Schema.Len())
	for i := lo; i < hi; i++ {
		row, rowMask := acc.RowIDs(i), acc.Mask(i)
		var vals [3]rdf.ID
		var probe [3]*rdf.ID
		for j := 0; j < 3; j++ {
			if ts.isConst[j] {
				vals[j] = ts.constID[j]
				probe[j] = &vals[j]
			} else if rowMask&(1<<uint(ts.slot[j])) != 0 {
				vals[j] = row[ts.slot[j]]
				probe[j] = &vals[j]
			}
		}
		if err := b.Step(); err != nil {
			return err
		}
		node.AddRangeScans(1)
		node.AddBindProbes(1)
		var err error
		g.MatchIDs(probe[0], probe[1], probe[2], func(tr rdf.IDTriple) bool {
			if err = b.Step(); err != nil {
				return false
			}
			copy(scratch, row)
			if mask, ok := ts.bindTriple(scratch, tr, rowMask); ok {
				if err = out.addCharged(scratch, mask, b); err != nil {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
