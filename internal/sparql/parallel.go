package sparql

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// This file is the parallel execution layer of the row engine: a
// bounded worker pool that evaluates independent sub-problems of one
// query concurrently, governed by a single shared Budget (whose
// counters are atomic — see budget.go).
//
// Three kinds of work fan out:
//
//   - Operator operands.  UNION branches are independent by
//     definition, and the operands of AND/OPT are independently
//     evaluable sub-queries (Semantics and Complexity of SPARQL); the
//     evaluator computes both sides of a binary operator concurrently
//     whenever a worker is free.
//   - Partitioned joins.  Large Join/Diff/LeftJoin probes are
//     hash-partitioned: the chain index of the build side is
//     constructed once (before the fan-out, so workers only read it),
//     contiguous chunks of the probe side stream against it on
//     separate workers into per-partition RowSets, and the partitions
//     merge through the existing open-addressed dedup.
//   - NS sharding.  Maximal buckets rows by presence mask; buckets
//     only read shared state and produce private "subsumed" lists, so
//     they shard across workers with a final cross-shard sweep that
//     drops every subsumed row in deterministic row order.
//
// Concurrency safety rests on three facts: rdf.Graph and rdf.Dict are
// safe for concurrent readers (the evaluation path only ever calls
// Lookup/IRI/MatchIDs — nothing interns); every worker writes only to
// RowSets it owns; and the shared Budget is atomic, with a sticky
// error that every worker observes on its next Step, so cancellation
// and faults drain the pool promptly.
//
// Determinism: the parallel engine returns exactly the same *set* of
// rows as the serial engine (differentially tested per fragment).
// The insertion order of the result RowSet may differ from the serial
// order — partition merges append partition-by-partition — but
// decoded MappingSets compare as sets and server output is sorted, so
// no observable result depends on scheduling.

// DefaultMinPartition is the operand size (in rows) below which
// Join/Diff/Maximal stay serial: partitioning a small build costs more
// in goroutine handoff and partition merging than it saves.
const DefaultMinPartition = 512

// ParOptions tunes the parallel row engine.
type ParOptions struct {
	// Workers is the total worker count, including the calling
	// goroutine; 0 or 1 runs the serial engine.
	Workers int
	// MinPartition overrides DefaultMinPartition (0 keeps the
	// default).  Tests set it to 1 to force partitioned operators on
	// small inputs.
	MinPartition int
	// Prof, when non-nil, collects an execution profile: one child
	// node per operator, with pool and partition counters on top of
	// the serial engine's metrics.  See EvalRows.
	Prof *obs.Node
	// Hints carries the planner's per-node join-strategy decisions
	// (nil = structural auto behaviour).  See EvalHints.
	Hints *EvalHints
}

func (o ParOptions) minPartition() int {
	if o.MinPartition <= 0 {
		return DefaultMinPartition
	}
	return o.MinPartition
}

// pool is the bounded set of *extra* workers one evaluation may spawn
// (the calling goroutine is worker zero and is not accounted here).  A
// nil pool means "serial".  Acquisition never blocks: when no token is
// free the caller simply does the work inline, so the pool cannot
// deadlock no matter how operators nest.
type pool struct {
	sem chan struct{}
}

func newPool(extra int) *pool {
	if extra <= 0 {
		return nil
	}
	return &pool{sem: make(chan struct{}, extra)}
}

func (p *pool) tryAcquire() bool {
	if p == nil {
		return false
	}
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *pool) release() { <-p.sem }

// newParEval builds the parallel evaluator of one query: a pool of
// o.Workers-1 extra workers (the caller is worker zero) sharing the
// query's schema, budget and hints.
func newParEval(g rdf.Store, sc *VarSchema, b *Budget, o ParOptions) *parEval {
	return &parEval{
		g:       g,
		sc:      sc,
		b:       b,
		po:      newPool(o.Workers - 1),
		minPart: o.minPartition(),
		hints:   o.Hints,
	}
}

// parEval is the parallel bottom-up evaluator; it mirrors evalRowsB
// with concurrent operand evaluation and partitioned operators.
type parEval struct {
	g       rdf.Store
	sc      *VarSchema
	b       *Budget
	po      *pool
	minPart int
	hints   *EvalHints
}

// eval attaches a profile node for p under parent and evaluates; the
// instrumentation wrapper is shared with the serial engine.
func (e *parEval) eval(p Pattern, parent *obs.Node) (*RowSet, error) {
	return e.evalInto(p, childNode(parent, p))
}

// evalInto evaluates p into an already-created profile node — evalBoth
// creates both operand nodes before fanning out so the profile tree's
// child order is deterministic (L, R) regardless of scheduling.
func (e *parEval) evalInto(p Pattern, node *obs.Node) (*RowSet, error) {
	return evalInstrumented(node, e.b, func() (*RowSet, error) {
		return e.evalOp(p, node)
	})
}

func (e *parEval) evalOp(p Pattern, node *obs.Node) (*RowSet, error) {
	if err := e.b.Step(); err != nil {
		return nil, err
	}
	switch q := p.(type) {
	case TriplePattern:
		return evalTripleRowsB(e.g, q, e.sc, e.b, node)
	case And:
		if e.hints.JoinStrategyFor(p) != StrategyHash {
			if rs, handled, err := tryMergeScanJoin(e.g, q.L, q.R, e.sc, e.b, node, false); handled {
				return rs, err
			}
		}
		l, r, err := e.evalBoth(q.L, q.R, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		return l.joinParB(r, e.b, e.po, e.minPart, node)
	case Union:
		l, r, err := e.evalBoth(q.L, q.R, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		return l.UnionB(r, e.b)
	case Opt:
		if e.hints.JoinStrategyFor(p) != StrategyHash {
			if rs, handled, err := tryMergeScanJoin(e.g, q.L, q.R, e.sc, e.b, node, true); handled {
				return rs, err
			}
		}
		l, r, err := e.evalBoth(q.L, q.R, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(l.Len() + r.Len()))
		return l.leftJoinParB(r, e.b, e.po, e.minPart, node)
	case Filter:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		return inner.FilterB(CompileCond(q.Cond, e.sc, e.g.Dict()), e.b)
	case Select:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		return inner.ProjectB(e.sc.SlotMask(q.Vars), e.b)
	case NS:
		inner, err := e.eval(q.P, node)
		if err != nil {
			return nil, err
		}
		node.AddRowsIn(int64(inner.Len()))
		out, err := inner.maximalParB(e.b, e.po, e.minPart, node)
		if err != nil {
			return nil, err
		}
		recordNS(node, inner, out)
		return out, nil
	default:
		return nil, ErrUnsupportedPattern{Pattern: p}
	}
}

// evalBoth evaluates two sub-patterns, on two goroutines when a worker
// is free.  It always joins the spawned branch before returning —
// including on error — so an unwinding evaluation never leaves a
// worker running behind the caller's back.  The pool counters land on
// node (the binary operator that wanted the fan-out).
func (e *parEval) evalBoth(pl, pr Pattern, node *obs.Node) (*RowSet, *RowSet, error) {
	nl := childNode(node, pl)
	nr := childNode(node, pr)
	if e.po.tryAcquire() {
		node.AddPoolAcquired(1)
		var (
			r    *RowSet
			rerr error
			done = make(chan struct{})
		)
		go func() {
			defer close(done)
			defer e.po.release()
			r, rerr = e.evalInto(pr, nr)
		}()
		l, lerr := e.evalInto(pl, nl)
		<-done
		if lerr != nil {
			return nil, nil, lerr
		}
		if rerr != nil {
			return nil, nil, rerr
		}
		return l, r, nil
	}
	node.AddPoolInline(1)
	l, err := e.evalInto(pl, nl)
	if err != nil {
		return nil, nil, err
	}
	r, err := e.evalInto(pr, nr)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// parChunks splits [0, n) into contiguous chunks of at least minChunk
// elements, runs work on each — one chunk inline, the rest on pool
// workers — and returns the per-chunk results in chunk order.  Every
// spawned worker is joined before parChunks returns (clean drain); the
// first error in chunk order wins, and with a shared sticky budget all
// chunks report the same governor error anyway.  Pool counters land on
// node: tokens acquired, plus one inline fallback when the operator
// wanted more workers than the pool had free.
func parChunks[T any](po *pool, n, minChunk int, node *obs.Node, work func(lo, hi int) (T, error)) ([]T, error) {
	if minChunk < 1 {
		minChunk = 1
	}
	workers := 1
	maxWorkers := n / minChunk
	for workers < maxWorkers && po.tryAcquire() {
		workers++
	}
	node.AddPoolAcquired(int64(workers - 1))
	if workers < maxWorkers {
		node.AddPoolInline(1)
	}
	if workers == 1 {
		out, err := work(0, n)
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	outs := make([]T, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer po.release()
			outs[w], errs[w] = work(lo, hi)
		}(w, lo, hi)
	}
	outs[0], errs[0] = work(0, n/workers)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// mergeParts folds per-partition RowSets into one through the
// open-addressed dedup, in partition order.  Each partition's own
// dedup hits fold into the merged set's counter so the operator's
// profile sees every rejected duplicate, wherever it happened.
func mergeParts(parts []*RowSet, bud *Budget) (*RowSet, error) {
	out := parts[0]
	for _, p := range parts[1:] {
		out.dedup += p.dedup
		for i := 0; i < p.Len(); i++ {
			if err := bud.Step(); err != nil {
				return nil, err
			}
			if err := out.addCharged(p.RowIDs(i), p.masks[i], bud); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// joinParB is JoinB with the probe side hash-partitioned across
// workers.  The build side's chain index is constructed once by the
// caller's goroutine; each worker streams a contiguous chunk of probe
// rows against it into a private RowSet, and the partitions merge
// through the shared dedup.  Small or keyless joins stay serial.
func (s *RowSet) joinParB(t *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if s.Len() == 0 || t.Len() == 0 {
		return NewRowSet(s.Schema), nil
	}
	build, probe := s, t
	if build.Len() > probe.Len() {
		build, probe = probe, build
	}
	key := build.alwaysBoundMask() & probe.alwaysBoundMask()
	if po == nil || key == 0 || probe.Len() < minPart {
		return s.JoinB(t, bud)
	}
	head, next := build.chainIndex(key)
	parts, err := parChunks(po, probe.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
		out := NewRowSet(s.Schema)
		scratch := make([]rdf.ID, s.Schema.Len())
		for j := lo; j < hi; j++ {
			b, bm := probe.RowIDs(j), probe.masks[j]
			if err := bud.Step(); err != nil {
				return nil, err
			}
			for i := headOf(head, rowHash(b, key)); i >= 0; i = next[i] {
				if err := bud.Step(); err != nil {
					return nil, err
				}
				a, am := build.RowIDs(int(i)), build.masks[i]
				if rowsCompatible(a, am, b, bm) {
					if err := out.addCharged(scratch, mergeRows(scratch, a, am, b, bm), bud); err != nil {
						return nil, err
					}
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	node.AddPartitions(int64(len(parts)))
	return mergeParts(parts, bud)
}

// diffParB is DiffB with the left side partitioned across workers,
// each probing the shared chain index of t.
func (s *RowSet) diffParB(t *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if s.Len() == 0 {
		return NewRowSet(s.Schema), nil
	}
	key := s.alwaysBoundMask() & t.alwaysBoundMask()
	if po == nil || t.Len() == 0 || key == 0 || s.Len() < minPart {
		return s.DiffB(t, bud)
	}
	head, next := t.chainIndex(key)
	parts, err := parChunks(po, s.Len(), chunkOf(minPart), node, func(lo, hi int) (*RowSet, error) {
		out := NewRowSet(s.Schema)
		for i := lo; i < hi; i++ {
			a, am := s.RowIDs(i), s.masks[i]
			if err := bud.Step(); err != nil {
				return nil, err
			}
			compatible := false
			for j := headOf(head, rowHash(a, key)); j >= 0; j = next[j] {
				if err := bud.Step(); err != nil {
					return nil, err
				}
				if rowsCompatible(a, am, t.RowIDs(int(j)), t.masks[j]) {
					compatible = true
					break
				}
			}
			if !compatible {
				if err := out.addCharged(a, am, bud); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	node.AddPartitions(int64(len(parts)))
	return mergeParts(parts, bud)
}

// leftJoinParB is Ω1 ⟕ Ω2 with both halves partitioned.  The Join
// half often indexes t with the same key the Diff half needs, so the
// receiver-cached chain index is built once for both.
func (s *RowSet) leftJoinParB(t *RowSet, bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	j, err := s.joinParB(t, bud, po, minPart, node)
	if err != nil {
		return nil, err
	}
	d, err := s.diffParB(t, bud, po, minPart, node)
	if err != nil {
		return nil, err
	}
	return j.UnionB(d, bud)
}

// chunkOf derives the minimum chunk size from the partition threshold:
// fine enough to occupy the pool, coarse enough that per-chunk setup
// (a RowSet, a scratch row) stays amortized.
func chunkOf(minPart int) int {
	c := minPart / 4
	if c < 1 {
		c = 1
	}
	return c
}

// maximalParB is MaximalB sharded by mask bucket: rows group by
// presence mask, each bucket's subsumption hunt (hash the superset
// buckets' restrictions, probe the bucket's rows) is independent of
// every other bucket's, so buckets spread across workers.  A final
// cross-shard sweep in row order drops the subsumed rows, keeping the
// output order identical to the serial algorithm's.
func (s *RowSet) maximalParB(bud *Budget, po *pool, minPart int, node *obs.Node) (*RowSet, error) {
	if po == nil || s.Len() < minPart {
		return s.MaximalB(bud)
	}
	type bucket struct {
		mask uint64
		rows []int32
	}
	buckets := make(map[uint64]*bucket)
	order := make([]uint64, 0)
	for i := 0; i < s.Len(); i++ {
		m := s.masks[i]
		b, ok := buckets[m]
		if !ok {
			b = &bucket{mask: m}
			buckets[m] = b
			order = append(order, m)
		}
		b.rows = append(b.rows, int32(i))
	}
	if len(order) < 2 {
		// One mask: no strict superset exists, every row is maximal.
		out := NewRowSet(s.Schema)
		for i := 0; i < s.Len(); i++ {
			if err := bud.Step(); err != nil {
				return nil, err
			}
			if err := out.addCharged(s.RowIDs(i), s.masks[i], bud); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Shard the buckets: each worker hunts subsumption for a chunk of
	// buckets, reading the shared bucket map and rows (no writes) and
	// collecting its own dead-row list.
	deadParts, err := parChunks(po, len(order), 1, node, func(lo, hi int) ([]int32, error) {
		var dead []int32
		for _, m := range order[lo:hi] {
			b := buckets[m]
			var superKeys *RowSet
			for m2, b2 := range buckets {
				if m2 == m || m&^m2 != 0 {
					continue
				}
				// m ⊊ m2: hash the m-restrictions of the superset bucket.
				if superKeys == nil {
					superKeys = NewRowSet(s.Schema)
				}
				for _, j := range b2.rows {
					if err := bud.Step(); err != nil {
						return nil, err
					}
					superKeys.Add(s.RowIDs(int(j)), m)
				}
			}
			if superKeys == nil {
				continue
			}
			for _, i := range b.rows {
				if err := bud.Step(); err != nil {
					return nil, err
				}
				if superKeys.Contains(s.RowIDs(int(i)), m) {
					dead = append(dead, i)
				}
			}
		}
		return dead, nil
	})
	if err != nil {
		return nil, err
	}
	node.AddPartitions(int64(len(deadParts)))
	// Cross-shard sweep: merge the shards' dead lists and emit the
	// survivors in row order (the serial algorithm's order).
	dead := make([]bool, s.Len())
	for _, part := range deadParts {
		for _, i := range part {
			dead[i] = true
		}
	}
	out := NewRowSet(s.Schema)
	for i := 0; i < s.Len(); i++ {
		if err := bud.Step(); err != nil {
			return nil, err
		}
		if !dead[i] {
			if err := out.addCharged(s.RowIDs(i), s.masks[i], bud); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
