// Package views implements materialized CONSTRUCT views with
// incremental maintenance under triple insertions.
//
// This is the practical payoff of Section 6 of the paper: a CONSTRUCT
// query in the monotone fragment CONSTRUCT[AUF] (Corollary 6.8) never
// retracts output triples when the base graph grows, so a materialized
// view can be maintained by *adding* the triples derived from the
// delta — no recomputation, no deletions.  Non-monotone queries (OPT,
// NS or SELECT in the WHERE clause) are rejected at construction time;
// for them, monotone maintenance would be unsound.
//
// The delta evaluation is the semi-naive rule set over the mapping
// algebra (with G the already-updated base graph):
//
//	Δ⟦t⟧            = matches of t in Δ
//	Δ⟦P1 AND P2⟧    = Δ⟦P1⟧ ⋈ ⟦P2⟧_G  ∪  ⟦P1⟧_G ⋈ Δ⟦P2⟧
//	Δ⟦P1 UNION P2⟧  = Δ⟦P1⟧ ∪ Δ⟦P2⟧
//	Δ⟦P FILTER R⟧   = {µ ∈ Δ⟦P⟧ | µ ⊨ R}
//
// which computes a superset of the genuinely new answers and a subset
// of ⟦P⟧_G — exactly what is needed to extend the view.  The AND rule's
// ⟦·⟧_G probes run as constrained evaluations seeded by the (small)
// delta side, so an insert costs ~|Δ| index probes, independent of |G|.
//
// The delta rules run on the ID-native row runtime: the delta is a
// slice of rdf.IDTriple in the base dictionary's ID space, Δ⟦t⟧ scans
// it with sparql.EvalTripleDelta, and the ⟦·⟧_G probes seed a
// sparql.Searcher with each delta row.  WHERE clauses wider than
// sparql.MaxSchemaVars do not fit the row runtime; for them the delta
// answer set is ⟦WHERE⟧ recomputed on the updated base by the
// reference evaluator — every genuinely new answer is in it and every
// answer in it is valid, so it extends the view just as well.
package views

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// View is a materialized monotone CONSTRUCT view over a base graph.
type View struct {
	query sparql.ConstructQuery
	base  rdf.Store
	out   rdf.Store
	sc    *sparql.VarSchema // nil: WHERE wider than MaxSchemaVars, recomputed per insert
}

// New materializes a CONSTRUCT[AUF] view over a snapshot of the base
// graph.  The base graph is cloned into a fresh in-memory store: the
// view is updated exclusively through Insert, so that its state stays
// consistent.  To maintain a view directly over a shared (for example
// durable) store, use Over.
func New(q sparql.ConstructQuery, base rdf.Store) (*View, error) {
	return newView(q, base, true)
}

// Over materializes a CONSTRUCT[AUF] view directly over base, without
// cloning it.  The view adopts the store: after Over returns, base
// must be mutated exclusively through the view's Insert, which keeps
// (base, out) consistent and stages each insert as one atomic
// durability batch — on a durable backend, a rolled-back insert leaves
// no committed WAL records.
func Over(q sparql.ConstructQuery, base rdf.Store) (*View, error) {
	return newView(q, base, false)
}

func newView(q sparql.ConstructQuery, base rdf.Store, clone bool) (*View, error) {
	if !sparql.InFragment(q.Where, sparql.FragmentAUF) {
		return nil, fmt.Errorf("views: WHERE clause outside CONSTRUCT[AUF] (the monotone fragment, Corollary 6.8): %s", q.Where)
	}
	v := &View{query: q, base: base}
	if clone {
		v.base = rdf.CloneStore(base)
	}
	if sc, ok := sparql.SchemaFor(q.Where); ok {
		v.sc = sc
	}
	v.out = sparql.EvalConstruct(v.base, q)
	return v, nil
}

// Graph returns the materialized output graph.  Callers must not
// modify it.
func (v *View) Graph() rdf.Store { return v.out }

// Base returns the view's snapshot of the base graph.  Callers must
// not modify it; use Insert.
func (v *View) Base() rdf.Store { return v.base }

// Insert adds triples to the base graph and incrementally extends the
// output, returning the number of new output triples.
//
// The budget b governs the delta evaluation (nil disables
// accounting), and the operation is atomic with respect to failure:
// if the governor aborts, the freshly inserted base triples are
// removed again and the output graph is left untouched, so the view
// never holds a half-maintained state.  The returned error is the
// budget's typed error.  When prof is non-nil, a "view-insert" node is
// attached under it recording the delta size (rows in), the new output
// triples (rows out), wall time, and budget consumption of the delta
// evaluation.
func (v *View) Insert(b *sparql.Budget, prof *obs.Node, triples ...rdf.Triple) (int, error) {
	if err := b.Err(); err != nil {
		return 0, err // a poisoned budget fails before mutating the base
	}
	var node *obs.Node
	var start time.Time
	var steps0, rows0, bytes0 int64
	if prof != nil {
		node = prof.Child("view-insert", "")
		start = time.Now()
		steps0, rows0, bytes0 = b.Counters()
	}
	finish := func(deltaLen, added int) {
		if node == nil {
			return
		}
		node.AddWall(time.Since(start))
		steps1, rows1, bytes1 := b.Counters()
		node.AddBudget(steps1-steps0, rows1-rows0, bytes1-bytes0)
		node.AddRowsIn(int64(deltaLen))
		node.AddRowsOut(int64(added))
	}
	// The whole insert is one durability batch: the adds (and, on the
	// unwind path, their compensating removes) stay staged until the
	// delta evaluation succeeds, so a durable base commits either one
	// atomic WAL record for the full insert or nothing at all.
	v.base.BeginBatch()
	var delta []rdf.Triple
	for _, t := range triples {
		if v.base.AddTriple(t) {
			delta = append(delta, t)
		}
	}
	if len(delta) == 0 {
		v.base.AbortBatch() // nothing staged; nothing to persist
		finish(0, 0)
		return 0, nil
	}
	newAnswers, err := v.deltaAnswers(delta, b)
	if err != nil {
		// Unwind: the output was not touched yet; removing the delta
		// restores the base, keeping (base, out) consistent.  The
		// removes land in the same open batch as the adds, and the
		// abort discards both — a rolled-back insert must not leave
		// committed WAL records on a durable base.
		for _, t := range delta {
			v.base.Remove(t.S, t.P, t.O)
		}
		v.base.AbortBatch()
		finish(len(delta), 0)
		return 0, err
	}
	if err := v.base.CommitBatch(); err != nil {
		// The log rejected the batch (I/O failure on a durable base).
		// Re-sync memory with the log's view of the world: remove the
		// delta again, discarding the compensating records unwritten.
		v.base.BeginBatch()
		for _, t := range delta {
			v.base.Remove(t.S, t.P, t.O)
		}
		v.base.AbortBatch()
		finish(len(delta), 0)
		return 0, err
	}
	added := 0
	for _, mu := range newAnswers.Mappings() {
		for _, tp := range v.query.Template {
			if tr, ok := mu.Apply(tp); ok {
				if v.out.AddTriple(tr) {
					added++
				}
			}
		}
	}
	finish(len(delta), added)
	return added, nil
}

// deltaAnswers computes the delta answer set on the row runtime, or,
// for WHERE clauses wider than MaxSchemaVars, recomputes ⟦WHERE⟧ on the
// updated base.
func (v *View) deltaAnswers(delta []rdf.Triple, b *sparql.Budget) (*sparql.MappingSet, error) {
	if v.sc == nil {
		return sparql.EvalBudget(v.base, v.query.Where, b)
	}
	return v.deltaEvalRows(delta, b)
}

// deltaEvalRows runs the delta rules on the row runtime.  AddTriple has
// interned the delta's IRIs into the base dictionary, so the delta maps
// losslessly into ID space.
//
// The probes may fan out across goroutines (see probe), all reading
// the base graph; the read snapshot makes any concurrent mutation of
// the base — which would corrupt an index under a worker — fail
// loudly at the write site for the duration of the evaluation.
func (v *View) deltaEvalRows(delta []rdf.Triple, b *sparql.Budget) (*sparql.MappingSet, error) {
	release := v.base.AcquireRead()
	defer release()
	d := v.base.Dict()
	idDelta := make([]rdf.IDTriple, len(delta))
	for i, t := range delta {
		s, _ := d.Lookup(t.S)
		p, _ := d.Lookup(t.P)
		o, _ := d.Lookup(t.O)
		idDelta[i] = rdf.IDTriple{S: s, P: p, O: o}
	}
	s := sparql.NewSearcherBudget(v.base, v.sc, b)
	rs, err := v.deltaRows(idDelta, v.query.Where, s)
	if err != nil {
		return nil, err
	}
	return rs.MappingSet(d), nil
}

func (v *View) deltaRows(delta []rdf.IDTriple, p sparql.Pattern, s *sparql.Searcher) (*sparql.RowSet, error) {
	switch q := p.(type) {
	case sparql.TriplePattern:
		return sparql.EvalTripleDeltaB(q, v.sc, v.base.Dict(), delta, s.Budget())
	case sparql.And:
		dl, err := v.deltaRows(delta, q.L, s)
		if err != nil {
			return nil, err
		}
		l, err := v.probe(dl, q.R, s)
		if err != nil {
			return nil, err
		}
		dr, err := v.deltaRows(delta, q.R, s)
		if err != nil {
			return nil, err
		}
		r, err := v.probe(dr, q.L, s)
		if err != nil {
			return nil, err
		}
		return l.UnionB(r, s.Budget())
	case sparql.Union:
		l, err := v.deltaRows(delta, q.L, s)
		if err != nil {
			return nil, err
		}
		r, err := v.deltaRows(delta, q.R, s)
		if err != nil {
			return nil, err
		}
		return l.UnionB(r, s.Budget())
	case sparql.Filter:
		inner, err := v.deltaRows(delta, q.P, s)
		if err != nil {
			return nil, err
		}
		return inner.FilterB(
			sparql.CompileCond(q.Cond, v.sc, v.base.Dict()), s.Budget())
	default:
		// New() admits only CONSTRUCT[AUF]; reaching this means the
		// pattern was mutated behind the view's back.
		return nil, sparql.ErrUnsupportedPattern{Pattern: p}
	}
}

// parProbeMin is the delta size (in rows) below which the probe loop
// stays on one goroutine: spinning up per-worker searchers only pays
// off once there are enough independent probes to share out.
const parProbeMin = 64

// probe computes small ⋈ ⟦p⟧_G by seeding a searcher with each delta
// row and streaming the compatible solutions of p — the
// index-nested-loop delta join, without allocating a mapping per probe
// step.
//
// The probes are independent (each reads the base graph and writes
// only its own output), so large deltas fan out across GOMAXPROCS
// goroutines: each worker gets a contiguous chunk of delta rows and
// its own Searcher, while all workers share s's Budget — safe, since
// Budget accounting is atomic — so one governor bounds the whole
// insert no matter how many workers it uses.
func (v *View) probe(small *sparql.RowSet, p sparql.Pattern, s *sparql.Searcher) (*sparql.RowSet, error) {
	workers := runtime.GOMAXPROCS(0)
	if small.Len() >= parProbeMin && workers > 1 {
		if workers > small.Len()/(parProbeMin/2) {
			workers = small.Len() / (parProbeMin / 2)
		}
		return v.probeChunked(small, p, s.Budget(), workers)
	}
	return v.probeRange(small, 0, small.Len(), p, s)
}

// probeRange runs the probes for delta rows [lo, hi) on one searcher.
func (v *View) probeRange(small *sparql.RowSet, lo, hi int, p sparql.Pattern, s *sparql.Searcher) (*sparql.RowSet, error) {
	out := sparql.NewRowSet(v.sc)
	for i := lo; i < hi; i++ {
		r := small.Row(i)
		s.Seed(r)
		if err := s.Search(p, r.Mask, func(m uint64) bool {
			out.Add(s.IDs(), r.Mask|m)
			return true
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeChunked shares the delta rows across workers and merges the
// per-worker results in chunk order.  Every worker is joined before
// returning, error or not, so a governed abort drains cleanly and the
// caller's rollback never races a live probe.
func (v *View) probeChunked(small *sparql.RowSet, p sparql.Pattern, b *sparql.Budget, workers int) (*sparql.RowSet, error) {
	outs := make([]*sparql.RowSet, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := w*small.Len()/workers, (w+1)*small.Len()/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			outs[w], errs[w] = v.probeRange(small, lo, hi, p, sparql.NewSearcherBudget(v.base, v.sc, b))
		}(w, lo, hi)
	}
	outs[0], errs[0] = v.probeRange(small, 0, small.Len()/workers, p, sparql.NewSearcherBudget(v.base, v.sc, b))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := outs[0]
	for _, part := range outs[1:] {
		for i := 0; i < part.Len(); i++ {
			out.AddRow(part.Row(i))
		}
	}
	return out, nil
}
