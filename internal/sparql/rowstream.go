package sparql

import (
	"repro/internal/rdf"
)

// Searcher is a streaming, backtracking evaluator over the ID-native
// row representation.  It owns a single row buffer: triple matches bind
// slots in place and presence masks are passed by value, so extending a
// partial solution costs zero allocations and "undoing" a binding on
// backtrack is simply dropping its mask bit — no Mapping.Clone() per
// search node.
//
// Search streams the solutions of a pattern that extend a seed
// environment; exec's ASK, Limit and ConstructContains and the views
// delta probes are built on it.  For the monotone operators the search is the classic
// certificate hunt (Section 7); OPT and NS need complete sub-answer
// sets and fall back to the constrained reference evaluator at their
// boundary.
//
// A Searcher carries an optional *Budget (see budget.go): every triple
// index probe charges one step, so cancellation, deadlines, step
// limits and injected faults all surface as typed errors from Search,
// unwinding the recursion cleanly.
type Searcher struct {
	g       rdf.Store
	sc      *VarSchema
	ids     []rdf.ID
	budget  *Budget
	triples map[TriplePattern]tripleSlots
	dead    map[TriplePattern]bool // constants absent from the dictionary
	conds   map[Condition]RowCond
}

// NewSearcher returns a searcher for patterns over the schema with no
// resource budget.
func NewSearcher(g rdf.Store, sc *VarSchema) *Searcher {
	return NewSearcherBudget(g, sc, nil)
}

// NewSearcherBudget returns a searcher governed by b (nil disables all
// accounting).
func NewSearcherBudget(g rdf.Store, sc *VarSchema, b *Budget) *Searcher {
	return &Searcher{
		g:       g,
		sc:      sc,
		ids:     make([]rdf.ID, sc.Len()),
		budget:  b,
		triples: make(map[TriplePattern]tripleSlots),
		dead:    make(map[TriplePattern]bool),
		conds:   make(map[Condition]RowCond),
	}
}

// Schema returns the searcher's variable schema.
func (s *Searcher) Schema() *VarSchema { return s.sc }

// Budget returns the searcher's budget (nil when ungoverned).
func (s *Searcher) Budget() *Budget { return s.budget }

// IDs exposes the shared row buffer.  During an emit callback, the
// slots of the emitted solution mask hold the solution's IDs; callers
// must copy what they keep.
func (s *Searcher) IDs() []rdf.ID { return s.ids }

// Seed copies the bound slots of r into the row buffer; pass r.Mask as
// the envMask of the subsequent Search.
func (s *Searcher) Seed(r Row) {
	for m := r.Mask; m != 0; m &= m - 1 {
		i := trailingZeros(m)
		s.ids[i] = r.IDs[i]
	}
}

// Decode converts the current buffer restricted to mask into a string
// mapping.
func (s *Searcher) Decode(mask uint64) Mapping {
	return Codec{Schema: s.sc, Dict: s.g.Dict()}.DecodeMasked(s.ids, mask)
}

func (s *Searcher) resolved(t TriplePattern) (tripleSlots, bool) {
	if s.dead[t] {
		return tripleSlots{}, false
	}
	if ts, ok := s.triples[t]; ok {
		return ts, true
	}
	ts, ok := resolveTriple(t, s.sc, s.g.Dict())
	if !ok {
		s.dead[t] = true
		return tripleSlots{}, false
	}
	s.triples[t] = ts
	return ts, true
}

func (s *Searcher) compiled(c Condition) RowCond {
	if rc, ok := s.conds[c]; ok {
		return rc
	}
	rc := CompileCond(c, s.sc, s.g.Dict())
	s.conds[c] = rc
	return rc
}

// Search streams the solutions of p that are compatible extensions of
// the environment (the buffer slots in envMask), calling emit with each
// solution's presence mask; the solution's IDs sit in the buffer.
// Duplicates may be emitted (e.g. via UNION) — callers deduplicate.
// emit returns false to stop the search early (not an error).
//
// Search returns nil on a complete or emit-stopped search, a typed
// ErrUnsupportedPattern for a malformed plan, and the budget's error
// (ErrCanceled or ErrBudgetExceeded) when the governor halts the
// query.  In every case the recursion unwinds cleanly: the searcher
// holds no locks and keeps no partial state beyond its scratch buffer.
func (s *Searcher) Search(p Pattern, envMask uint64, emit func(solMask uint64) bool) error {
	_, err := s.search(p, envMask, emit)
	return err
}

// Iterate is the legacy entry point: Search without error reporting.
// It reports whether the search ran to completion; a governor stop or
// an unsupported pattern reads as "stopped early" (false) instead of
// panicking.  New callers should use Search.
func (s *Searcher) Iterate(p Pattern, envMask uint64, emit func(solMask uint64) bool) bool {
	cont, err := s.search(p, envMask, emit)
	return cont && err == nil
}

// search is the recursive core: cont = false when emit stopped the
// search, err != nil when the governor or a malformed plan did.
func (s *Searcher) search(p Pattern, envMask uint64, emit func(uint64) bool) (bool, error) {
	if err := s.budget.Step(); err != nil {
		return false, err
	}
	switch q := p.(type) {
	case TriplePattern:
		return s.streamTriple(q, envMask, emit)
	case And:
		var innerErr error
		cont, err := s.search(q.L, envMask, func(ml uint64) bool {
			c, e := s.search(q.R, envMask|ml, func(mr uint64) bool {
				return emit(ml | mr)
			})
			if e != nil {
				innerErr = e
				return false
			}
			return c
		})
		if err == nil {
			err = innerErr
		}
		if err != nil {
			return false, err
		}
		return cont, nil
	case Union:
		cont, err := s.search(q.L, envMask, emit)
		if err != nil || !cont {
			return cont, err
		}
		return s.search(q.R, envMask, emit)
	case Filter:
		cond := s.compiled(q.Cond)
		return s.search(q.P, envMask, func(m uint64) bool {
			if !cond(s.ids, m) {
				return true
			}
			return emit(m)
		})
	case Select:
		return s.searchSelect(q, envMask, emit)
	case Opt, NS:
		// Non-monotone: the survivors depend on the whole sub-answer
		// set.  Evaluate compatibly with the environment (under the same
		// budget) and stream the results back through the row buffer.
		env := s.Decode(envMask)
		ms, err := EvalCompatibleBudget(s.g, p, env, s.budget)
		if err != nil {
			return false, err
		}
		d := s.g.Dict()
		for _, mu := range ms.Mappings() {
			var m uint64
			ok := true
			for v, iri := range mu {
				i, found := s.sc.Slot(v)
				if !found {
					ok = false
					break
				}
				id, found := d.Lookup(iri)
				if !found {
					ok = false
					break
				}
				s.ids[i] = id
				m |= 1 << uint(i)
			}
			if !ok {
				continue
			}
			if !emit(m) {
				return false, nil
			}
		}
		return true, nil
	default:
		return false, ErrUnsupportedPattern{Pattern: p}
	}
}

// searchSelect projects and deduplicates locally.  The inner pattern
// runs on its own buffer: hidden variables (outside the SELECT list)
// must not be constrained by — nor clobber — the outer environment.
// The inner searcher shares the outer budget, so the governor sees one
// continuous step count.
func (s *Searcher) searchSelect(q Select, envMask uint64, emit func(uint64) bool) (bool, error) {
	selMask := s.sc.SlotMask(q.Vars)
	inner := NewSearcherBudget(s.g, s.sc, s.budget)
	innerEnv := envMask & selMask
	inner.Seed(Row{Mask: innerEnv, IDs: s.ids})
	seen := NewRowSet(s.sc)
	return inner.search(q.P, innerEnv, func(m uint64) bool {
		proj := m & selMask
		if !seen.Add(inner.ids, proj) {
			return true
		}
		for mm := proj; mm != 0; mm &= mm - 1 {
			i := trailingZeros(mm)
			s.ids[i] = inner.ids[i]
		}
		return emit(proj)
	})
}

// streamTriple emits the matches of a triple pattern compatible with
// the environment directly from the ID-level graph indexes.  Each
// index probe charges one budget step — this is the engine's unit of
// work.
func (s *Searcher) streamTriple(t TriplePattern, envMask uint64, emit func(uint64) bool) (bool, error) {
	ts, ok := s.resolved(t)
	if !ok {
		return true, nil // a constant is unknown: no matches
	}
	// Positions that are constants or env-bound variables become index
	// constraints.
	var ptr [3]*rdf.ID
	var vals [3]rdf.ID
	for i := 0; i < 3; i++ {
		if ts.isConst[i] {
			vals[i] = ts.constID[i]
			ptr[i] = &vals[i]
		} else if envMask&(1<<uint(ts.slot[i])) != 0 {
			vals[i] = s.ids[ts.slot[i]]
			ptr[i] = &vals[i]
		}
	}
	cont := true
	var err error
	s.g.MatchIDs(ptr[0], ptr[1], ptr[2], func(tr rdf.IDTriple) bool {
		if err = s.budget.Step(); err != nil {
			cont = false
			return false
		}
		if _, ok := ts.bindTriple(s.ids, tr, envMask); !ok {
			return true // repeated variable, conflicting values
		}
		if !emit(ts.mask) {
			cont = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return cont, nil
}
