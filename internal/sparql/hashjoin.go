package sparql

// Hash-based join for mapping sets.  The textbook nested-loop join in
// Join is the reference implementation; JoinHash produces the same set
// by bucketing the right-hand side on the variables that are bound in
// *every* mapping of both sides.  When the two sides are homogeneous
// (the common case: answers to triple patterns and their joins), this
// turns the O(|Ω1|·|Ω2|) pairing into a hash probe.

// alwaysBoundVars returns the variables bound in every mapping of the
// set (sorted); for the empty set it returns nil.
func (s *MappingSet) alwaysBoundVars() []Var {
	if len(s.items) == 0 {
		return nil
	}
	counts := make(map[Var]int)
	for _, mu := range s.items {
		for v := range mu {
			counts[v]++
		}
	}
	var out []Var
	for v, c := range counts {
		if c == len(s.items) {
			out = append(out, v)
		}
	}
	sortVars(out)
	return out
}

// JoinHash returns Ω1 ⋈ Ω2, equal to Join but using a hash index on
// the shared always-bound variables of the two sides.  Mappings that
// agree on the key still undergo the full compatibility check, so the
// result is exact even when domains are heterogeneous.
func (s *MappingSet) JoinHash(t *MappingSet) *MappingSet {
	if s.Len() == 0 || t.Len() == 0 {
		return NewMappingSet()
	}
	// Probe with the larger side, build on the smaller.
	build, probe := s, t
	if build.Len() > probe.Len() {
		build, probe = probe, build
	}
	key := intersectVars(build.alwaysBoundVars(), probe.alwaysBoundVars())
	if len(key) == 0 {
		// No common always-bound variables: fall back to nested loop.
		return s.Join(t)
	}
	index := make(map[string][]Mapping, build.Len())
	for _, mu := range build.items {
		k := mu.Restrict(key).key()
		index[k] = append(index[k], mu)
	}
	out := NewMappingSet()
	for _, nu := range probe.items {
		k := nu.Restrict(key).key()
		for _, mu := range index[k] {
			if mu.CompatibleWith(nu) {
				out.Add(mu.Merge(nu))
			}
		}
	}
	return out
}

func intersectVars(a, b []Var) []Var {
	set := make(map[Var]struct{}, len(a))
	for _, v := range a {
		set[v] = struct{}{}
	}
	var out []Var
	for _, v := range b {
		if _, ok := set[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// DiffHash returns Ω1 ∖ Ω2 using the same hash-bucketing idea: a left
// mapping survives iff no right mapping is compatible with it.  The
// bucketing applies only when the right side has always-bound
// variables shared with the left side's always-bound variables —
// otherwise compatibility cannot be decided from the key and the
// nested-loop Diff is used.
//
// Note the asymmetry with JoinHash: for Diff the key must cover enough
// of the right side to *prove absence*, so a right mapping missing a
// key variable would be unreachable from the probe; the always-bound
// requirement on the right side guarantees this cannot happen.
func (s *MappingSet) DiffHash(t *MappingSet) *MappingSet {
	if s.Len() == 0 {
		return NewMappingSet()
	}
	if t.Len() == 0 {
		out := NewMappingSet()
		for _, mu := range s.items {
			out.Add(mu)
		}
		return out
	}
	key := intersectVars(s.alwaysBoundVars(), t.alwaysBoundVars())
	if len(key) == 0 {
		return s.Diff(t)
	}
	index := make(map[string][]Mapping, t.Len())
	for _, nu := range t.items {
		index[nu.Restrict(key).key()] = append(index[nu.Restrict(key).key()], nu)
	}
	out := NewMappingSet()
	for _, mu := range s.items {
		compatible := false
		for _, nu := range index[mu.Restrict(key).key()] {
			if mu.CompatibleWith(nu) {
				compatible = true
				break
			}
		}
		if !compatible {
			out.Add(mu)
		}
	}
	return out
}

// LeftJoinHash is LeftJoin with the hash-based primitives.  The
// end-to-end benchmark's answer oracle (perfbench/) evaluates OPT with
// it.
func (s *MappingSet) LeftJoinHash(t *MappingSet) *MappingSet {
	return s.JoinHash(t).Union(s.DiffHash(t))
}
