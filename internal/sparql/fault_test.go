package sparql_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// errInjected is the sentinel forced through the engine by the fault
// harness; tests assert it — and nothing else — surfaces.
var errInjected = errors.New("fault: injected governor stop")

// injectionPoints samples up to max step counts in [0, total]: the
// boundaries always, the interior evenly.  The engine's step sequence
// is deterministic in count (though not in emission order), so a fault
// armed at n ≤ total is guaranteed to fire.
func injectionPoints(total int64, max int) []int64 {
	if total <= int64(max) {
		pts := make([]int64, 0, total+1)
		for n := int64(0); n <= total; n++ {
			pts = append(pts, n)
		}
		return pts
	}
	pts := []int64{0, 1, total}
	for i := 1; len(pts) < max; i++ {
		pts = append(pts, total*int64(i)/int64(max))
	}
	return pts
}

// faultFragments is the operator mix the injection sweep runs over:
// the weakly monotone algebra and the full language (whose OPT/NS
// nodes exercise the constrained-evaluator fallback inside the
// searcher).
func faultFragments() []struct {
	name string
	ops  []sparql.Op
} {
	return []struct {
		name string
		ops  []sparql.Op
	}{
		{"AUFS", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter, sparql.OpSelect}},
		{"full", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}},
	}
}

// TestSearcherFaultInjection is the harness property test for the
// streaming searcher: with no fault armed, a governed search agrees
// with the string reference evaluator; with a fault armed at every
// reachable step count, the search (a) surfaces exactly the injected
// error, (b) emits only genuine solutions before stopping, and (c)
// leaves the searcher and graph reusable — the next search succeeds.
func TestSearcherFaultInjection(t *testing.T) {
	for _, fc := range faultFragments() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(271828))
			for trial := 0; trial < 12; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
				sc, ok := sparql.SchemaFor(p)
				if !ok {
					t.Fatal("schema rejected small pattern")
				}
				want := sparql.Eval(g, p)

				// No fault: governed run must agree with the reference.
				b := sparql.NewBudget(context.Background())
				s := sparql.NewSearcherBudget(g, sc, b)
				got := sparql.NewRowSet(sc)
				if err := s.Search(p, 0, func(m uint64) bool {
					got.Add(s.IDs(), m)
					return true
				}); err != nil {
					t.Fatalf("trial %d: governed search failed without fault: %v", trial, err)
				}
				if gs := got.MappingSet(g.Dict()); !gs.Equal(want) {
					t.Fatalf("trial %d: governed search diverges on\n%s\ngot: %v\nwant:%v",
						trial, p, gs, want)
				}
				total := b.Steps()

				for _, n := range injectionPoints(total, 24) {
					b2 := sparql.NewBudget(nil)
					b2.InjectFault(n, errInjected)
					s2 := sparql.NewSearcherBudget(g, sc, b2)
					partial := sparql.NewMappingSet()
					err := s2.Search(p, 0, func(m uint64) bool {
						partial.Add(s2.Decode(m))
						return true
					})
					// Step totals are only deterministic up to iteration
					// order (DiffB and the OPT fallback stop probing early),
					// so a given run may finish under n steps — but then it
					// must have finished *correctly*.  Anything else is a
					// broken unwind.
					if err == nil {
						if !partial.Equal(want) {
							t.Fatalf("trial %d, fault@%d/%d: completed with wrong answers\ngot: %v\nwant:%v",
								trial, n, total, partial, want)
						}
						continue
					}
					if !errors.Is(err, errInjected) {
						t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
							trial, n, total, err)
					}
					// Everything emitted before the stop is a real answer —
					// an abort must not leak half-bound rows.
					for _, mu := range partial.Mappings() {
						if !want.Contains(mu) {
							t.Fatalf("trial %d, fault@%d: emitted non-answer %v\npattern %s\nwant %v",
								trial, n, mu, p, want)
						}
					}
					// Legacy Iterate on the same poisoned budget reports
					// "stopped early" instead of panicking.
					if s2.Iterate(p, 0, func(uint64) bool { return true }) {
						t.Fatalf("trial %d, fault@%d: Iterate claimed completion on poisoned budget", trial, n)
					}
				}

				// After every abort, a fresh ungoverned search over the same
				// graph still produces the full answer set: no state leaked.
				s3 := sparql.NewSearcher(g, sc)
				again := sparql.NewRowSet(sc)
				if err := s3.Search(p, 0, func(m uint64) bool {
					again.Add(s3.IDs(), m)
					return true
				}); err != nil {
					t.Fatalf("trial %d: post-fault search failed: %v", trial, err)
				}
				if gs := again.MappingSet(g.Dict()); !gs.Equal(want) {
					t.Fatalf("trial %d: post-fault search diverges", trial)
				}
			}
		})
	}
}

// TestEvalRowsFaultInjection sweeps the bottom-up row evaluator: a
// fault at any reachable step must abort with the sentinel and a nil
// result, and the no-fault governed run must match the reference.
func TestEvalRowsFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}
	for trial := 0; trial < 12; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
		want := sparql.Eval(g, p)

		b := sparql.NewBudget(context.Background())
		rs, err := sparql.EvalRows(g, p, b, sparql.ParOptions{})
		if err != nil {
			t.Fatalf("trial %d: governed eval failed without fault: %v", trial, err)
		}
		if gs := rs.MappingSet(g.Dict()); !gs.Equal(want) {
			t.Fatalf("trial %d: governed EvalRows diverges on\n%s\ngot: %v\nwant:%v",
				trial, p, gs, want)
		}
		total := b.Steps()

		for _, n := range injectionPoints(total, 24) {
			b2 := sparql.NewBudget(nil)
			b2.InjectFault(n, errInjected)
			rs2, err := sparql.EvalRows(g, p, b2, sparql.ParOptions{})
			if err == nil {
				// See TestSearcherFaultInjection: a run may come in under n
				// steps, but then it must be complete and correct.
				if gs := rs2.MappingSet(g.Dict()); !gs.Equal(want) {
					t.Fatalf("trial %d, fault@%d/%d: completed with wrong answers", trial, n, total)
				}
				continue
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
					trial, n, total, err)
			}
			if rs2 != nil {
				t.Fatalf("trial %d, fault@%d: non-nil result alongside error", trial, n)
			}
		}
		// The graph survives the aborts intact.
		if got := sparql.Eval(g, p); !got.Equal(want) {
			t.Fatalf("trial %d: reference answer changed after aborts", trial)
		}
	}
}

// TestEvalBudgetFaultInjection sweeps the governed string-space
// evaluator (the mirror of the reference Eval used by wide-schema
// fallbacks and the delta rules).
func TestEvalBudgetFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}
	for trial := 0; trial < 12; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
		want := sparql.Eval(g, p)

		b := sparql.NewBudget(context.Background())
		ms, err := sparql.EvalBudget(g, p, b)
		if err != nil {
			t.Fatalf("trial %d: governed eval failed without fault: %v", trial, err)
		}
		if !ms.Equal(want) {
			t.Fatalf("trial %d: governed EvalBudget diverges on\n%s\ngot: %v\nwant:%v",
				trial, p, ms, want)
		}
		total := b.Steps()

		for _, n := range injectionPoints(total, 24) {
			b2 := sparql.NewBudget(nil)
			b2.InjectFault(n, errInjected)
			ms2, err := sparql.EvalBudget(g, p, b2)
			if err == nil {
				if !ms2.Equal(want) {
					t.Fatalf("trial %d, fault@%d/%d: completed with wrong answers", trial, n, total)
				}
				continue
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
					trial, n, total, err)
			}
			if ms2 != nil {
				t.Fatalf("trial %d, fault@%d: non-nil result alongside error", trial, n)
			}
		}
	}
}

// TestEvalCompatibleFaultInjection sweeps the constrained evaluator
// used at the searcher's OPT/NS boundary and by the views delta join.
func TestEvalCompatibleFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(602214))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpNS}
	for trial := 0; trial < 12; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})
		env := sparql.Mapping{}
		for _, v := range sparql.Vars(p) {
			if rng.Intn(3) == 0 {
				env[v] = workload.DefaultIRIs[rng.Intn(len(workload.DefaultIRIs))]
			}
		}

		b := sparql.NewBudget(context.Background())
		ms, err := sparql.EvalCompatibleBudget(g, p, env, b)
		if err != nil {
			t.Fatalf("trial %d: constrained eval failed without fault: %v", trial, err)
		}
		// Differential: the constrained result is exactly the compatible
		// slice of the reference answers.
		want := sparql.NewMappingSet()
		for _, mu := range sparql.Eval(g, p).Mappings() {
			if mu.CompatibleWith(env) {
				want.Add(mu)
			}
		}
		if !ms.Equal(want) {
			t.Fatalf("trial %d: EvalCompatibleBudget diverges on\n%s\nenv %v\ngot: %v\nwant:%v",
				trial, p, env, ms, want)
		}
		total := b.Steps()

		for _, n := range injectionPoints(total, 16) {
			b2 := sparql.NewBudget(nil)
			b2.InjectFault(n, errInjected)
			ms2, err := sparql.EvalCompatibleBudget(g, p, env, b2)
			if err == nil {
				if !ms2.Equal(want) {
					t.Fatalf("trial %d, fault@%d/%d: completed with wrong answers", trial, n, total)
				}
				continue
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("trial %d, fault@%d/%d: err = %v, want injected sentinel",
					trial, n, total, err)
			}
		}
	}
}

// TestDeadlineStopsSearch wires a real context deadline through the
// searcher on an adversarial cross-product pattern and checks the
// governor actually halts an otherwise long-running search.
func TestDeadlineStopsSearch(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 60; i++ {
		g.Add(rdf.IRI(string(rune('a'+i%26))+string(rune('0'+i/26))), "p", rdf.IRI(string(rune('A'+i%26))+string(rune('0'+i/26))))
	}
	// Four unconstrained triple patterns: |G|⁴ search nodes, far beyond
	// any deadline this test is willing to wait for.
	p := sparql.And{
		L: sparql.And{
			L: sparql.TP(sparql.V("A"), sparql.I("p"), sparql.V("B")),
			R: sparql.TP(sparql.V("C"), sparql.I("p"), sparql.V("D")),
		},
		R: sparql.And{
			L: sparql.TP(sparql.V("E"), sparql.I("p"), sparql.V("F")),
			R: sparql.TP(sparql.V("G"), sparql.I("p"), sparql.V("H")),
		},
	}
	sc, _ := sparql.SchemaFor(p)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	b := sparql.NewBudget(ctx)
	s := sparql.NewSearcherBudget(g, sc, b)
	start := time.Now()
	err := s.Search(p, 0, func(uint64) bool { return true })
	elapsed := time.Since(start)
	if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled/DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}
