package sparql_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// parTestOpts forces every parallel code path on small inputs: four
// workers (three pool tokens) and a partition threshold of one row, so
// joins partition, NS shards, and operands fan out even on the tiny
// random graphs the differential tests draw.
var parTestOpts = sparql.ParOptions{Workers: 4, MinPartition: 1}

// TestEvalRowsParAgreesWithSerialQuick is the differential property
// test of the parallel engine: on random patterns × random graphs,
// parallel and serial row evaluation and the string reference
// evaluator produce the same answer set, per fragment.
func TestEvalRowsParAgreesWithSerialQuick(t *testing.T) {
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(777))
			for trial := 0; trial < 150; trial++ {
				g := workload.RandomGraph(rng, 2+rng.Intn(30), nil)
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
				switch fc.ns {
				case "wrap":
					p = sparql.NS{P: p}
				case "union":
					q := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: fc.ops})
					p = sparql.Union{L: sparql.NS{P: p}, R: sparql.NS{P: q}}
				}
				want := sparql.Eval(g, p)
				serial, err := sparql.EvalRows(g, p, nil, sparql.ParOptions{})
				if err != nil {
					t.Fatalf("trial %d: serial eval failed: %v", trial, err)
				}
				par, err := sparql.EvalRows(g, p, nil, parTestOpts)
				if err != nil {
					t.Fatalf("trial %d: parallel eval failed: %v", trial, err)
				}
				d := g.Dict()
				if got := par.MappingSet(d); !got.Equal(want) {
					t.Fatalf("trial %d: parallel diverges from reference on\n%s\ngot: %v\nwant:%v",
						trial, p, got, want)
				}
				if got, ws := par.MappingSet(d), serial.MappingSet(d); !got.Equal(ws) {
					t.Fatalf("trial %d: parallel diverges from serial rows on\n%s\ngot: %v\nwant:%v",
						trial, p, got, ws)
				}
			}
		})
	}
}

// TestMaximalParAgreesQuick checks the sharded NS against the serial
// row algorithm and the naive string algorithm on random sets, with
// the partition threshold forced to one so the shards really spread.
func TestMaximalParAgreesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vars := []sparql.Var{"A", "B", "C", "D"}
	sc, _ := sparql.NewVarSchema(vars)
	for trial := 0; trial < 300; trial++ {
		ms := sparql.NewMappingSet()
		for i, n := 0, rng.Intn(60); i < n; i++ {
			ms.Add(randomMapping(rng, vars, workload.DefaultIRIs))
		}
		c := sparql.Codec{Schema: sc, Dict: rdf.NewDict()}
		rs, ok := sparql.EncodeMappingSet(ms, c)
		if !ok {
			t.Fatal("encode failed")
		}
		want := ms.MaximalNaive()
		got, err := rs.MaximalParMin(nil, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gs := got.MappingSet(c.Dict); !gs.Equal(want) {
			t.Fatalf("sharded Maximal diverges\nin:  %v\ngot: %v\nwant:%v", ms, gs, want)
		}
		if gs, ws := got.MappingSet(c.Dict), rs.Maximal().MappingSet(c.Dict); !gs.Equal(ws) {
			t.Fatalf("sharded Maximal != serial Maximal on %v", ms)
		}
	}
}

// TestBudgetConcurrentExact hammers one Budget from many goroutines
// and checks that no charge is lost: the atomic counters must add up
// exactly.
func TestBudgetConcurrentExact(t *testing.T) {
	const workers, per = 8, 20000
	b := sparql.NewBudget(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Step(); err != nil {
					t.Errorf("unlimited budget failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := b.Steps(); got != workers*per {
		t.Fatalf("lost steps under concurrency: got %d want %d", got, workers*per)
	}
}

// TestBudgetConcurrentSticky trips a step limit from many goroutines
// at once: every worker must observe the same typed error, and the
// overshoot past the limit is bounded by the worker count (each may be
// one Step past the limit when the first failure publishes).
func TestBudgetConcurrentSticky(t *testing.T) {
	const workers, limit = 8, 5000
	b := sparql.NewBudget(context.Background()).WithMaxSteps(limit).WithStride(1)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if err := b.Step(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var first error
	for w, err := range errs {
		var be sparql.ErrBudgetExceeded
		if !errors.As(err, &be) || be.Kind != sparql.BudgetSteps {
			t.Fatalf("worker %d: got %v, want ErrBudgetExceeded{steps}", w, err)
		}
		if first == nil {
			first = err
		} else if !errors.Is(err, first) {
			t.Fatalf("sticky error not single-valued: %v vs %v", err, first)
		}
	}
	if got := b.Steps(); got > limit+workers+1 {
		t.Fatalf("overshoot too large: %d steps for limit %d", got, limit)
	}
}

// TestBudgetConcurrentFaultOnce injects a fault and lets many workers
// cross the trigger together: all of them must surface the injected
// sentinel (first publisher wins, everyone reads it back).
func TestBudgetConcurrentFaultOnce(t *testing.T) {
	sentinel := errors.New("injected")
	const workers = 8
	b := sparql.NewBudget(context.Background()).WithStride(1)
	b.InjectFault(100, sentinel)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := b.Step(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, sentinel) {
			t.Fatalf("worker %d: got %v, want the injected sentinel", w, err)
		}
	}
	if !errors.Is(b.Err(), sentinel) {
		t.Fatalf("sticky error is %v, want the injected sentinel", b.Err())
	}
}

// drainedGoroutines waits for the goroutine count to fall back to the
// baseline, failing the test if the pool leaked a worker.
func drainedGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
}

// TestParallelFaultInjectionSweep moves a fault across every step of a
// parallel evaluation, per fragment: whatever the injection point —
// mid-fan-out, mid-partition, mid-merge — the engine must either
// return the exact reference answer (fault never reached) or the
// injected sentinel, with the pool fully drained either way.
func TestParallelFaultInjectionSweep(t *testing.T) {
	sentinel := errors.New("injected fault")
	base := runtime.NumGoroutine()
	for _, fc := range fragmentCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(808))
			g := workload.RandomGraph(rng, 25, nil)
			p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fc.ops})
			if fc.ns == "wrap" || fc.ns == "union" {
				p = sparql.NS{P: p}
			}
			want := sparql.Eval(g, p)

			// One ungoverned run bounds the sweep range; the exact step
			// total varies slightly with scheduling (partition merges),
			// so the invariant below holds for every injection point.
			probe := sparql.NewBudget(context.Background()).WithStride(1)
			if _, err := sparql.EvalRows(g, p, probe, parTestOpts); err != nil {
				t.Fatalf("probe run failed: %v", err)
			}
			total := probe.Steps()
			stride := total / 40
			if stride < 1 {
				stride = 1
			}
			faulted := false
			for at := int64(0); at <= total+1; at += stride {
				b := sparql.NewBudget(context.Background()).WithStride(1)
				b.InjectFault(at, sentinel)
				rs, err := sparql.EvalRows(g, p, b, parTestOpts)
				if err != nil {
					faulted = true
					if !errors.Is(err, sentinel) {
						t.Fatalf("faultAt=%d: got %v, want the sentinel", at, err)
					}
					continue
				}
				if got := rs.MappingSet(g.Dict()); !got.Equal(want) {
					t.Fatalf("faultAt=%d: unfaulted run diverges\ngot: %v\nwant:%v", at, got, want)
				}
			}
			if !faulted && total > 0 {
				t.Fatal("sweep never hit the fault — injection points not exercised")
			}
		})
	}
	drainedGoroutines(t, base)
}

// TestParallelDeadlineDrains points the parallel engine at a join far
// too large to finish, with a deadline far too small: it must come
// back promptly with the typed cancellation error and no leftover
// workers.
func TestParallelDeadlineDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	g := workload.University(workload.UniversityOpts{People: 3000, OptionalPct: 50, FoundersPct: 10, Seed: 2})
	// Two independent join components: the planner-free engine
	// evaluates them as one cartesian product, ~3000² rows.
	p := sparql.And{
		L: sparql.And{
			L: sparql.TP(sparql.V("A"), sparql.I("name"), sparql.V("N")),
			R: sparql.TP(sparql.V("A"), sparql.I("works_at"), sparql.V("U")),
		},
		R: sparql.And{
			L: sparql.TP(sparql.V("B"), sparql.I("name"), sparql.V("M")),
			R: sparql.TP(sparql.V("B"), sparql.I("works_at"), sparql.V("V")),
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	b := sparql.NewBudget(ctx).WithMaxBytes(1 << 30)
	start := time.Now()
	_, err := sparql.EvalRows(g, p, b, parTestOpts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a 9M-row join finished under a 30ms deadline?")
	}
	if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v — workers not draining promptly", elapsed)
	}
	drainedGoroutines(t, base)
}

// TestParallelSharedBudgetMemoryLimit checks that the memory estimate
// governs the whole parallel evaluation, not each partition
// separately: the per-partition RowSets all charge the one shared
// Budget, so materializing across N workers cannot launder an
// N×-too-large intermediate past the limit.
func TestParallelSharedBudgetMemoryLimit(t *testing.T) {
	g := workload.University(workload.UniversityOpts{People: 500, OptionalPct: 50, FoundersPct: 10, Seed: 3})
	p := sparql.And{
		L: sparql.TP(sparql.V("P"), sparql.I("name"), sparql.V("N")),
		R: sparql.TP(sparql.V("P"), sparql.I("works_at"), sparql.V("U")),
	}
	b := sparql.NewBudget(context.Background()).WithMaxBytes(4096)
	_, err := sparql.EvalRows(g, p, b, parTestOpts)
	var be sparql.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != sparql.BudgetMemory {
		t.Fatalf("got %v, want ErrBudgetExceeded{memory}", err)
	}
}
