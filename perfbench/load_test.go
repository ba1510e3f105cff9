package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func schedule(n int, every time.Duration) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{query: "(?x p ?y)", due: time.Duration(i) * every}
	}
	return ops
}

func testDriver(srv *httptest.Server, conns int) *driver {
	return &driver{client: newClient(conns), base: srv.URL, conns: conns, timeout: 5 * time.Second, maxQueue: 1000}
}

// A 200 ms server stall must show in the latency of every request that
// was due during it, even those the stalled connections kept the
// generator from sending: latency runs from the due time.
func TestOpenLoopChargesStallToRequestsDueDuringIt(t *testing.T) {
	const (
		every      = 5 * time.Millisecond
		stallStart = 100 * time.Millisecond
		stall      = 200 * time.Millisecond
	)
	var startNS atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if el := time.Since(time.Unix(0, startNS.Load())); el >= stallStart && el < stallStart+stall {
			time.Sleep(stallStart + stall - el)
		}
	}))
	defer srv.Close()
	d := testDriver(srv, 2)
	ops := schedule(120, every)
	startNS.Store(time.Now().UnixNano())
	res := d.open(context.Background(), ops)

	stallEnd := stallStart + stall
	for i, r := range res {
		if r.failed() {
			t.Fatalf("op %d failed: %v", i, firstError(res[i:i+1]))
		}
		due := ops[i].due
		switch {
		case due >= stallStart+every && due < stallEnd-every:
			// Allow the scheduling slack between this test's clock and
			// the driver's.
			if want := stallEnd - due - 2*time.Millisecond; r.lat < want {
				t.Errorf("op due at %v during the stall: latency %v, want >= %v", due, r.lat, want)
			}
		case due < stallStart-20*time.Millisecond:
			if r.lat > 50*time.Millisecond {
				t.Errorf("op due at %v before the stall: latency %v", due, r.lat)
			}
		}
	}
}

// Failed and refused requests count as failures and as missing every
// latency limit; overflowing the client queue is a failure too.
func TestFailuresCountAsMissedLimits(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 10 {
		case 0:
			http.Error(w, "busy", http.StatusServiceUnavailable) // refused
		case 5:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	d := testDriver(srv, 2)
	ops := schedule(200, time.Millisecond)
	res := d.open(context.Background(), ops)
	if got := countFailed(res); got != 40 {
		t.Fatalf("failed = %d, want 40", got)
	}
	lats := d.latenciesMs(res, ops, isQuery)
	if len(lats) != 200 {
		t.Fatalf("%d latencies, want 200 (failures must be kept)", len(lats))
	}
	limit := ms(d.timeout)
	if p := percentile(lats, 0.80); p >= limit {
		t.Errorf("p80 = %v ms, want below the timeout: 80%% succeeded", p)
	}
	if p := percentile(lats, 0.81); p != limit {
		t.Errorf("p81 = %v ms, want the timeout %v ms: 20%% failed", p, limit)
	}

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer slow.Close()
	d = testDriver(slow, 1)
	d.maxQueue = 2
	res = d.open(context.Background(), schedule(30, 0)) // all due at once
	overflow := 0
	for _, r := range res {
		if r.overflow {
			overflow++
			if !r.failed() {
				t.Fatal("an overflowed request must count as failed")
			}
		}
	}
	if overflow == 0 {
		t.Fatal("no client-queue overflow with 30 requests due at once, one connection and a queue of 2")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{0, 0.5, 0},
		{1, 0.99, 1},
		{2, 0.5, 1},
		{100, 0.5, 50},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{1001, 0.99, 991},
		{200, 0.95, 190},
		{10, 1, 10},
		{10, 0, 1},
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// The driver never holds more connections than it was given, however
// far behind the schedule it falls.
func TestNeverMoreThanConnsConnections(t *testing.T) {
	var mu sync.Mutex
	active, peak, opened := 0, 0, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			active++
			opened++
			peak = max(peak, active)
		case http.StateClosed, http.StateHijacked:
			active--
		}
	}
	srv.Start()
	defer srv.Close()
	const conns = 2
	d := testDriver(srv, conns)
	ops := schedule(100, 0)
	if res := d.open(context.Background(), ops); countFailed(res) > 0 {
		t.Fatal(firstError(res))
	}
	if res, _ := d.closed(context.Background(), ops); countFailed(res) > 0 {
		t.Fatal(firstError(res))
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > conns || opened > conns {
		t.Fatalf("peak %d concurrent, %d opened connections; want at most %d", peak, opened, conns)
	}
}

// passPercentile takes each pass's percentile, then the median over
// passes: one pass's burst does not move it.
func TestPassPercentileIsMedianOverPasses(t *testing.T) {
	d := &driver{timeout: 5 * time.Second}
	var ops []op
	var rs []result
	for p := 0; p < 5; p++ {
		for i := 1; i <= 100; i++ {
			lat := time.Duration(i) * time.Millisecond
			if p == 2 {
				lat *= 10 // a noisy pass
			}
			ops = append(ops, op{pass: p})
			rs = append(rs, result{lat: lat, status: 200})
		}
	}
	if got := d.passPercentile(rs, ops, isQuery, 0.99); got != 99 {
		t.Fatalf("p99 = %v ms, want 99 (the noisy pass is outvoted)", got)
	}
	if got := d.passPercentile(rs, ops, isQuery, 0.5); got != 50 {
		t.Fatalf("p50 = %v ms, want 50", got)
	}
}

// typicalPercentile takes each position's median over the passes, then
// the percentile: a stall that hits a different position in each pass
// does not move it, one that hits the same position in most passes
// does, and a request failing in most passes counts as the timeout.
func TestTypicalPercentileIsOverPositionMedians(t *testing.T) {
	d := &driver{timeout: 5 * time.Second}
	run := func(mark func(p, i int) result) float64 {
		var ops []op
		var rs []result
		for p := 0; p < 5; p++ {
			for i := 1; i <= 20; i++ {
				ops = append(ops, op{pass: p, insert: true})
				rs = append(rs, mark(p, i))
			}
		}
		return d.typicalPercentile(rs, ops, isInsert, 0.95)
	}
	plain := func(i int) result { return result{lat: time.Duration(i) * time.Millisecond, status: 200} }
	if got := run(func(p, i int) result {
		if i == 3+p { // a stall at another position in every pass
			return result{lat: time.Second, status: 200}
		}
		return plain(i)
	}); got != 19 {
		t.Fatalf("p95 = %v ms, want 19 (scattered stalls are outvoted)", got)
	}
	if got := run(func(p, i int) result {
		if i == 3 && p != 4 { // the same position stalls in most passes
			return result{lat: time.Second, status: 200}
		}
		return plain(i)
	}); got != 20 {
		t.Fatalf("p95 = %v ms, want 20 (position 3 is typically at 1000 ms, above 20)", got)
	}
	if got := run(func(p, i int) result {
		if i == 7 && p < 3 {
			return result{status: 503}
		}
		return plain(i)
	}); got != 20 {
		t.Fatalf("p95 = %v ms, want 20 (a request failing in most passes counts as the timeout)", got)
	}
}
