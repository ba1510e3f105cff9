package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// driver sends one phase's requests to one endpoint over at most conns
// connections.  It is the benchmark's own load generator: requests are
// timed from when they were due, failures count as missing every
// latency limit, and the generator reports how late it ran.
type driver struct {
	client  *http.Client
	base    string
	conns   int
	timeout time.Duration
	// maxQueue bounds the client queue: an open-loop request that finds
	// more than maxQueue earlier requests due but unsent is not sent and
	// counts as failed (overflow).
	maxQueue int
}

// newClient returns an HTTP client that never holds more than conns
// connections to a host.  The benchmark talks to one host per phase
// and drops idle connections between phases, so conns bounds the
// process as a whole.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
	}}
}

// result is the outcome of one request.
type result struct {
	lat      time.Duration // due (open loop) or send (closed loop) to last body byte
	service  time.Duration // send to last body byte
	lag      time.Duration // send minus due
	status   int
	err      error
	overflow bool
	bytes    int64
	traceID  string
}

func (r result) failed() bool { return r.overflow || r.err != nil || r.status != http.StatusOK }

// do sends one request and drains its body.
func (d *driver) do(ctx context.Context, o op) (status int, n int64, traceID string, err error) {
	ctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	var req *http.Request
	if o.insert {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/insert", bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "text/plain")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/query?syntax=paper&q="+url.QueryEscape(o.query), nil)
	}
	if err != nil {
		return 0, 0, "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	n, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, n, resp.Header.Get("NS-Trace-Id"), err
}

// fetch GETs path and returns the body; a non-200 status is an error.
func (d *driver) fetch(ctx context.Context, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// open runs ops on their due schedule (ops sorted by due).  Each of
// conns workers takes the next op in order, waits until it is due and
// sends it; a worker that is late sends at once, and the wait it
// caused is charged to the request because latency runs from the due
// time.  Results are indexed like ops.
func (d *driver) open(ctx context.Context, ops []op) []result {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				due := start.Add(ops[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if backlog := dueBy(ops, sent.Sub(start)) - i; backlog > d.maxQueue {
					res[i] = result{overflow: true, lag: sent.Sub(due)}
					continue
				}
				status, n, tid, err := d.do(ctx, ops[i])
				done := time.Now()
				res[i] = result{lat: done.Sub(due), service: done.Sub(sent), lag: sent.Sub(due),
					status: status, err: err, bytes: n, traceID: tid}
			}
		}()
	}
	wg.Wait()
	return res
}

// dueBy counts the ops due at or before offset t.
func dueBy(ops []op, t time.Duration) int {
	return sort.Search(len(ops), func(i int) bool { return ops[i].due > t })
}

// closed runs ops back to back on conns workers and returns the
// results and the phase's wall time.
func (d *driver) closed(ctx context.Context, ops []op) ([]result, time.Duration) {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < d.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				sent := time.Now()
				status, n, tid, err := d.do(ctx, ops[i])
				lat := time.Since(sent)
				res[i] = result{lat: lat, service: lat, status: status, err: err, bytes: n, traceID: tid}
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// percentile is the nearest-rank q-quantile of sorted: the smallest
// value with at least ⌈q·n⌉ values at or below it (0 when empty).
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(n)))
	return sorted[min(max(k, 1), n)-1]
}

// latenciesMs returns the sorted latencies in milliseconds of the
// results selected by keep.  A failed request counts as the client
// timeout, so it misses every latency limit.
func (d *driver) latenciesMs(rs []result, ops []op, keep func(op) bool) []float64 {
	var out []float64
	for i, r := range rs {
		if !keep(ops[i]) {
			continue
		}
		lat := r.lat
		if r.failed() {
			lat = d.timeout
		}
		out = append(out, ms(lat))
	}
	sort.Float64s(out)
	return out
}

// passPercentile is the median, over the passes of a phase, of each
// pass's q-quantile latency (ms) among the results selected by keep.
// Every pass sends the same mix, so each estimates the same quantile,
// and the median keeps a burst of noise in one pass out of the result.
func (d *driver) passPercentile(rs []result, ops []op, keep func(op) bool, q float64) float64 {
	return median(d.passPercentiles(rs, ops, keep, q))
}

// passPercentiles is each pass's q-quantile latency (ms) among the
// results selected by keep, in pass order.
func (d *driver) passPercentiles(rs []result, ops []op, keep func(op) bool, q float64) []float64 {
	var per []float64
	i := 0
	for _, pass := range splitPasses(ops) {
		if lats := d.latenciesMs(rs[i:i+len(pass)], pass, keep); len(lats) > 0 {
			per = append(per, percentile(lats, q))
		}
		i += len(pass)
	}
	return per
}

// typicalPercentile is the q-quantile latency (ms) of a typical pass.
// Every pass of a phase sends the same schedule, so the op at one
// position of each pass is the same request repeated: its median over
// the passes is that request's typical latency, and the quantile is
// taken over those medians, among the positions selected by keep.  The
// insert metrics use it: a 50-insert pass's 95th percentile is its
// third-largest sample, so a stall from outside the program in one pass
// moved the per-pass figure, but moves this one only where it hits the
// same position in half the passes.  A cost the program pays at a
// position in most passes, such as an insert waiting out a chain query,
// shows in full.
func (d *driver) typicalPercentile(rs []result, ops []op, keep func(op) bool, q float64) float64 {
	var rsAt [][]result
	var opsAt [][]op
	i := 0
	for _, pass := range splitPasses(ops) {
		for k, o := range pass {
			if k == len(rsAt) {
				rsAt, opsAt = append(rsAt, nil), append(opsAt, nil)
			}
			rsAt[k] = append(rsAt[k], rs[i+k])
			opsAt[k] = append(opsAt[k], o)
		}
		i += len(pass)
	}
	var typical []float64
	for k := range rsAt {
		if lats := d.latenciesMs(rsAt[k], opsAt[k], keep); len(lats) > 0 {
			typical = append(typical, median(lats))
		}
	}
	sort.Float64s(typical)
	return percentile(typical, q)
}

// splitPasses splits ops, sorted by due with each pass contiguous, into
// its passes, each with due times counted from its own first op, so a
// pass can run on its own schedule between other phases.
func splitPasses(ops []op) [][]op {
	var out [][]op
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && ops[j].pass == ops[i].pass {
			j++
		}
		p := append([]op(nil), ops[i:j]...)
		for k := range p {
			p[k].due -= ops[i].due
		}
		out = append(out, p)
		i = j
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func isQuery(o op) bool  { return !o.insert }
func isInsert(o op) bool { return o.insert }

// countFailed counts failed results.
func countFailed(rs []result) int {
	n := 0
	for _, r := range rs {
		if r.failed() {
			n++
		}
	}
	return n
}

// firstError describes the first failed result, for diagnostics.
func firstError(rs []result) error {
	for _, r := range rs {
		switch {
		case r.overflow:
			return errors.New("client queue overflow")
		case r.err != nil:
			return r.err
		case r.status != http.StatusOK:
			return fmt.Errorf("status %d", r.status)
		}
	}
	return nil
}
