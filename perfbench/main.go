// Command perfbench is the repository's end-to-end serving benchmark.
// It boots the real servers (nsserve, or nscoord over nsserve -shard
// processes), drives them over HTTP from this one process with at most
// one connection per CPU, checks every answer against the reference
// evaluator, and prints the end-to-end metrics (-trace 0) or the
// per-layer ledger of a traced run (-trace 1).
//
// Run it through run.sh from the repository root, which builds the
// servers and this driver first:
//
//	bash perfbench/run.sh --workload opt-ns-fresh --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  README.md documents the
// workloads, the metrics and the server flags.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a reported metric and its unit.  endToEnd and
// perLayer list what a run reports with -trace 0 and -trace 1, in
// BENCHMARK.json order; a run that misses one fails.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"throughput_qps", "queries/s"},
	{"insert_p50_ms", "ms"}, {"insert_p95_ms", "ms"}, {"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"parser.parse_us", "us"}, {"plan.prepare_us", "us"}, {"plan.probes_per_query", "count"},
	{"plan.cache_hit_ratio", "ratio"}, {"plan.replans_per_query", "count"},
	{"exec.eval_us", "us"}, {"exec.eval_p99_us", "us"}, {"exec.rows_scanned_per_query", "count"},
	{"exec.rows_out_per_query", "count"}, {"exec.steps_per_query", "count"}, {"exec.pool_inline_ratio", "ratio"},
	{"encode.sort_us", "us"}, {"encode.body_bytes_per_query", "bytes"},
	{"nsserve.handler_other_us", "us"}, {"http.transport_us", "us"},
	{"rdf.commit_us", "us"}, {"rdf.compactions_per_run", "count"}, {"rdf.wal_bytes_per_triple", "bytes"},
	{"rdf.fsyncs_per_insert", "count"},
	{"cluster.gather_us", "us"}, {"cluster.scan_bytes_per_query", "bytes"}, {"cluster.scan_parse_us", "us"},
	{"cluster.subgraph_build_us", "us"}, {"cluster.retries_per_query", "count"}, {"cluster.hedges_wasted_ratio", "ratio"},
	{"driver.send_lag_p99_ms", "ms"}, {"trace.overhead_ratio", "ratio"}, {"ledger.client_us", "us"},
}

// checkMetrics reports whether rep holds exactly the metrics of want.
func checkMetrics(rep report, want []metricSpec) error {
	if len(rep.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := rep.Metrics[m.name]; !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
	}
	return nil
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under the unit its registry entry names.
func (r *report) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				r.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("perfbench: unregistered metric " + name)
}

// bench is one run of one workload.
type bench struct {
	w       spec
	seed    int64
	seconds int
	binDir  string
	workDir string
	logDir  string
	conns   int
	client  *http.Client
	in      inputs
	// problems collects correctness failures; any makes the run
	// incorrect.
	problems []string
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	b.problems = append(b.problems, msg)
}

// driverFor returns a load driver against base.  The client's idle
// connections are dropped first, so a phase never holds connections to
// a host it does not use.
func (b *bench) driverFor(base string) *driver {
	b.client.CloseIdleConnections()
	return &driver{client: b.client, base: base, conns: b.conns, timeout: 30 * time.Second, maxQueue: 1000}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "workload seed: the graph, queries and inserts are generated from it")
		seconds      = flag.Int("seconds", 10, "length of the timed rounds in seconds; sizes every phase")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer run")
		binDir       = flag.String("bin", ".bench_build/bin", "directory holding the nsserve and nscoord binaries")
		workDir      = flag.String("work", ".bench_build", "directory for logs, data directories and the oracle cache")
	)
	flag.Parse()
	ws := specs
	if *workloadName != "all" {
		ws = nil
		if w, ok := specByName(*workloadName); ok {
			ws = []spec{w}
		}
	}
	if len(ws) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (all or one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	correct := true
	for _, w := range ws {
		if len(ws) > 1 {
			fmt.Printf("== %s\n", w.Name)
		}
		rep, err := run(ctx, w, *seed, *seconds, *trace == 1, *binDir, *workDir)
		if err == nil {
			err = printReport(rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		correct = correct && rep.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// printReport prints one line per metric, then the result as one JSON
// line.
func printReport(rep report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}

func run(ctx context.Context, w spec, seed int64, seconds int, traced bool, binDir, workDir string) (report, error) {
	for _, bin := range []string{"nsserve", "nscoord"} {
		if _, err := os.Stat(filepath.Join(binDir, bin)); err != nil {
			return report{}, fmt.Errorf("server binary missing (build with run.sh): %w", err)
		}
	}
	runDir, err := os.MkdirTemp(workDir, "run-"+w.Name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(runDir)
	// The traced run reports layer shares, not figures held to a
	// bound, so it keeps to the first tracedSeconds of the inputs.
	if traced {
		seconds = min(seconds, tracedSeconds)
	}
	b := &bench{w: w, seed: seed, seconds: seconds, binDir: binDir, workDir: workDir, logDir: runDir,
		conns: runtime.NumCPU()}
	b.client = newClient(b.conns)
	defer b.client.CloseIdleConnections()
	b.in = generate(w, seed, seconds)
	b.provenance(traced)

	var rep report
	want := endToEnd
	if traced {
		rep, err = b.runTraced(ctx, runDir)
		want = perLayer
	} else {
		rep, err = b.runUntraced(ctx, runDir)
	}
	if err == nil {
		err = checkMetrics(rep, want)
	}
	if err != nil {
		return report{}, err
	}
	rep.Correct = len(b.problems) == 0
	return rep, nil
}

// provenance prints one JSON line describing the run: everything
// needed to tell which program, machine and inputs a number came from.
func (b *bench) provenance(traced bool) {
	flags := serverFlags(b.w, "<data-dir>", traced, 0)
	doc := map[string]any{
		"workload":     b.w,
		"seed":         b.seed,
		"seconds":      b.seconds,
		"traced":       traced,
		"commit":       commit(),
		"source_sha":   sourceDigest(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"go":           runtime.Version(),
		"conns":        b.conns,
		"server_flags": flags,
		"queries":      len(distinct(append([][]op{b.in.warm, b.in.open}, b.in.closed...)...)),
		"open_ops":     len(b.in.open),
		"triples":      len(b.in.initial),
	}
	line, err := json.Marshal(map[string]any{"provenance": doc})
	if err == nil {
		fmt.Println(string(line))
	}
}

// commit names the source commit: git's HEAD when the tree is a git
// checkout, else "unknown" (source_sha still pins the sources).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under the working
// directory (the repository root), skipping build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tracedSeconds caps the inputs of a traced run, which sends its open
// loop twice (untraced and traced) and replays it in process.
const tracedSeconds = 10

// setupRounds is how many times an untraced run sets up; setup_s is
// the median.
const setupRounds = 3

// runUntraced measures the end-to-end metrics with tracing off.  The
// timed part is a sequence of rounds, each one open-loop pass, the
// round's closed-loop passes and (query-only workloads) one insert
// pass, so every metric draws its passes from the whole run rather than
// from one stretch of it: the host's speed drifts over seconds, and a
// metric measured in one short phase inherited that drift.
func (b *bench) runUntraced(ctx context.Context, runDir string) (report, error) {
	var rep report
	var setups []float64
	// topo is measured.  On the query-only workloads the previous
	// set-up's topology is kept as spare and takes the insert passes.
	var topo, spare *topology
	defer func() {
		for _, t := range []*topology{topo, spare} {
			if t != nil {
				t.stop()
			}
		}
	}()
	dataDir := filepath.Join(runDir, "data")
	for i := 0; i < setupRounds; i++ {
		if topo != nil {
			if b.w.Mixed {
				topo.stop()
			} else {
				if spare != nil {
					spare.stop()
				}
				spare = topo
			}
			topo = nil
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return rep, err
		}
		t0 := time.Now()
		var err error
		if topo, err = b.setUp(ctx, dataDir, false, 0); err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))

	before, err := b.scrape(ctx, topo)
	if err != nil {
		return rep, err
	}
	openPasses := splitPasses(b.in.open)
	insertPasses := splitPasses(b.in.inserts)
	closedPer := len(b.in.closed) / len(openPasses)
	var open, closed, insertRes []result
	var rates []float64
	for r, pass := range openPasses {
		d := b.driverFor(topo.base)
		open = append(open, d.open(ctx, pass)...)
		for _, cp := range b.in.closed[r*closedPer : (r+1)*closedPer] {
			rs, wall := d.closed(ctx, cp)
			closed = append(closed, rs...)
			rates = append(rates, float64(len(rs)-countFailed(rs))/wall.Seconds())
		}
		if r < len(insertPasses) {
			insertRes = append(insertRes, b.driverFor(spare.base).open(ctx, insertPasses[r])...)
		}
	}
	d := b.driverFor(topo.base)
	after, err := b.scrape(ctx, topo)
	if err != nil {
		return rep, err
	}
	rep.set("query_p50_ms", d.passPercentile(open, b.in.open, isQuery, 0.50))
	rep.set("query_p99_ms", d.passPercentile(open, b.in.open, isQuery, 0.99))
	rep.set("throughput_qps", median(rates))
	rep.Attempted = len(open) + len(closed) + len(insertRes)
	rep.Failed = countFailed(open) + countFailed(closed) + countFailed(insertRes) + after.partials - before.partials
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, open loop %d ops, send lag p99 %.3f ms; closed loop passes at %.0f queries/s\n",
		len(openPasses), len(open), percentile(sortedLagMs(open), 0.99), rates)

	insertOps := b.in.inserts
	if b.w.Mixed {
		insertRes, insertOps = open, b.in.open
	}
	fmt.Fprintf(os.Stderr, "perfbench: query p99 by pass %.1f ms; insert p95 by pass %.2f ms\n",
		d.passPercentiles(open, b.in.open, isQuery, 0.99), d.passPercentiles(insertRes, insertOps, isInsert, 0.95))
	rep.set("insert_p50_ms", d.typicalPercentile(insertRes, insertOps, isInsert, 0.50))
	rep.set("insert_p95_ms", d.typicalPercentile(insertRes, insertOps, isInsert, 0.95))
	rss, err := topo.peakRSSMB()
	if err != nil {
		return rep, err
	}
	rep.set("peak_rss_mb", rss)
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", rep.Failed, rep.Attempted,
			errors.Join(firstError(open), firstError(closed), firstError(insertRes)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: error_frac %.6f\n", float64(rep.Failed)/float64(rep.Attempted))

	// The measured topology holds the initial graph plus the open
	// loop's inserts (read-write); the spare holds the initial graph
	// plus the insert passes.
	final := b.expectGraph(insertOps, insertRes)
	served := final
	if !b.w.Mixed {
		served = b.expectGraph(nil, nil)
		b.checkGraph(ctx, spare, final, "of the insert passes")
	}
	b.verifyAnswers(ctx, d, served.triples())
	b.checkGraph(ctx, topo, served, "after the run")
	if b.w.Durable {
		// Graceful restart on the same data directory: every
		// acknowledged insert must survive recovery.
		topo.stop()
		if topo, err = b.launch(ctx, dataDir, false, 0); err != nil {
			return rep, fmt.Errorf("restart: %w", err)
		}
		b.checkGraph(ctx, topo, final, "after a restart on the same -data-dir")
	}
	return rep, nil
}

// setUp boots the topology, loads the graph through /insert and makes
// one warm pass over the rotation.
func (b *bench) setUp(ctx context.Context, dataDir string, traced bool, traceBuffer int) (*topology, error) {
	topo, err := b.launch(ctx, dataDir, traced, traceBuffer)
	if err != nil {
		return nil, err
	}
	d := b.driverFor(topo.base)
	const batch = 5000
	var load []op
	for i := 0; i < len(b.in.initial); i += batch {
		load = append(load, op{insert: true, body: ntriples(b.in.initial[i:min(i+batch, len(b.in.initial))])})
	}
	for _, o := range load {
		status, _, _, err := d.do(ctx, o)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			topo.stop()
			return nil, fmt.Errorf("loading the graph: %w", err)
		}
	}
	warm, _ := d.closed(ctx, b.in.warm)
	if n := countFailed(warm); n > 0 {
		topo.stop()
		return nil, fmt.Errorf("warm-up: %d of %d queries failed: %v", n, len(warm), firstError(warm))
	}
	return topo, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedLagMs(rs []result) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, ms(r.lag))
	}
	sort.Float64s(out)
	return out
}
