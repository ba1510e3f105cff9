package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	base string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

const bootTimeout = 20 * time.Second

// startProc launches bin with args plus a free loopback -addr, logging
// to logDir/name.log, and waits until it answers /healthz.
func startProc(ctx context.Context, hc *http.Client, bin, name, logDir string, args []string) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args = append([]string{"-addr", addr}, args...)
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop decides
		close(p.done)
	}()
	deadline := time.Now().Add(bootTimeout)
	for {
		if healthy(ctx, hc, p.base) {
			return p, nil
		}
		select {
		case <-p.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited during boot (see %s)", name, logf.Name())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not become healthy within %v", name, bootTimeout)
		}
	}
}

func healthy(ctx context.Context, hc *http.Client, base string) bool {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop asks the process to drain (SIGTERM), kills it if it has not
// exited within the drain timeout, and waits until it is reaped.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// vmHWMKB reads the process's peak resident set size.
func (p *proc) vmHWMKB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line")
}

// topology is the set of server processes one workload runs on: one
// nsserve, or nscoord over nsserve -shard processes.
type topology struct {
	procs  []*proc // shards first, coordinator last
	shards []string
	base   string // the endpoint the client talks to
}

// serverFlags returns the flags of every process of w's topology,
// keyed by process name, excluding -addr and -shards (which carry
// loopback ports).  traced selects -trace-sample 1 with a ring large
// enough to hold every request of the run.
func serverFlags(w spec, dataDir string, traced bool, traceBuffer int) map[string][]string {
	common := []string{"-trace-sample", "0"}
	if traced {
		common = []string{"-trace-sample", "1", "-trace-buffer", strconv.Itoa(traceBuffer)}
	}
	out := map[string][]string{}
	if w.Shards == 0 {
		args := append([]string{}, common...)
		if w.Durable {
			args = append(args, "-data-dir", dataDir, "-fsync", "batch")
		}
		out["nsserve"] = args
		return out
	}
	for i := 0; i < w.Shards; i++ {
		out[fmt.Sprintf("nsserve-shard%d", i)] = append([]string{"-shard", fmt.Sprintf("%d/%d", i, w.Shards)}, common...)
	}
	out["nscoord"] = append([]string{}, common...)
	return out
}

// launch boots w's topology.
func (b *bench) launch(ctx context.Context, dataDir string, traced bool, traceBuffer int) (*topology, error) {
	flags := serverFlags(b.w, dataDir, traced, traceBuffer)
	t := &topology{}
	if b.w.Shards == 0 {
		p, err := startProc(ctx, b.client, filepath.Join(b.binDir, "nsserve"), "nsserve", b.logDir, flags["nsserve"])
		if err != nil {
			return nil, err
		}
		t.procs = []*proc{p}
		t.base = p.base
		return t, nil
	}
	for i := 0; i < b.w.Shards; i++ {
		name := fmt.Sprintf("nsserve-shard%d", i)
		p, err := startProc(ctx, b.client, filepath.Join(b.binDir, "nsserve"), name, b.logDir, flags[name])
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.shards = append(t.shards, p.base)
	}
	args := append([]string{"-shards", strings.Join(t.shards, ",")}, flags["nscoord"]...)
	p, err := startProc(ctx, b.client, filepath.Join(b.binDir, "nscoord"), "nscoord", b.logDir, args)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.procs = append(t.procs, p)
	t.base = p.base
	return t, nil
}

// stop stops the coordinator first, then the shards.
func (t *topology) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
	t.procs = nil
}

// peakRSSMB sums VmHWM over the topology's processes.
func (t *topology) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range t.procs {
		n, err := p.vmHWMKB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}
