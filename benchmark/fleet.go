package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process started by the harness. Its stderr is
// copied to a log file under out/ and kept in memory so the bound
// addresses (servers listen on 127.0.0.1:0) can be read from the log.
type proc struct {
	name   string
	args   []string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped

	mu    sync.Mutex
	lines []string
}

// running tracks every live child so any exit path can kill them.
var running struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// startProc launches bin in its own process group with stderr captured.
func startProc(logDir, name, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: name, args: args, cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	running.Lock()
	if running.procs == nil {
		running.procs = make(map[*proc]struct{})
	}
	running.procs[p] = struct{}{}
	running.Unlock()
	go func() {
		defer close(p.exited)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
		}
		cmd.Wait() //nolint:errcheck // a killed server's exit status is expected
		running.Lock()
		delete(running.procs, p)
		running.Unlock()
	}()
	return p, nil
}

// kill sends SIGKILL to the process group and waits until the process
// has been reaped. Safe to call twice.
func (p *proc) kill() {
	if p == nil {
		return
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	<-p.exited
}

// killAll kills every child still running; called on every exit path.
func killAll() {
	running.Lock()
	var ps []*proc
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// logged waits until a log line matches re and returns its first
// capture group.
func (p *proc) logged(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	next := 0
	for {
		p.mu.Lock()
		for ; next < len(p.lines); next++ {
			if m := re.FindStringSubmatch(p.lines[next]); m != nil {
				p.mu.Unlock()
				return m[1], nil
			}
		}
		p.mu.Unlock()
		select {
		case <-p.exited:
			return "", fmt.Errorf("%s exited before logging %q; last lines: %s", p.name, re, p.tail())
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not log %q within %v", p.name, re, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *proc) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.lines)
	if n > 5 {
		n = 5
	}
	return strings.Join(p.lines[len(p.lines)-n:], " | ")
}

// cpu returns the process's consumed CPU time over all its threads. It
// sums the scheduler's per-thread run time (/proc/<pid>/task/*/schedstat,
// nanoseconds); Go servers keep their threads, so nothing is lost to
// thread exit. Kernels built without scheduler statistics fall back to
// /proc/<pid>/stat's 10 ms ticks.
func (p *proc) cpu() (time.Duration, error) {
	pid := p.cmd.Process.Pid
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return p.cpuTicks()
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return p.cpuTicks()
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return p.cpuTicks()
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// userHZ is the kernel's clock-tick unit for /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const userHZ = 100

// cpuTicks reads utime+stime from /proc/<pid>/stat.
func (p *proc) cpuTicks() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat for %s", p.name)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB.
func (p *proc) rssPeakMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

var (
	reHTTP = regexp.MustCompile(`(?:serving|routing .*) on (http://[0-9.:]+)`)
	reRPC  = regexp.MustCompile(`^ipscope-serve: rpc on ([0-9.:]+)`)
	reObs  = regexp.MustCompile(`waiting for an observation stream on ([0-9.:]+)`)
)

const startTimeout = 60 * time.Second

// health is the slice of /v1/healthz the harness reads (the node and
// router bodies share these fields; the cache counters are node-only).
type health struct {
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	CacheSize   int    `json:"cacheSize"`
}

// getHealth fetches base's /v1/healthz once.
func getHealth(c *http.Client, base string) (health, error) {
	var h health
	resp, err := c.Get(base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.Unmarshal(body, &h)
}

// awaitHealthy polls base's healthz until it answers 200 "ok" at
// minEpoch or later.
func awaitHealthy(c *http.Client, base string, minEpoch uint64, timeout time.Duration) (health, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, err := getHealth(c, base)
		if err == nil && h.Status == "ok" && h.Epoch >= minEpoch {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("%s not healthy at epoch %d within %v (last: %+v, %v)", base, minEpoch, timeout, h, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleet is the set of server processes one workload runs against.
type fleet struct {
	procs []*proc  // every server process; CPU and RSS sum over these
	nodes []string // base URL of each ipscope-serve process, as procs
	base  string   // where the load goes: the node, or the router
	// ready is spawn of the first process -> front door healthy.
	ready time.Duration
	// readyCPU is the fleet's CPU consumed by then.
	readyCPU time.Duration
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, p := range f.procs {
		p.kill()
	}
}

// cpu sums consumed CPU over the fleet.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range f.procs {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (f *fleet) rssPeakMB() float64 {
	var total float64
	for _, p := range f.procs {
		total += p.rssPeakMB()
	}
	return total
}

// startNode brings up the single-node read fleet: ipscope-serve
// -dataset with its default flags.
func (e *env) startNode(c *http.Client) (*fleet, error) {
	t0 := time.Now()
	p, err := startProc(e.logDir, e.procName("node"), e.bin("ipscope-serve"),
		"-dataset", e.dataset, "-listen", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{procs: []*proc{p}}
	if f.base, err = p.logged(reHTTP, startTimeout); err == nil {
		f.nodes = []string{f.base}
		_, err = awaitHealthy(c, f.base, 1, startTimeout)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f.markReady(t0)
}

func (f *fleet) markReady(t0 time.Time) (*fleet, error) {
	f.ready = time.Since(t0)
	var err error
	if f.readyCPU, err = f.cpu(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

const (
	routedRanges   = 2
	routedReplicas = 2
)

// startRouted brings up the replicated fleet: 2 ranges x 2 replicas of
// ipscope-serve (process p serves range p%2 as replica p/2, the
// round-robin placement the router expects) behind ipscope-router on
// the rpc transport.
func (e *env) startRouted(c *http.Client) (*fleet, error) {
	t0 := time.Now()
	f := &fleet{}
	fail := func(err error) (*fleet, error) { f.stop(); return nil, err }
	for p := 0; p < routedRanges*routedReplicas; p++ {
		sp, err := startProc(e.logDir, e.procName(fmt.Sprintf("shard%d", p)), e.bin("ipscope-serve"),
			"-dataset", e.dataset,
			"-shard-index", strconv.Itoa(p%routedRanges), "-shard-count", strconv.Itoa(routedRanges),
			"-replica", strconv.Itoa(p/routedRanges),
			"-listen", "127.0.0.1:0", "-rpc-listen", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, sp)
	}
	for _, sp := range f.procs {
		u, err := sp.logged(reHTTP, startTimeout)
		if err != nil {
			return fail(err)
		}
		f.nodes = append(f.nodes, u)
	}
	rp, err := startProc(e.logDir, e.procName("router"), e.bin("ipscope-router"),
		"-shards", strings.Join(f.nodes, ","), "-replicas", strconv.Itoa(routedReplicas),
		"-transport", "rpc", "-listen", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	f.procs = append(f.procs, rp)
	if f.base, err = rp.logged(reHTTP, startTimeout); err != nil {
		return fail(err)
	}
	if _, err := awaitHealthy(c, f.base, 1, startTimeout); err != nil {
		return fail(err)
	}
	return f.markReady(t0)
}

// restart kills process i of the fleet with SIGKILL and starts it again
// with the same flags on the same ports (the router addresses shards by
// URL), returning kill -> healthz 200 again.
func (e *env) restart(c *http.Client, f *fleet, i int) (time.Duration, error) {
	old, httpAddr := f.procs[i], f.nodes[i]
	args := append([]string(nil), old.args...)
	setFlag(args, "-listen", strings.TrimPrefix(httpAddr, "http://"))
	if rpcAddr, err := old.logged(reRPC, 0); err == nil {
		setFlag(args, "-rpc-listen", rpcAddr)
	}
	t0 := time.Now()
	old.kill()
	p, err := startProc(e.logDir, e.procName("restarted"), e.bin("ipscope-serve"), args...)
	if err != nil {
		return 0, err
	}
	f.procs[i] = p
	if _, err := awaitHealthy(c, httpAddr, 1, startTimeout); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// setFlag overwrites the value following name in args.
func setFlag(args []string, name, value string) {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == name {
			args[i+1] = value
		}
	}
}
