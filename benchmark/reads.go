package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// result is one workload's outcome in one run.
type result struct {
	Workload  string             `json:"workload"`
	Hash      string             `json:"sequenceHash"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	E2E       map[string]float64 `json:"endToEnd"`
	// Aux holds the per-layer metrics that are read from outside the
	// live processes (cache counters, CPU shares, RSS, lateness).
	Aux map[string]float64 `json:"fleet"`
	// Info is context, not gated: operation counts, build and
	// generation time.
	Info map[string]float64 `json:"info"`
}

func newResult(name string) *result {
	return &result{Workload: name, E2E: map[string]float64{}, Aux: map[string]float64{}, Info: map[string]float64{}}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count folds a pass's operation counts into the result.
func (r *result) count(s *passStats) {
	r.Attempted += s.ok + s.failed
	r.Failed += s.failed
}

// settle reduces per-pass values to their medians and files each where
// its name belongs: end-to-end metric, per-layer metric ("layer.name"),
// or context.
func (r *result) settle(perPass map[string][]float64) {
	for k, v := range perPass {
		switch {
		case endToEndNames[k]:
			r.E2E[k] = median(v)
		case strings.Contains(k, "."):
			r.Aux[k] = median(v)
		default:
			r.Info[k] = median(v)
		}
	}
}

var endToEndNames = func() map[string]bool {
	m := map[string]bool{}
	for _, x := range endToEnd {
		m[x.Name] = true
	}
	return m
}()

// verify checks kept responses against the oracle; a mismatch is a
// failed operation.
func (r *result) verify(o *oracle, samples []sampled) {
	bad := 0
	for _, s := range samples {
		if !o.matches(s) {
			if bad == 0 {
				r.problem("answer differs from the oracle: %s (status %d)", s.url, s.status)
			}
			bad++
		}
	}
	r.Failed += bad
}

// plan scales a run: the full measurement, or the short live leg a
// traced run uses to read the fleet-level per-layer metrics.
type plan struct {
	setups   int
	restarts int
	// Read workloads: window is the run's whole measuring time — set-ups,
	// restarts and the timed part. The timed part gets what the first
	// two leave of it, and never less than minTimed.
	window, minTimed time.Duration
	// live-ingest: process lifetimes.
	passes int
}

// minTimedShare is the share of a run's measuring time its timed part
// is sure of, however long the set-ups and restarts took.
const minTimedShare = 0.4

func fullPlan(name string, seconds float64) plan {
	window := time.Duration(seconds * float64(time.Second))
	pl := plan{setups: setups, restarts: restarts, window: window, minTimed: time.Duration(minTimedShare * float64(window))}
	if name == "routed-read" {
		pl.setups, pl.restarts = routedSetups, routedRestarts
	}
	return pl
}

func shortPlan() plan {
	return plan{setups: 1, restarts: 1, minTimed: 2 * time.Second}
}

// slice is what one timed slice of a closed loop measured, reduced to
// the statistics the metrics are built from.
type slice struct {
	rps, cpuUs                         float64
	pointP50, pointP95, aggP50, aggP95 float64
}

func newSlice(st *passStats, cpu time.Duration) slice {
	point, agg := sortedCopy(st.point), sortedCopy(st.agg)
	return slice{
		rps:      float64(st.ok) / st.wall.Seconds(),
		cpuUs:    float64(cpu.Nanoseconds()) / 1e3 / float64(st.ok),
		pointP50: percentile(point, 0.50), pointP95: percentile(point, 0.95),
		aggP50: percentile(agg, 0.50), aggP95: percentile(agg, 0.95),
	}
}

// readMetrics are the request metrics of a read workload: which
// statistic of a fleet slice, held against which statistic of the
// reference slice before it (whose requests are all filed as point
// lookups), at which nominal reference value.
var readMetrics = []struct {
	name      string
	nominal   float64
	of, refOf func(slice) float64
}{
	{"read_rps", refRPS, func(s slice) float64 { return s.rps }, func(s slice) float64 { return s.rps }},
	{"cpu_us_per_read", refCPUus, func(s slice) float64 { return s.cpuUs }, func(s slice) float64 { return s.cpuUs }},
	{"point_p50_ms", refP50ms, func(s slice) float64 { return s.pointP50 }, func(s slice) float64 { return s.pointP50 }},
	{"agg_p50_ms", refP50ms, func(s slice) float64 { return s.aggP50 }, func(s slice) float64 { return s.pointP50 }},
	{"node.point_p95_ms", refP95ms, func(s slice) float64 { return s.pointP95 }, func(s slice) float64 { return s.pointP95 }},
	{"node.agg_p95_ms", refP95ms, func(s slice) float64 { return s.aggP95 }, func(s slice) float64 { return s.pointP95 }},
}

// column pulls one statistic out of every slice.
func column(s []slice, f func(slice) float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

// timedCycles is the timed part of a read workload: for dur, a slice
// against the reference server, then a slice against the fleet, through
// the same client. The request sequence runs on from one fleet slice to
// the next.
func timedCycles(res *result, load *http.Client, ref *proc, refBase string, f *fleet, seq *sequence, dur time.Duration) (fleetSlices, refSlices []slice, all *passStats, err error) {
	refReqs := []request{{class: clAddr, path: "/reference", pin: -1}}
	all = &passStats{}
	timed := func(base string, reqs []request, from int, d time.Duration, keep int, cpu func() (time.Duration, error)) (*passStats, slice, error) {
		cpu0, err := cpu()
		if err != nil {
			return nil, slice{}, err
		}
		st := runClosed(load, base, reqs, from, readConns, 0, d, keep)
		cpu1, err := cpu()
		if err != nil {
			return nil, slice{}, err
		}
		if st.ok == 0 || len(st.point) == 0 {
			return nil, slice{}, fmt.Errorf("a %v slice against %s completed %d requests (%d failed)", d, base, st.ok, st.failed)
		}
		return st, newSlice(st, cpu1-cpu0), nil
	}
	next := 0
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		rs, sl, err := timed(refBase, refReqs, 0, refSlice, 0, ref.cpu)
		if err == nil && rs.failed > 0 {
			err = fmt.Errorf("the reference server failed %d requests", rs.failed)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		refSlices = append(refSlices, sl)
		st, sl, err := timed(f.base, seq.reqs, next, fleetSlice, sampleEvery, f.cpu)
		if err == nil && len(st.agg) == 0 {
			err = fmt.Errorf("a %v slice completed no aggregate request", fleetSlice)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		fleetSlices = append(fleetSlices, sl)
		next = st.next
		res.count(st)
		all.merge(st)
	}
	return fleetSlices, refSlices, all, nil
}

// runRead measures one of the three read workloads: bring the fleet up
// (several times, for the set-up metrics), restart one process of the
// last fleet under kill -9 (several times), run the timed part against
// it on one CPU, and check answers against the oracle.
func runRead(e *env, ds *dataset, name string, pl plan) (*result, error) {
	runtime.GC() // the harness's own collector must not race the first set-up
	began := time.Now()
	res := newResult(name)
	seq := genSequence(name, e.seed, ds.keys, seqLen)
	res.Hash = seq.hash
	routed := name == "routed-read"
	orc := newOracle(ds.idx, routed)
	start := e.startNode
	if routed {
		start = e.startRouted
	}
	admin := newClient(1)        // health checks; never used inside a timed slice
	warm := newClient(warmConns) // warm-up passes and the oracle sweep
	load := newClient(readConns) // the timed part
	defer admin.CloseIdleConnections()
	defer warm.CloseIdleConnections()
	defer load.CloseIdleConnections()
	ref, refBase, err := e.startReference()
	if err != nil {
		return nil, err
	}
	defer ref.kill()

	// The warm-up plays every hot URL once and then the tail of the
	// sequence, so the timed part, which starts at the sequence's head,
	// meets no key the warm-up just touched.
	var f *fleet
	defer func() { f.stop() }()
	warmUp := func() {
		if len(seq.universe) > 0 {
			res.count(runClosed(warm, f.base, seq.universe, 0, warmConns, len(seq.universe), 0, 0))
		}
		res.count(runClosed(warm, f.base, seq.reqs, len(seq.reqs)-warmOps, warmConns, warmOps, 0, 0))
	}

	// Set-up: spawn -> healthy -> warm-up pass done. Every process start,
	// here and under the restarts, is held against the compute reference
	// timed just before and just after it.
	var setupS, readyMs, readyCPUms, setupRef []float64
	before := computeReference()
	for k := 0; k < pl.setups; k++ {
		f.stop()
		warm.CloseIdleConnections()
		t0 := time.Now()
		if f, err = start(admin); err != nil {
			return nil, err
		}
		warmUp()
		setupS = append(setupS, time.Since(t0).Seconds())
		readyMs = append(readyMs, ms(f.ready))
		readyCPUms = append(readyCPUms, ms(f.readyCPU))
		after := computeReference()
		setupRef = append(setupRef, (before+after)/2)
		before = after
		res.Attempted++
	}

	// Restart under kill -9: the first serve process, same flags. The
	// router re-admits it when its healthz is asked, and the restarted
	// process's cache is warmed again for the timed part.
	var resumeS, resumeRef []float64
	for i := 0; i < pl.restarts; i++ {
		d, err := e.restart(admin, f, 0)
		if err != nil {
			return nil, err
		}
		resumeS = append(resumeS, d.Seconds())
		after := computeReference()
		resumeRef = append(resumeRef, (before+after)/2)
		before = after
		res.Attempted++
	}
	if _, err := awaitHealthy(admin, f.base, 1, startTimeout); err != nil {
		return nil, err
	}
	warm.CloseIdleConnections()
	warmUp()

	// Timed part, on one CPU, for what is left of the measuring time.
	cache0, err := f.cacheTotals(admin)
	if err != nil {
		return nil, err
	}
	routerCPU := func() time.Duration { // 0 without a router
		if !routed {
			return 0
		}
		c, _ := f.procs[len(f.procs)-1].cpu()
		return c
	}
	routerCPU0 := routerCPU()
	fleetCPU0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	restore, err := onOneCPU(append([]*proc{ref}, f.procs...))
	if err != nil {
		return nil, err
	}
	fleetSlices, refSlices, timed, err := timedCycles(res, load, ref, refBase, f, seq, max(pl.window-time.Since(began), pl.minTimed))
	restore()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range readMetrics {
		measured := column(fleetSlices, m.of)
		v := atReferenceSpeed(m.nominal, measured, column(refSlices, m.refOf))
		if endToEndNames[m.name] {
			res.E2E[m.name] = v
		} else {
			res.Aux[m.name] = v
		}
		res.Info["raw_"+strings.TrimPrefix(m.name, "node.")] = median(measured)
	}
	res.Info["ref_rps"] = median(column(refSlices, func(s slice) float64 { return s.rps }))
	res.Info["ref_cpu_us"] = median(column(refSlices, func(s slice) float64 { return s.cpuUs }))
	res.Info["ref_p50_ms"] = median(column(refSlices, func(s slice) float64 { return s.pointP50 }))
	res.Info["ref_p95_ms"] = median(column(refSlices, func(s slice) float64 { return s.pointP95 }))
	res.Info["cycles"] = float64(len(fleetSlices))
	res.Info["ops"] = float64(timed.ok)

	cache1, err := f.cacheTotals(admin)
	if err != nil {
		return nil, err
	}
	fleetCPU1, err := f.cpu()
	if err != nil {
		return nil, err
	}
	res.Aux["cluster.router_cpu_share"] = float64(routerCPU()-routerCPU0) / float64(fleetCPU1-fleetCPU0)
	if lookups := cache1.CacheHits + cache1.CacheMisses - cache0.CacheHits - cache0.CacheMisses; lookups > 0 {
		res.Aux["serve.cache_hit_ratio"] = float64(cache1.CacheHits-cache0.CacheHits) / float64(lookups)
	} else {
		res.Aux["serve.cache_hit_ratio"] = 0 // the rpc transport bypasses the shard caches
	}
	res.Aux["serve.cache_size"] = float64(cache1.CacheSize)
	res.Aux["cluster.busiest_range_share"] = busiestShare(timed.byShard)
	res.Aux["node.rss_peak_mb"] = f.rssPeakMB()
	res.Aux["node.start_to_ready_s"] = median(readyMs) / 1000
	res.Aux["node.checkpoint_files"] = 0
	res.Aux["node.reader_late_ms"] = 0 // closed loop: nothing is ever due

	// Oracle: the sampled responses of the timed part, then every
	// distinct URL once through the fleet's front door.
	res.verify(orc, timed.samples)
	warm.CloseIdleConnections()
	sweepReqs := seq.universe
	if len(sweepReqs) == 0 {
		sweepReqs = distinct(seq.reqs[:verifyOps])
	}
	sweep := runClosed(warm, f.base, sweepReqs, 0, warmConns, len(sweepReqs), 0, 1)
	res.count(sweep)
	res.verify(orc, sweep.samples)
	res.Info["verified"] = float64(len(timed.samples) + len(sweep.samples))

	// The batch fleet's ingest path is its start-up: the dataset is
	// handed over at spawn and visible at the first healthy answer.
	days := float64(ds.days)
	atRef := func(measured, ref []float64) float64 { return atReferenceSpeed(refComputeMs, measured, ref) }
	res.E2E["setup_s"] = atRef(setupS, setupRef)
	res.E2E["resume_s"] = atRef(resumeS, resumeRef)
	res.E2E["cpu_ms_per_day"] = atRef(readyCPUms, setupRef) / days
	res.E2E["publish_lag_p50_ms"] = atRef(readyMs, setupRef)
	res.E2E["ingest_days_per_s"] = days / (res.E2E["publish_lag_p50_ms"] / 1000)
	lag := make([]float64, len(readyMs)) // hand-over -> visible, one sample per set-up
	for i := range lag {
		lag[i] = refComputeMs * readyMs[i] / setupRef[i]
	}
	res.Aux["node.publish_lag_p90_ms"] = percentile(sortedCopy(lag), 0.90)
	res.Info["raw_setup_s"] = median(setupS)
	res.Info["raw_resume_s"] = median(resumeS)
	res.Info["raw_ready_ms"] = median(readyMs)
	res.Info["ref_compute_ms"] = median(append(append([]float64(nil), setupRef...), resumeRef...))
	res.Info["measured_s"] = time.Since(began).Seconds()

	if res.Failed > 0 {
		res.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// cacheTotals sums the response-cache counters over the fleet's
// ipscope-serve processes.
func (f *fleet) cacheTotals(c *http.Client) (health, error) {
	var total health
	for _, base := range f.nodes {
		h, err := getHealth(c, base)
		if err != nil {
			return total, err
		}
		total.CacheHits += h.CacheHits
		total.CacheMisses += h.CacheMisses
		total.CacheSize += h.CacheSize
	}
	return total, nil
}

// busiestShare is the share of point lookups answered by the busiest
// block range (from the router's X-Shard header); a single node is one
// range and owns them all.
func busiestShare(byShard map[string]int) float64 {
	total, most := 0, 0
	for _, n := range byShard {
		total += n
		if n > most {
			most = n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(most) / float64(total)
}

// distinct returns reqs without repeated paths, order kept.
func distinct(reqs []request) []request {
	seen := make(map[string]bool, len(reqs))
	var out []request
	for _, r := range reqs {
		if !seen[r.path] {
			seen[r.path] = true
			out = append(out, r)
		}
	}
	return out
}
