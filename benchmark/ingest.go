package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// batch is what the stream carries for one day: the day's frame and the
// week, scan and end-of-stream frames that follow it, in stream order.
// batch -1 is the preamble before day 0 (meta, restructures, routing).
type batch [][]byte

// batches groups the stream's frames by the day they travel with.
func batches(frames []frame, days int) (preamble batch, byDay []batch, err error) {
	byDay = make([]batch, days)
	cur := -1
	for _, f := range frames {
		if f.day >= 0 {
			if f.day != cur+1 || f.day >= days {
				return nil, nil, fmt.Errorf("stream's day frames are not 0..%d in order (day %d after %d)", days-1, f.day, cur)
			}
			cur = f.day
		}
		if cur < 0 {
			preamble = append(preamble, f.bytes)
		} else {
			byDay[cur] = append(byDay[cur], f.bytes)
		}
	}
	if cur != days-1 {
		return nil, nil, fmt.Errorf("stream has %d day frames, want %d", cur+1, days)
	}
	return preamble, byDay, nil
}

func (b batch) writeTo(conn net.Conn) error {
	for _, p := range b {
		if _, err := conn.Write(p); err != nil {
			return fmt.Errorf("stream write: %w", err)
		}
	}
	return nil
}

// ingestPlan is the number of live-ingest passes a run of the given
// length makes; a pass's length is set by the dataset, not the clock.
func ingestPlan(seconds float64) plan {
	return plan{passes: max(1, int(math.Round(seconds/ingestPassSeconds)))}
}

// runIngest measures live-ingest: per pass a fresh ipscope-serve
// -obs-listen with an empty checkpoint directory ingests the stream
// (warm-up flood, paced phase, flood) while the open-loop reader runs,
// then is killed with SIGKILL and resumed.
func runIngest(e *env, ds *dataset, pl plan) (*result, error) {
	runtime.GC() // the harness's own collector must not race the first set-up
	res := newResult("live-ingest")
	seq := genSequence("live-ingest", e.seed, ds.keys, seqLen)
	res.Hash = seq.hash
	frames, err := ds.frames(nil)
	if err != nil {
		return nil, err
	}
	preamble, byDay, err := batches(frames, ds.days)
	if err != nil {
		return nil, err
	}
	orc := newOracle(ds.idx, true)

	// Per-pass values, the medians of lag and read latency among them,
	// are reduced by their median, so one disturbed pass in three leaves
	// a run where it was. The tails are taken over the passes' pooled
	// samples instead: a pass has 48 lag samples and ~900 aggregate
	// reads, too few for tails of their own.
	// What is bulk work — set-up, ingest rate, lag, CPU, resume — is put
	// at reference speed pass by pass, against the compute reference
	// timed in the pass's four quiet moments; read latency, which here
	// is two CPUs waking each other, stays as measured.
	per := map[string][]float64{}
	var pool pooled
	for p := 0; p < pl.passes; p++ {
		if err := e.ingestPass(ds, preamble, byDay, seq, orc, res, per, &pool); err != nil {
			return nil, fmt.Errorf("live-ingest pass %d: %w", p, err)
		}
	}
	res.settle(per)
	lag, point, agg := sortedCopy(pool.lag), sortedCopy(pool.point), sortedCopy(pool.agg)
	res.Aux["node.publish_lag_p90_ms"] = percentile(lag, 0.90)
	res.Aux["node.point_p95_ms"] = percentile(point, 0.95)
	res.Aux["node.agg_p95_ms"] = percentile(agg, 0.95)
	res.Info["lag_samples"] = float64(len(lag))
	res.Info["point_samples"] = float64(len(point))
	res.Info["paced_days_per_s"] = pacedDaysPerSec
	res.Aux["cluster.busiest_range_share"] = 1
	res.Aux["cluster.router_cpu_share"] = 0
	if res.Failed > 0 {
		res.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// pooled collects the samples live-ingest reduces over all passes.
type pooled struct{ lag, point, agg []float64 }

const snapPattern = "snap-%010d.ipsnap" // cmd/ipscope-serve's checkpoint file name

func (e *env) ingestPass(ds *dataset, preamble batch, byDay []batch, seq *sequence, orc *oracle,
	res *result, per map[string][]float64, pool *pooled) error {
	admin := newClient(1)
	defer admin.CloseIdleConnections()
	days := ds.days
	finalEpoch := uint64(days) + 1 // one epoch per day, one more for the end-of-stream aggregates
	ckpt := filepath.Join(e.out, "ckpt", e.procName("pass"))
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(ckpt)
	args := []string{"-obs-listen", "127.0.0.1:0", "-listen", "127.0.0.1:0",
		"-snapshot-dir", ckpt, "-retain-epochs", strconv.Itoa(retainEpochs)}

	// speed is how much slower than nominal the compute reference ran
	// around a stretch of the pass; dividing by it puts a time at
	// reference speed.
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	speed := func(before, after float64) float64 { return (before + after) / 2 / refComputeMs }
	ref0 := computeReference()

	// Set-up: spawn -> listening -> the warm-up days ingested.
	t0 := time.Now()
	p, err := startProc(e.logDir, e.procName("live"), e.bin("ipscope-serve"), args...)
	if err != nil {
		return err
	}
	defer func() { p.kill() }()
	base, err := p.logged(reHTTP, startTimeout)
	if err != nil {
		return err
	}
	obsAddr, err := p.logged(reObs, startTimeout)
	if err != nil {
		return err
	}
	add("node.start_to_ready_s", time.Since(t0).Seconds())
	conn, err := net.Dial("tcp", obsAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := preamble.writeTo(conn); err != nil {
		return err
	}
	for d := 0; d < warmDays; d++ {
		if err := byDay[d].writeTo(conn); err != nil {
			return err
		}
	}
	if _, err := awaitHealthy(admin, base, warmDays, startTimeout); err != nil {
		return err
	}
	setupS := time.Since(t0).Seconds()
	ref1 := computeReference()
	add("setup_s", setupS/speed(ref0, ref1))
	add("raw_setup_s", setupS)
	res.Attempted++

	// Paced phase: one day every 1/pacedDaysPerSec seconds, on schedule
	// whether or not the server keeps up.
	reader := startReader(base, seq.reqs, readerRPS, warmDays)
	stopReader := func() (paced, flood *passStats) {
		if reader == nil {
			return nil, nil
		}
		paced, flood = reader.finish()
		reader = nil
		return paced, flood
	}
	defer stopReader()
	cpu0, err := p.cpu()
	if err != nil {
		return err
	}
	interval := time.Duration(math.Round(float64(time.Second) / pacedDaysPerSec))
	due := make([]time.Time, days)
	pacedStart := time.Now()
	for d := warmDays; d < pacedEnd; d++ {
		due[d] = pacedStart.Add(time.Duration(d-warmDays) * interval)
		sleepUntil(due[d])
		if err := byDay[d].writeTo(conn); err != nil {
			return err
		}
	}
	// Day d becomes epoch d+1. Lag runs from the day's due time to the
	// first reader response carrying its epoch.
	var lag []float64
	for d := warmDays; d < pacedEnd; d++ {
		at, err := reader.await(uint64(d)+1, startTimeout)
		if err != nil {
			return err
		}
		lag = append(lag, ms(at.Sub(due[d])))
	}

	// Flood phase: the remaining days and the end-of-stream frames as
	// fast as the server takes them.
	reader.flooded.Store(true)
	floodStart := time.Now()
	for d := pacedEnd; d < days; d++ {
		if err := byDay[d].writeTo(conn); err != nil {
			return err
		}
	}
	conn.Close()
	lastDayAt, err := reader.await(uint64(days), startTimeout)
	if err != nil {
		return err
	}
	cpu1, err := p.cpu()
	if err != nil {
		return err
	}
	paced, flood := stopReader()
	res.count(paced)
	res.count(flood)
	res.Attempted += days - warmDays
	reads := paced.ok + flood.ok
	if paced.ok == 0 || flood.ok == 0 {
		return fmt.Errorf("the reader completed no request in one of the phases")
	}
	// Latency is read at the fixed, below-capacity ingest rate of the
	// paced phase. Under the flood the node is saturated on purpose and
	// a read's wait is queueing behind ingest work, which the flood's
	// own metric (ingest_days_per_s) already prices.
	pool.point = append(pool.point, paced.point...)
	pool.agg = append(pool.agg, paced.agg...)
	add("point_p50_ms", median(paced.point))
	add("agg_p50_ms", median(paced.agg))
	add("ops_per_pass", float64(reads))
	add("read_rps", float64(reads)/paced.wall.Seconds())
	add("node.reader_late_ms", percentile(sortedCopy(append(paced.late, flood.late...)), 0.99))

	// The final epoch folds in the end-of-stream aggregates; once its
	// checkpoint is on disk the node must answer exactly as the batch
	// build does.
	if _, err := awaitHealthy(admin, base, finalEpoch, startTimeout); err != nil {
		return err
	}
	if err := awaitFile(filepath.Join(ckpt, fmt.Sprintf(snapPattern, finalEpoch)), startTimeout); err != nil {
		return err
	}
	h, err := getHealth(admin, base)
	if err != nil {
		return err
	}
	if n := h.CacheHits + h.CacheMisses; n > 0 {
		add("serve.cache_hit_ratio", float64(h.CacheHits)/float64(n))
	}
	add("serve.cache_size", float64(h.CacheSize))
	files, _ := filepath.Glob(filepath.Join(ckpt, "snap-*.ipsnap"))
	add("node.checkpoint_files", float64(len(files)))
	add("node.rss_peak_mb", p.rssPeakMB())
	e.checkSummary(admin, base, orc, res, "final")

	// The stream's metrics, at the speed of the references on either side
	// of it (the node is idle again: its last checkpoint is on disk).
	ref2 := computeReference()
	streamed := speed(ref1, ref2)
	for _, l := range lag {
		pool.lag = append(pool.lag, l/streamed)
	}
	floodRate := float64(days-pacedEnd) / lastDayAt.Sub(floodStart).Seconds()
	add("ingest_days_per_s", floodRate*streamed)
	add("cpu_us_per_read", float64((cpu1-cpu0).Microseconds())/float64(reads)/streamed)
	add("cpu_ms_per_day", ms(cpu1-cpu0)/float64(days-warmDays)/streamed)
	add("raw_ingest_days_per_s", floodRate)
	add("publish_lag_p50_ms", median(lag)/streamed)
	add("raw_publish_lag_p50_ms", median(lag))
	add("raw_cpu_ms_per_day", ms(cpu1-cpu0)/float64(days-warmDays))

	// kill -9, restart with the same flags, healthy at the checkpointed
	// epoch.
	killed := time.Now()
	p.kill()
	if p, err = startProc(e.logDir, e.procName("live-resumed"), e.bin("ipscope-serve"), args...); err != nil {
		return err
	}
	if base, err = p.logged(reHTTP, startTimeout); err != nil {
		return err
	}
	if _, err := awaitHealthy(admin, base, finalEpoch, startTimeout); err != nil {
		return err
	}
	resumeS := time.Since(killed).Seconds()
	add("resume_s", resumeS/speed(ref2, computeReference()))
	add("raw_resume_s", resumeS)
	add("ref_compute_ms", ref2)
	res.Attempted++
	e.checkSummary(admin, base, orc, res, "post-resume")
	return nil
}

// checkSummary fetches /v1/summary and holds it against the batch
// build.
func (e *env) checkSummary(c *http.Client, base string, orc *oracle, res *result, when string) {
	var st passStats
	st.fetch(c, base, "/v1/summary", clSummary, time.Now(), true)
	res.count(&st)
	if len(st.samples) == 1 && !orc.matches(st.samples[0]) {
		res.Failed++
		res.problem("%s /v1/summary differs from the batch build", when)
	}
}

// awaitFile waits for path to exist (checkpoints appear by atomic
// rename, so existing means complete).
func awaitFile(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not appear within %v", path, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
