// Command ipscope-loadgen is the query-workload engine: it simulates
// the read traffic of a large user population against a serve node or a
// router+shards cluster, deterministically. Where ipscope-gen simulates
// the address space, loadgen simulates the users hitting us — so every
// perf claim about the read path is a measured number, not a guess.
//
// The workload is derived, like everything else in the pipeline, from a
// seed: loadgen regenerates the same synthetic world the server was
// given (pass it the same -seed/-ases/-blocks-per-as flags as
// ipscope-gen) and draws request targets from it under a zipfian
// popularity law — a small hot set absorbs most lookups, with a long
// tail, which is what real lookup APIs see. The same seed always
// produces the same request sequence (the report prints the workload
// hash as proof), so two runs differ only in the serving binary under
// test.
//
// The run is split into phases that stress different parts of the read
// path:
//
//	steady   the mixed endpoint blend under zipfian popularity — the
//	         baseline cache-friendly traffic shape
//	burst    every worker hammers the hottest handful of blocks —
//	         maximum contention on a few cache-hit keys
//	herd     all workers converge on one cold URL at a time, rotating
//	         through fresh targets — the thundering-herd shape the
//	         single-flight cache exists for
//	storm    the post-epoch-swap shape: requests carry explicit
//	         ?epoch= pins spread over the server's retained range, the
//	         traffic a swap storm sends when clients chase epochs
//
// Output is a per-phase latency/error/cache table (p50/p90/p99,
// throughput, hit ratio), optionally as JSON (-json) and as a markdown
// SLO table (-md FILE) for the CI job summary. Transport errors and
// 5xx responses are hard errors (non-zero exit); 404s for never-active
// blocks are counted separately — they are part of the workload, not a
// failure. -slo-p99 prints a warn-only SLO verdict.
//
//	-target URL        server or router base URL (default
//	                   http://127.0.0.1:8090)
//	-seed/-ases/-blocks-per-as
//	                   regenerate the server's world (same flags as
//	                   ipscope-gen; -ases and -blocks-per-as must be
//	                   at least 1)
//	-requests N        total requests across all phases (default 4000)
//	-concurrency C     parallel client workers (default 2×GOMAXPROCS)
//	-mix SPEC          endpoint blend, e.g. "addr:45,block:25,
//	                   prefix:12,as:10,summary:6,movement:2"
//	-phases SPEC       phase weights, e.g. "steady:60,burst:20,
//	                   herd:10,storm:10" (0 disables a phase)
//	-zipf-s/-zipf-v    popularity skew (s>1; larger = hotter hot set)
//	-timeout D         per-request timeout (default 5s)
//	-warmup D          how long to wait for the target's /v1/healthz
//	                   (default 30s)
//	-json              emit the report as one JSON object
//	-md FILE           also write the report as a markdown table
//	-slo-p99 D         warn-only SLO: flag phases whose p99 exceeds D
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipscope/internal/ipv4"
	"ipscope/internal/synthnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-loadgen: ")

	target := flag.String("target", "http://127.0.0.1:8090", "server or router base URL")
	seed := flag.Uint64("seed", 1, "world seed (must match the server's dataset)")
	ases := flag.Int("ases", 300, "number of autonomous systems (must match)")
	blocksPerAS := flag.Int("blocks-per-as", 12, "mean /24 blocks per AS (must match)")
	requests := flag.Int("requests", 4000, "total requests across all phases")
	concurrency := flag.Int("concurrency", 2*runtime.GOMAXPROCS(0), "parallel client workers")
	mixSpec := flag.String("mix", "addr:45,block:25,prefix:12,as:10,summary:6,movement:2", "endpoint blend weights")
	phaseSpec := flag.String("phases", "steady:60,burst:20,herd:10,storm:10", "phase weights")
	zipfS := flag.Float64("zipf-s", 1.2, "zipf skew (>1)")
	zipfV := flag.Float64("zipf-v", 1, "zipf v parameter (>=1)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	warmup := flag.Duration("warmup", 30*time.Second, "how long to wait for the target to become healthy")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	mdOut := flag.String("md", "", "also write the report as a markdown table to FILE")
	sloP99 := flag.Duration("slo-p99", 0, "warn-only SLO bound on per-phase p99 (0 = off)")
	flag.Parse()
	// synthnet reads a size below 1 as "use the library default".
	for _, f := range []struct {
		name string
		v    int
	}{{"ases", *ases}, {"blocks-per-as", *blocksPerAS}} {
		if f.v < 1 {
			log.Printf("-%s %d: must be at least 1", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

	base := strings.TrimSuffix(*target, "/")
	mix, err := parseWeights(*mixSpec, []string{"addr", "block", "prefix", "as", "summary", "movement", "delta"})
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}
	phases, err := parseWeights(*phaseSpec, []string{"steady", "burst", "herd", "storm"})
	if err != nil {
		log.Fatalf("-phases: %v", err)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	hz, err := awaitHealthy(client, base, *warmup)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("target %s healthy: epoch %d, retained %d..%d", base, hz.Epoch, hz.OldestEpoch, hz.NewestEpoch)

	// The same world the server indexed, regenerated from the seed —
	// loadgen needs no endpoint discovery because the dataset is a pure
	// function of its generation flags.
	world := synthnet.Generate(synthnet.Config{Seed: *seed, NumASes: *ases, MeanBlocksPerAS: *blocksPerAS})
	gen := newWorkload(world, hz, mix, *zipfS, *zipfV, *seed)

	report := runReport{
		Target:      base,
		Seed:        *seed,
		Requests:    *requests,
		Concurrency: *concurrency,
	}
	var allURLs []string
	start := time.Now()
	for _, ph := range []string{"steady", "burst", "herd", "storm"} {
		n := *requests * phases[ph] / totalWeight(phases)
		if n <= 0 {
			continue
		}
		urls := gen.phase(ph, n)
		allURLs = append(allURLs, urls...)
		report.Phases = append(report.Phases, runPhase(client, base, ph, urls, *concurrency))
	}
	report.WallSeconds = time.Since(start).Seconds()
	report.WorkloadHash = fmt.Sprintf("%016x", hashURLs(allURLs))
	report.total()

	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(report)
	} else {
		report.write(os.Stdout, *sloP99)
	}
	if *mdOut != "" {
		f, err := os.Create(*mdOut)
		if err != nil {
			log.Fatal(err)
		}
		report.writeMarkdown(f, *sloP99)
		f.Close()
	}
	if report.Errors > 0 {
		log.Fatalf("%d hard errors (transport or 5xx)", report.Errors)
	}
}

// healthz is the slice of /v1/healthz loadgen consumes.
type healthz struct {
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	OldestEpoch uint64 `json:"oldestEpoch"`
	NewestEpoch uint64 `json:"newestEpoch"`
}

func awaitHealthy(client *http.Client, base string, warmup time.Duration) (healthz, error) {
	deadline := time.Now().Add(warmup)
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			var hz healthz
			err = json.NewDecoder(resp.Body).Decode(&hz)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && hz.Status == "ok" {
				return hz, nil
			}
			last = fmt.Errorf("healthz status %d (%s)", resp.StatusCode, hz.Status)
		} else {
			last = err
		}
		time.Sleep(200 * time.Millisecond)
	}
	return healthz{}, fmt.Errorf("target %s never became healthy in %v: %v", base, warmup, last)
}

// parseWeights parses "name:weight,..." against the allowed name set.
func parseWeights(spec string, allowed []string) (map[string]int, error) {
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	out := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, raw, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("entry %q wants name:weight", part)
		}
		if !ok[name] {
			return nil, fmt.Errorf("unknown name %q (allowed: %s)", name, strings.Join(allowed, ", "))
		}
		w, err := strconv.Atoi(raw)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("weight %q is not a non-negative integer", raw)
		}
		out[name] = w
	}
	if totalWeight(out) == 0 {
		return nil, fmt.Errorf("every weight is zero")
	}
	return out, nil
}

func totalWeight(w map[string]int) int {
	t := 0
	for _, v := range w {
		t += v
	}
	return t
}

// workload turns the regenerated world into deterministic request URL
// sequences. One rand.Rand drives everything, so the full sequence is a
// pure function of (world seed, flags).
type workload struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	blocks   []*synthnet.Block
	asns     []uint32
	prefixes []ipv4.Prefix
	mix      []string // endpoint names, expanded by weight
	hz       healthz
}

func newWorkload(w *synthnet.World, hz healthz, mix map[string]int, zipfS, zipfV float64, seed uint64) *workload {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	g := &workload{rng: rng, blocks: w.Blocks, hz: hz}
	g.zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(len(w.Blocks)-1))
	for _, as := range w.ASes {
		g.asns = append(g.asns, uint32(as.Num))
		g.prefixes = append(g.prefixes, as.Prefixes...)
	}
	// Expand the mix into a weighted pick table. Delta needs two
	// retained epochs; with none, its weight folds into summary.
	for name, weight := range mix {
		if name == "delta" && hz.OldestEpoch >= hz.NewestEpoch {
			name = "summary"
		}
		for i := 0; i < weight; i++ {
			g.mix = append(g.mix, name)
		}
	}
	sort.Strings(g.mix) // map order is random; the table must not be
	return g
}

// pick returns one zipf-popular block: index 0 is the hottest.
func (g *workload) pick() *synthnet.Block {
	return g.blocks[g.zipf.Uint64()]
}

func (g *workload) one() string {
	switch g.mix[g.rng.Intn(len(g.mix))] {
	case "addr":
		return "/v1/addr/" + g.pick().Block.Addr(byte(g.rng.Intn(256))).String()
	case "block":
		return "/v1/block/" + g.pick().Block.String()
	case "prefix":
		return "/v1/prefix/" + g.prefixes[g.rng.Intn(len(g.prefixes))].String()
	case "as":
		return fmt.Sprintf("/v1/as/AS%d", g.asns[g.rng.Intn(len(g.asns))])
	case "movement":
		return "/v1/movement"
	case "delta":
		return fmt.Sprintf("/v1/delta?from=%d&to=%d", g.hz.OldestEpoch, g.hz.NewestEpoch)
	default: // summary
		return "/v1/summary"
	}
}

// phase generates the n-request URL sequence for one phase.
func (g *workload) phase(name string, n int) []string {
	urls := make([]string, 0, n)
	switch name {
	case "burst":
		// The hottest few blocks, point lookups only: every request
		// after the first pass is a cache hit on a contended key.
		hot := len(g.blocks)
		if hot > 4 {
			hot = 4
		}
		for i := 0; i < n; i++ {
			urls = append(urls, "/v1/block/"+g.blocks[g.rng.Intn(hot)].Block.String())
		}
	case "herd":
		// Runs of one identical cold URL: the whole worker pool lands
		// on it at once and exactly one fill should run per rotation.
		run := n / 8
		if run < 1 {
			run = 1
		}
		var u string
		for i := 0; i < n; i++ {
			if i%run == 0 {
				u = "/v1/prefix/" + g.prefixes[g.rng.Intn(len(g.prefixes))].String()
			}
			urls = append(urls, u)
		}
	case "storm":
		// Epoch-pinned lookups spread over the retained range — the
		// traffic shape of clients chasing epochs across a swap storm.
		span := g.hz.NewestEpoch - g.hz.OldestEpoch + 1
		for i := 0; i < n; i++ {
			e := g.hz.OldestEpoch + g.rng.Uint64()%span
			urls = append(urls, fmt.Sprintf("/v1/block/%s?epoch=%d", g.pick().Block, e))
		}
	default: // steady
		for i := 0; i < n; i++ {
			urls = append(urls, g.one())
		}
	}
	return urls
}

func hashURLs(urls []string) uint64 {
	h := uint64(14695981039346656037)
	for _, u := range urls {
		for i := 0; i < len(u); i++ {
			h ^= uint64(u[i])
			h *= 1099511628211
		}
		h ^= '\n'
		h *= 1099511628211
	}
	return h
}

// phaseReport is the measured outcome of one phase.
type phaseReport struct {
	Phase      string  `json:"phase"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	NotFound   int     `json:"notFound"`
	CacheHits  int     `json:"cacheHits"`
	CacheMiss  int     `json:"cacheMisses"`
	P50Ms      float64 `json:"p50Ms"`
	P90Ms      float64 `json:"p90Ms"`
	P99Ms      float64 `json:"p99Ms"`
	Throughput float64 `json:"reqPerSec"`
}

type runReport struct {
	Target       string        `json:"target"`
	Seed         uint64        `json:"seed"`
	Requests     int           `json:"requests"`
	Concurrency  int           `json:"concurrency"`
	WorkloadHash string        `json:"workloadHash"`
	WallSeconds  float64       `json:"wallSeconds"`
	Errors       int           `json:"errors"`
	NotFound     int           `json:"notFound"`
	HitRate      float64       `json:"hitRate"`
	Phases       []phaseReport `json:"phases"`
}

// runPhase drives the worker pool through one phase's URL list.
func runPhase(client *http.Client, base, name string, urls []string, concurrency int) phaseReport {
	lat := make([]time.Duration, len(urls))
	var next atomic.Int64
	var errs, notFound, hits, misses atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(urls) {
					return
				}
				t0 := time.Now()
				resp, err := client.Get(base + urls[i])
				if err != nil {
					errs.Add(1)
					lat[i] = time.Since(t0)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat[i] = time.Since(t0)
				switch {
				case resp.StatusCode >= 500:
					errs.Add(1)
				case resp.StatusCode >= 400:
					notFound.Add(1)
				}
				switch resp.Header.Get("X-Cache") {
				case "hit":
					hits.Add(1)
				case "miss":
					misses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return float64(lat[i].Microseconds()) / 1000
	}
	return phaseReport{
		Phase:      name,
		Requests:   len(urls),
		Errors:     int(errs.Load()),
		NotFound:   int(notFound.Load()),
		CacheHits:  int(hits.Load()),
		CacheMiss:  int(misses.Load()),
		P50Ms:      pct(0.50),
		P90Ms:      pct(0.90),
		P99Ms:      pct(0.99),
		Throughput: float64(len(urls)) / elapsed.Seconds(),
	}
}

func (r *runReport) total() {
	for _, p := range r.Phases {
		r.Errors += p.Errors
		r.NotFound += p.NotFound
	}
	var hits, seen int
	for _, p := range r.Phases {
		hits += p.CacheHits
		seen += p.CacheHits + p.CacheMiss
	}
	if seen > 0 {
		r.HitRate = float64(hits) / float64(seen)
	}
}

func (r *runReport) write(w io.Writer, sloP99 time.Duration) {
	fmt.Fprintf(w, "target %s  seed %d  workload %s  %d reqs  %d workers  %.2fs\n",
		r.Target, r.Seed, r.WorkloadHash, r.Requests, r.Concurrency, r.WallSeconds)
	fmt.Fprintf(w, "%-8s %8s %6s %6s %6s %9s %9s %9s %10s\n",
		"phase", "reqs", "errs", "404s", "hit%", "p50(ms)", "p90(ms)", "p99(ms)", "req/s")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-8s %8d %6d %6d %6s %9.2f %9.2f %9.2f %10.0f%s\n",
			p.Phase, p.Requests, p.Errors, p.NotFound, hitPct(p),
			p.P50Ms, p.P90Ms, p.P99Ms, p.Throughput, sloMark(p, sloP99))
	}
	fmt.Fprintf(w, "total: %d errors, %d not-found, %.1f%% cache hits\n",
		r.Errors, r.NotFound, 100*r.HitRate)
}

func (r *runReport) writeMarkdown(w io.Writer, sloP99 time.Duration) {
	fmt.Fprintf(w, "### loadgen: %s (seed %d, workload %s)\n\n", r.Target, r.Seed, r.WorkloadHash)
	fmt.Fprintf(w, "| phase | reqs | errs | 404s | hit%% | p50 ms | p90 ms | p99 ms | req/s | SLO |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, p := range r.Phases {
		verdict := "—"
		if sloP99 > 0 {
			if p.P99Ms > float64(sloP99.Microseconds())/1000 {
				verdict = "⚠ WARN"
			} else {
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %s | %.2f | %.2f | %.2f | %.0f | %s |\n",
			p.Phase, p.Requests, p.Errors, p.NotFound, hitPct(p),
			p.P50Ms, p.P90Ms, p.P99Ms, p.Throughput, verdict)
	}
	fmt.Fprintf(w, "\n%d workers, %.2fs wall, %d errors, %.1f%% cache hits\n",
		r.Concurrency, r.WallSeconds, r.Errors, 100*r.HitRate)
}

func hitPct(p phaseReport) string {
	seen := p.CacheHits + p.CacheMiss
	if seen == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", 100*float64(p.CacheHits)/float64(seen))
}

func sloMark(p phaseReport, sloP99 time.Duration) string {
	if sloP99 <= 0 {
		return ""
	}
	if p.P99Ms > float64(sloP99.Microseconds())/1000 {
		return "  SLO-WARN"
	}
	return "  SLO-ok"
}
