package ipscope

// bench_test.go regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) as benchmarks, plus
// the ablations DESIGN.md calls out. Key shape numbers are attached to
// each benchmark via b.ReportMetric so a -bench run records the series
// the paper reports.

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ipscope/internal/analysis"
	"ipscope/internal/bgp"
	"ipscope/internal/cluster"
	"ipscope/internal/core"
	"ipscope/internal/history"
	"ipscope/internal/ipv4"
	"ipscope/internal/node"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/rdns"
	"ipscope/internal/rpc"
	"ipscope/internal/scan"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
	"ipscope/internal/useragent"
)

var (
	benchOnce sync.Once
	benchCtx  *analysis.Context
)

// benchContext builds the shared world/simulation used by all
// experiment benchmarks (outside the timed sections).
func benchContext(b *testing.B) *analysis.Context {
	b.Helper()
	benchOnce.Do(func() {
		wcfg := synthnet.Config{Seed: 17, NumASes: 150, MeanBlocksPerAS: 10}
		scfg := sim.DefaultConfig()
		scfg.Days = 112
		scfg.DailyStart = 28
		scfg.DailyLen = 84
		benchCtx = analysis.NewContext(wcfg, scfg)
	})
	return benchCtx
}

func BenchmarkFigure1Growth(b *testing.B) {
	var stag float64
	for i := 0; i < b.N; i++ {
		f := analysis.Figure1(uint64(i + 1))
		stag = f.StagnationRatio
	}
	b.ReportMetric(stag, "post/pre-growth")
}

func BenchmarkTable1Datasets(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var tot int
	for i := 0; i < b.N; i++ {
		t := analysis.Table1(ctx)
		tot = t.Weekly.TotalIPs
	}
	b.ReportMetric(float64(tot), "yearIPs")
}

func BenchmarkFigure2Visibility(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		f := analysis.Figure2(ctx)
		frac = f.CDNOnlyIPFraction
	}
	b.ReportMetric(100*frac, "cdnOnly%")
}

func BenchmarkFigure2Classification(b *testing.B) {
	ctx := benchContext(b)
	cdn := ctx.CDNMonth()
	icmpOnly := ctx.Campaign.ICMP.Diff(cdn)
	b.ResetTimer()
	var servers int
	for i := 0; i < b.N; i++ {
		cl := core.ClassifyICMPOnly(icmpOnly, ctx.Campaign.Servers, ctx.Campaign.Routers)
		servers = cl[core.ClassServer]
	}
	b.ReportMetric(float64(servers), "servers")
}

func BenchmarkFigure3RIR(b *testing.B) {
	ctx := benchContext(b)
	cdn := ctx.CDNMonth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GroupByRIR(cdn, ctx.Campaign.ICMP, ctx.World.Registry)
	}
}

func BenchmarkFigure3Countries(b *testing.B) {
	ctx := benchContext(b)
	cdn := ctx.CDNMonth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GroupByCountry(cdn, ctx.Campaign.ICMP, ctx.World.Registry, 11)
	}
}

func BenchmarkFigure4Daily(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		pts := core.ChurnSeries(ctx.Obs.Daily)
		var s float64
		for _, p := range pts {
			s += p.UpPct
		}
		mean = s / float64(len(pts))
	}
	b.ReportMetric(mean, "dailyUp%")
}

func BenchmarkFigure4Windows(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		// Figure 4b: the 1-day row from the index's counts, the wider
		// windows from the daily sets.
		p := ctx.Index.SummaryPartial()
		daily := make([]core.ChurnPoint, len(p.Ups))
		for j := range daily {
			daily[j] = core.NewChurnPoint(p.Ups[j], p.Downs[j], p.DayLens[j], p.DayLens[j+1])
		}
		wcs := append([]core.WindowChurn{core.SummarizeChurn(1, daily)},
			core.ChurnByWindow(ctx.Obs.Daily, []int{2, 4, 7, 14, 28})...)
		med = wcs[len(wcs)-1].Up.Median
	}
	b.ReportMetric(med, "28dUp%")
}

func BenchmarkFigure4Yearly(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var appear int
	for i := 0; i < b.N; i++ {
		ads := core.VersusBaseline(ctx.Obs.Weekly)
		appear = ads[len(ads)-1].Appear
	}
	b.ReportMetric(float64(appear), "yearAppear")
}

// BenchmarkFigure5 times Figure 5's one walk over a window series'
// transitions and the three panels read from it, over the series the
// report walks (Context.Windows: the daily sets themselves at w=1).
func BenchmarkFigure5(b *testing.B) {
	ctx := benchContext(b)
	for _, w := range []int{1, 7, 28} {
		wins := ctx.Windows(w)
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var ases int
			var single, up float64
			for i := 0; i < b.N; i++ {
				s := core.WalkTransitions(wins, w, ctx.ASOf, ctx.Obs.Routing, ctx.Obs.Meta.Run.DailyStart)
				ases = len(s.PerASChurn(100))
				single = s.EventSizes()[4]
				up = s.CorrelateBGP().UpPct
			}
			b.ReportMetric(float64(ases), "ASes")
			b.ReportMetric(100*single, "/32share%")
			b.ReportMetric(up, "upBGP%")
		})
	}
}

func BenchmarkTable2LongTerm(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var full float64
	for i := 0; i < b.N; i++ {
		t := analysis.Table2(ctx)
		full = t.Result.AppearFull24Pct
	}
	b.ReportMetric(full, "full24%")
}

func BenchmarkFigure6Patterns(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(analysis.Figure6(ctx).Examples)
	}
	b.ReportMetric(float64(n), "examples")
}

func BenchmarkFigure7Change(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure7(ctx, 2)
	}
}

func BenchmarkFigure8Change(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		cs := core.DetectChange(ctx.Obs.Daily, 28, 0.25)
		frac = cs.MajorFraction()
	}
	b.ReportMetric(100*frac, "major%")
}

func BenchmarkFigure8FD(b *testing.B) {
	ctx := benchContext(b)
	blocks := core.ActiveBlocks(ctx.Obs.Daily)
	b.ResetTimer()
	var high int
	for i := 0; i < b.N; i++ {
		high = 0
		for _, blk := range blocks {
			if core.FillingDegree(ctx.Obs.Daily, blk) > 250 {
				high++
			}
		}
	}
	b.ReportMetric(float64(high), "FD>250")
}

func BenchmarkFigure8STU(b *testing.B) {
	ctx := benchContext(b)
	blocks := core.ActiveBlocks(ctx.Obs.Daily)
	b.ResetTimer()
	var full int
	for i := 0; i < b.N; i++ {
		full = 0
		for _, blk := range blocks {
			if core.STU(ctx.Obs.Daily, blk) >= 0.995 {
				full++
			}
		}
	}
	b.ReportMetric(float64(full), "fullSTU")
}

func BenchmarkFigure9Hits(b *testing.B) {
	ctx := benchContext(b)
	iter := ctx.TrafficIter()
	days := len(ctx.Obs.Daily)
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		tb := core.BinByDaysActive(days, iter)
		med = tb.DailyHitPercentiles[days-1][2]
	}
	b.ReportMetric(med, "everydayMedHits")
}

func BenchmarkFigure9Cumulative(b *testing.B) {
	ctx := benchContext(b)
	tb := core.BinByDaysActive(len(ctx.Obs.Daily), ctx.TrafficIter())
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		_, traffic := tb.Cumulative()
		share = 1 - traffic[len(traffic)-2]
	}
	b.ReportMetric(100*share, "lastBinTraffic%")
}

func BenchmarkFigure9TopShare(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var delta float64
	for i := 0; i < b.N; i++ {
		delta = analysis.Figure9(ctx).TrendDelta
	}
	b.ReportMetric(100*delta, "top10%trendPP")
}

func BenchmarkFigure10UADiversity(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	var gw int
	for i := 0; i < b.N; i++ {
		f := analysis.Figure10(ctx)
		gw = f.Regions.Gateways
	}
	b.ReportMetric(float64(gw), "gateways")
}

func BenchmarkFigure11Demographics(b *testing.B) {
	ctx := benchContext(b)
	features := ctx.BlockFeatures()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		d := core.BuildDemographics(features)
		cells = len(d.Counts)
	}
	b.ReportMetric(float64(cells), "cells")
}

func BenchmarkFigure12RIR(b *testing.B) {
	ctx := benchContext(b)
	features := ctx.BlockFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildRIRDemographics(features, ctx.World.Registry)
	}
}

func BenchmarkRecapture(b *testing.B) {
	ctx := benchContext(b)
	cdn := ctx.CDNMonth()
	b.ResetTimer()
	var est float64
	for i := 0; i < b.N; i++ {
		e, err := core.RecaptureSets(cdn, ctx.Campaign.ICMP)
		if err != nil {
			b.Fatal(err)
		}
		est = e.Chapman
	}
	b.ReportMetric(est, "chapman")
}

// --- Substrate and ablation benchmarks -------------------------------

// BenchmarkSimulationDay measures the simulator's per-day cost.
func BenchmarkSimulationDay(b *testing.B) {
	w := synthnet.Generate(synthnet.Config{Seed: 2, NumASes: 60, MeanBlocksPerAS: 8})
	cfg := sim.TinyConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(w, cfg)
	}
	b.ReportMetric(float64(cfg.Days), "days/op")
}

// benchWorkerCounts returns the worker counts the parallel-vs-
// sequential sweeps compare: 1 plus GOMAXPROCS when they differ (on a
// single-CPU machine the second case would just repeat the first).
func benchWorkerCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkSimFullSweep runs the whole-space observation sweep at one
// worker (the sequential reference) and at GOMAXPROCS workers. The two
// produce identical results; the ratio of their ns/op is the engine's
// parallel speedup (expected >= 2x at GOMAXPROCS >= 4).
func BenchmarkSimFullSweep(b *testing.B) {
	w := synthnet.Generate(synthnet.Config{Seed: 9, NumASes: 120, MeanBlocksPerAS: 12})
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := sim.TinyConfig()
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(w, cfg)
			}
			b.ReportMetric(float64(len(w.Blocks)), "blocks/op")
		})
	}
}

// BenchmarkUnionAll measures the batched set union over a window of
// daily snapshots at one worker vs GOMAXPROCS workers.
func BenchmarkUnionAll(b *testing.B) {
	ctx := benchContext(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = ipv4.UnionAll(ctx.Obs.Daily, workers).Len()
			}
			b.ReportMetric(float64(n), "addrs")
		})
	}
}

// BenchmarkAblationLPM compares the routing-trie against the linear
// reference (the LPM ablation from DESIGN.md).
func BenchmarkAblationLPM(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var routes []bgp.Route
	trie := bgp.NewTable()
	for i := 0; i < 5000; i++ {
		p, _ := ipv4.NewPrefix(ipv4.Addr(rng.Uint32()), 8+rng.Intn(17))
		r := bgp.Route{Prefix: p, Origin: bgp.ASN(i + 1)}
		routes = append(routes, r)
		trie.Insert(r)
	}
	lin := bgp.NewLinearTable(routes)
	probes := make([]ipv4.Addr, 1024)
	for i := range probes {
		probes[i] = ipv4.Addr(rng.Uint32())
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trie.Lookup(probes[i%len(probes)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lin.Lookup(probes[i%len(probes)])
		}
	})
}

// BenchmarkAblationSet compares the bitmap-backed address set against a
// plain Go map at churn-analysis access patterns.
func BenchmarkAblationSet(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	addrs := make([]ipv4.Addr, 100000)
	for i := range addrs {
		addrs[i] = ipv4.Addr(0x0a000000 + rng.Uint32()%(1<<16))
	}
	b.Run("bitmap-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s1 := ipv4.NewSet()
			s2 := ipv4.NewSet()
			for j, a := range addrs {
				if j%2 == 0 {
					s1.Add(a)
				} else {
					s2.Add(a)
				}
			}
			_ = s1.DiffCount(s2)
		}
	})
	b.Run("go-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m1 := make(map[ipv4.Addr]bool)
			m2 := make(map[ipv4.Addr]bool)
			for j, a := range addrs {
				if j%2 == 0 {
					m1[a] = true
				} else {
					m2[a] = true
				}
			}
			n := 0
			for a := range m1 {
				if !m2[a] {
					n++
				}
			}
			_ = n
		}
	})
}

// BenchmarkAblationHLL sweeps sketch precision: accuracy vs memory.
func BenchmarkAblationHLL(b *testing.B) {
	for _, p := range []uint8{8, 10, 12, 14} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var est float64
			for i := 0; i < b.N; i++ {
				h := useragent.NewHLL(p)
				for j := 0; j < 10000; j++ {
					h.AddString(fmt.Sprintf("ua-%d", j))
				}
				est = h.Estimate()
			}
			relErr := (est - 10000) / 10000
			b.ReportMetric(relErr*100, "relErr%")
			b.ReportMetric(float64(uint64(1)<<p), "registers")
		})
	}
}

// BenchmarkAblationChangeThreshold sweeps the Figure 8a ΔSTU threshold.
func BenchmarkAblationChangeThreshold(b *testing.B) {
	ctx := benchContext(b)
	for _, th := range []float64{0.10, 0.25, 0.40} {
		b.Run(fmt.Sprintf("th=%.2f", th), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				cs := core.DetectChange(ctx.Obs.Daily, 28, th)
				frac = cs.MajorFraction()
			}
			b.ReportMetric(100*frac, "major%")
		})
	}
}

// BenchmarkAblationChurnWindow sweeps the aggregation window.
func BenchmarkAblationChurnWindow(b *testing.B) {
	ctx := benchContext(b)
	for _, w := range []int{1, 7, 28} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				wc := core.ChurnByWindow(ctx.Obs.Daily, []int{w})
				med = wc[0].Up.Median
			}
			b.ReportMetric(med, "upMedian%")
		})
	}
}

// --- Observation-pipeline benchmarks ---------------------------------

// benchDataset returns the shared context's dataset and its canonical
// encoding (built once, outside the timed sections).
func benchDataset(b *testing.B) (*obs.Data, []byte) {
	ctx := benchContext(b)
	var buf bytes.Buffer
	if err := obs.Write(&buf, ctx.Obs); err != nil {
		b.Fatal(err)
	}
	return ctx.Obs, buf.Bytes()
}

// BenchmarkDatasetWrite measures codec encode throughput: the cost of
// streaming a full observation dataset through an obs.Writer.
func BenchmarkDatasetWrite(b *testing.B) {
	d, encoded := benchDataset(b)
	b.SetBytes(int64(len(encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.Write(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(encoded)), "datasetBytes")
}

// BenchmarkDatasetRead measures codec decode throughput: file bytes to
// an analysis-ready obs.Data — the whole dataset, and shard 0 of 2's
// slice of it decoded through cluster.PartitionSink, as
// `ipscope-serve -dataset -shard-count 2` decodes its file (plan
// derivation from the meta frame included).
func BenchmarkDatasetRead(b *testing.B) {
	_, encoded := benchDataset(b)
	for _, c := range []struct {
		name string
		sink func(d *obs.Data) obs.Sink
	}{
		{"full", func(d *obs.Data) obs.Sink { return d }},
		{"shard-of-2", func(d *obs.Data) obs.Sink { return cluster.PartitionSink(d, 0, 2, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(encoded)))
			b.ReportAllocs()
			var days int
			for i := 0; i < b.N; i++ {
				d := &obs.Data{}
				if err := obs.StreamDecode(bytes.NewReader(encoded), c.sink(d)); err != nil {
					b.Fatal(err)
				}
				days = len(d.Daily)
			}
			b.ReportMetric(float64(days), "dailySnapshots")
		})
	}
}

// benchPipelineWorld is the small world the report-path benchmarks
// simulate (the full bench world would dominate the timings).
func benchPipelineConfigs() (synthnet.Config, sim.Config) {
	wcfg := synthnet.Config{Seed: 29, NumASes: 40, MeanBlocksPerAS: 6}
	scfg := sim.TinyConfig()
	return wcfg, scfg
}

// BenchmarkReportFromSim measures the monolithic path: world
// generation, simulation and every experiment, per report.
func BenchmarkReportFromSim(b *testing.B) {
	wcfg, scfg := benchPipelineConfigs()
	for i := 0; i < b.N; i++ {
		ctx := analysis.NewContext(wcfg, scfg)
		analysis.RunAll(io.Discard, ctx, wcfg.Seed)
	}
}

// BenchmarkReportFromDataset measures the pipeline path: decode a
// stored dataset, regenerate the world from its metadata and run every
// experiment — what re-analyzing a year of stored observations costs
// once simulation is paid for elsewhere.
func BenchmarkReportFromDataset(b *testing.B) {
	wcfg, scfg := benchPipelineConfigs()
	w := synthnet.Generate(wcfg)
	res := sim.Run(w, scfg)
	var buf bytes.Buffer
	if err := obs.Write(&buf, &res.Data); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.SetBytes(int64(len(encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := obs.Decode(bytes.NewReader(encoded))
		if err != nil {
			b.Fatal(err)
		}
		ctx, err := analysis.NewContextFromSource(d)
		if err != nil {
			b.Fatal(err)
		}
		analysis.RunAll(io.Discard, ctx, wcfg.Seed)
	}
}

// BenchmarkScanPermutation measures the ZMap-style permutation.
func BenchmarkScanPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _ := scan.NewPermutation(1<<20, uint64(i))
		for {
			if _, ok := p.Next(); !ok {
				break
			}
		}
	}
	b.ReportMetric(1<<20, "addrs/op")
}

// BenchmarkIndexApplyDay is the incremental-indexing claim in numbers:
// absorbing one more day into a warm query.Applier and publishing a new
// epoch-stamped snapshot (what a live server pays per refresh) versus
// compiling the whole dataset from scratch (what the pre-incremental
// serving stack would have paid). Applying a day mutates the applier,
// so iterations walk through a held-back run of days and re-warm a
// fresh applier (untimed) only when they run out — the expensive warmup
// amortizes over the whole run instead of repeating per iteration.
func BenchmarkIndexApplyDay(b *testing.B) {
	ctx := benchContext(b)
	var events []obs.Event
	record := obs.SinkFunc(func(e obs.Event) error { events = append(events, e); return nil })
	if err := ctx.Obs.WriteTo(record); err != nil {
		b.Fatal(err)
	}
	// Canonical replay order packs all day events contiguously; warm on
	// everything before the second half of the window and hold the rest
	// of the days back for the timed sections.
	warmDays := len(ctx.Obs.Daily) / 2
	warmEnd := -1
	var held []obs.Event
	for i, e := range events {
		if de, ok := e.(obs.DayEvent); ok {
			if de.Index == warmDays && warmEnd < 0 {
				warmEnd = i
			}
			if de.Index >= warmDays {
				held = append(held, e)
			}
		}
	}
	if warmEnd < 0 || len(held) == 0 {
		b.Fatal("dataset too small to hold back days")
	}
	warm := events[:warmEnd]

	// A day seals a timeline word when it is the word's last or the
	// window's: it then writes the word into every block's timelines, a
	// fan-out the days between do not pay, so it is its own row.
	window := len(ctx.Obs.Daily)
	seals := func(e obs.Event) bool {
		day := e.(obs.DayEvent).Index
		return day%64 == 63 || day == window-1
	}
	warmApplier := func(b *testing.B) *query.Applier {
		a := query.NewApplier(query.Options{})
		for _, e := range warm {
			if err := a.Observe(e); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := a.Snapshot(); err != nil {
			b.Fatal(err)
		}
		return a
	}
	applyPublish := func(b *testing.B, a *query.Applier, e obs.Event) *query.Index {
		if err := a.Observe(e); err != nil {
			b.Fatal(err)
		}
		idx, err := a.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		return idx
	}

	b.Run("apply-day+publish", func(b *testing.B) {
		// One held day that leaves its word open per iteration; a
		// sealing day among them is applied untimed.
		b.Run("mid-word", func(b *testing.B) {
			b.ReportAllocs()
			var a *query.Applier
			next := len(held) // force a warmup on the first iteration
			var blocks int
			for i := 0; i < b.N; i++ {
				for next == len(held) || seals(held[next]) {
					b.StopTimer()
					if next == len(held) {
						a, next = warmApplier(b), 0
					} else {
						applyPublish(b, a, held[next])
						next++
					}
					b.StartTimer()
				}
				blocks = applyPublish(b, a, held[next]).NumBlocks()
				next++
			}
			b.ReportMetric(float64(blocks), "blocks")
		})

		// The first held day that seals, applied to an applier resumed
		// (untimed) from a checkpoint taken the day before.
		b.Run("seal-day", func(b *testing.B) {
			b.ReportAllocs()
			a := warmApplier(b)
			seal := slices.IndexFunc(held, seals)
			for _, e := range held[:seal] {
				applyPublish(b, a, e)
			}
			cp, err := a.EncodeCheckpoint(nil)
			if err != nil {
				b.Fatal(err)
			}
			var blocks int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l, err := query.DecodeSnapshot(cp)
				if err != nil {
					b.Fatal(err)
				}
				r, _, err := l.ResumeApplier(query.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				blocks = applyPublish(b, r, held[seal]).NumBlocks()
			}
			b.ReportMetric(float64(blocks), "blocks")
		})
	})

	b.Run("full-rebuild", func(b *testing.B) {
		var blocks int
		for i := 0; i < b.N; i++ {
			idx, err := query.Build(ctx.Obs, query.Options{})
			if err != nil {
				b.Fatal(err)
			}
			blocks = idx.NumBlocks()
		}
		b.ReportMetric(float64(blocks), "blocks")
	})
}

// checkpointBytes is a log sink that adds up what the checkpoint writer
// says it wrote: its lines — one per image, one per journal record — end
// in "(N bytes)".
type checkpointBytes struct{ n int64 }

var checkpointLine = regexp.MustCompile(`checkpoint \S+.*\((\d+) bytes\)\n$`)

func (c *checkpointBytes) Write(p []byte) (int, error) {
	if m := checkpointLine.FindSubmatch(p); m != nil {
		n, _ := strconv.ParseInt(string(m[1]), 10, 64)
		c.n += n
	}
	return len(p), nil
}

// BenchmarkNodeFlood is the live write path in-process, flooded: a fresh
// node with a snapshot directory ingests the whole bench dataset as fast
// as it takes it — decode, apply, publish and checkpoint every day, the
// checkpoint writer beside ingest — and shuts down, which waits for the
// last write. ms/day is the flood rate's inverse; ckptB/day is what the
// write path persisted per day.
func BenchmarkNodeFlood(b *testing.B) {
	d, encoded := benchDataset(b)
	var written checkpointBytes
	log.SetOutput(&written)
	defer log.SetOutput(os.Stderr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := node.Start(node.Config{Listen: "127.0.0.1:0", SnapshotDir: b.TempDir(), SnapshotKeep: 3})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Ingest(bytes.NewReader(encoded)); err != nil {
			b.Fatal(err)
		}
		if err := n.Shutdown(); err != nil {
			b.Fatal(err)
		}
	}
	days := float64(b.N * len(d.Daily))
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/days, "ms/day")
	b.ReportMetric(float64(written.n)/days, "ckptB/day")
}

// BenchmarkIndexBuild measures compiling an observation dataset into
// the serving index (internal/query): the one-time cost that buys
// microsecond point lookups on the request path.
func BenchmarkIndexBuild(b *testing.B) {
	ctx := benchContext(b)
	for _, workers := range []int{1, 0} {
		name := "1worker"
		if workers == 0 {
			name = "maxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var blocks int
			for i := 0; i < b.N; i++ {
				idx, err := query.Build(ctx.Obs, query.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				blocks = idx.NumBlocks()
			}
			b.ReportMetric(float64(blocks), "blocks")
		})
	}
}

// BenchmarkClassifyWorld measures the rDNS share of that build: tagging
// every world block from its 256 synthesized PTR names, as query.Build
// and a live node's meta frame both do (on one worker here; the build
// fans the blocks out).
func BenchmarkClassifyWorld(b *testing.B) {
	world := benchContext(b).World
	b.ReportAllocs()
	b.ResetTimer()
	var tagged int
	for i := 0; i < b.N; i++ {
		tagged = 0
		for _, blk := range world.Blocks {
			if rdns.ClassifyZone(world.RDNSZone(blk), 0.6) != rdns.Untagged {
				tagged++
			}
		}
	}
	b.ReportMetric(float64(len(world.Blocks)), "blocks")
	b.ReportMetric(float64(tagged), "tagged")
}

// BenchmarkColdStart pins the persistent-snapshot payoff: restoring the
// serving index from an on-disk snapshot ("load", the mmap path — cost
// O(sections), not O(addresses)) against compiling it from the dataset
// ("build", what a snapshot-less restart pays). The two sub-benchmarks
// share one world so their ratio is the cold-start speedup, which is
// reported here and not gated anywhere.
func BenchmarkColdStart(b *testing.B) {
	ctx := benchContext(b)
	idx, err := query.Build(ctx.Obs, query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "coldstart.ipsnap")
	data := query.EncodeSnapshot(idx, nil)
	if err := query.WriteSnapshotFile(path, data); err != nil {
		b.Fatal(err)
	}

	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		var blocks int
		for i := 0; i < b.N; i++ {
			loaded, err := query.LoadSnapshotFile(path, query.LoadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			blocks = loaded.Index.NumBlocks()
			loaded.Close()
		}
		if blocks != idx.NumBlocks() {
			b.Fatalf("loaded %d blocks, built %d", blocks, idx.NumBlocks())
		}
		b.ReportMetric(float64(blocks), "blocks")
		b.ReportMetric(float64(len(data)), "snapshotBytes")
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		var blocks int
		for i := 0; i < b.N; i++ {
			bidx, err := query.Build(ctx.Obs, query.Options{})
			if err != nil {
				b.Fatal(err)
			}
			blocks = bidx.NumBlocks()
		}
		b.ReportMetric(float64(blocks), "blocks")
	})
}

// BenchmarkResumeApplier measures what a restarted live node still owes
// after its newest checkpoint is loaded and published, before it can
// ingest again: restoring the Applier from a full-window checkpoint
// (decoded outside the timer; the resumed appliers are never fed, so
// one Loaded serves every iteration). The cost follows the number of
// blocks, not blocks x days (query.TestResumeApplierProportional).
func BenchmarkResumeApplier(b *testing.B) {
	ctx := benchContext(b)
	a := query.NewApplier(query.Options{})
	if err := ctx.Obs.WriteTo(a); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Snapshot(); err != nil {
		b.Fatal(err)
	}
	cp, err := a.EncodeCheckpoint(nil)
	if err != nil {
		b.Fatal(err)
	}
	loaded, err := query.DecodeSnapshot(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var days int
	for i := 0; i < b.N; i++ {
		resumed, _, err := loaded.ResumeApplier(query.Options{})
		if err != nil {
			b.Fatal(err)
		}
		days = resumed.Days()
	}
	if days != len(ctx.Obs.Daily) {
		b.Fatalf("resumed at day %d, want %d", days, len(ctx.Obs.Daily))
	}
	b.ReportMetric(float64(loaded.Index.NumBlocks()), "blocks")
}

// BenchmarkServeLookup measures the HTTP serving path under parallel
// clients — real sockets, the LRU+single-flight cache in front of the
// index — for both a cache-friendly (hot) and a cache-hostile (cold,
// every path distinct) load.
func BenchmarkServeLookup(b *testing.B) {
	ctx := benchContext(b)
	idx, err := query.Build(ctx.Obs, query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	blocks := idx.Blocks()

	run := func(b *testing.B, cacheSize int, paths func(i int) string) {
		srv := serve.New(idx, serve.Config{CacheSize: cacheSize})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		client.Transport = &http.Transport{MaxIdleConnsPerHost: 64}
		var n atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(n.Add(1))
				resp, err := client.Get(ts.URL + paths(i))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
		b.StopTimer()
		hits, misses, _ := srv.CacheStats()
		if tot := hits + misses; tot > 0 {
			b.ReportMetric(100*float64(hits)/float64(tot), "cachehit%")
		}
	}

	b.Run("hot", func(b *testing.B) {
		hotset := blocks
		if len(hotset) > 32 {
			hotset = hotset[:32]
		}
		run(b, 4096, func(i int) string {
			return "/v1/block/" + hotset[i%len(hotset)].String()
		})
	})
	b.Run("cold", func(b *testing.B) {
		run(b, 64, func(i int) string {
			blk := blocks[i%len(blocks)]
			return "/v1/addr/" + blk.Addr(byte(i)).String()
		})
	})
	b.Run("summary", func(b *testing.B) {
		run(b, 4096, func(i int) string { return "/v1/summary" })
	})
}

// globalLRU reproduces the pre-striping response cache — one mutex and
// one container/list guarding every key, with the same single-flight
// fill protocol — as the contention baseline for
// BenchmarkCacheContention.
type globalLRU struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List
	items    map[string]*list.Element
	inflight map[string]*globalLRUFlight
}

type globalLRUEntry struct {
	key  string
	resp serve.Response
}

type globalLRUFlight struct {
	done chan struct{}
	resp serve.Response
}

func newGlobalLRU(capacity int) *globalLRU {
	return &globalLRU{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*globalLRUFlight),
	}
}

func (c *globalLRU) do(key string, fill func() serve.Response) (serve.Response, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		resp := el.Value.(*globalLRUEntry).resp
		c.mu.Unlock()
		return resp, true
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.resp, true
	}
	fl := &globalLRUFlight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	fl.resp = fill()
	c.mu.Lock()
	delete(c.inflight, key)
	el := c.ll.PushFront(&globalLRUEntry{key: key, resp: fl.resp})
	c.items[key] = el
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*globalLRUEntry).key)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.resp, false
}

// BenchmarkCacheContention pins the tentpole claim of the read-path
// overhaul: under parallel traffic the lock-striped sharded cache beats
// the single-mutex LRU it replaced (reproduced above as the baseline).
// Three key sets probe the three regimes: "hot" is all hits on a small
// working set (pure lock/LRU bookkeeping contention — and the sharded
// hit path must stay allocation free), "cold" is all misses (insert +
// eviction churn), "mixed" interleaves the two 4:1.
func BenchmarkCacheContention(b *testing.B) {
	const capacity, hot, cold = 4096, 512, 1 << 16
	resp := serve.Response{Status: 200, Body: []byte(`{"epoch":1}` + "\n")}
	keys := make([]string, cold)
	bkeys := make([][]byte, cold)
	for i := range keys {
		keys[i] = fmt.Sprintf("1:/v1/block/%d.%d.%d.0/24", i/65536, i/256%256, i%256)
		bkeys[i] = []byte(keys[i])
	}
	fill := func() serve.Response { return resp }
	store := func() (serve.Response, bool) { return resp, true }

	// pick maps a worker-local counter to a key index per regime: hot
	// cycles the small working set, cold strides the whole key space
	// (misses once the LRU has churned), mixed is 4 hot : 1 cold.
	pick := func(set string, i int) int {
		switch set {
		case "hot":
			return i % hot
		case "cold":
			return i % cold
		default:
			if i%5 == 4 {
				return i % cold
			}
			return i % hot
		}
	}

	for _, set := range []string{"hot", "cold", "mixed"} {
		b.Run(set, func(b *testing.B) {
			b.Run("global-mutex", func(b *testing.B) {
				c := newGlobalLRU(capacity)
				for i := 0; i < hot; i++ {
					c.do(keys[i], fill)
				}
				var n atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := int(n.Add(1)) * 31
					for pb.Next() {
						c.do(keys[pick(set, i)], fill)
						i++
					}
				})
			})
			b.Run("sharded", func(b *testing.B) {
				c := serve.NewCache(capacity)
				for i := 0; i < hot; i++ {
					c.Put(keys[i], resp)
				}
				var n atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := int(n.Add(1)) * 31
					for pb.Next() {
						k := pick(set, i)
						if _, ok := c.Get(bkeys[k]); !ok {
							c.Do(keys[k], store)
						}
						i++
					}
				})
			})
		})
	}
}

// BenchmarkShardBuild measures compiling one shard's slice of the
// dataset versus the full index: the horizontal-scaling claim is that
// a shard only pays for its partition, so a quarter-partition build
// (including the plan derivation and stream filtering a real shard
// performs) must be measurably cheaper than the monolithic one.
func BenchmarkShardBuild(b *testing.B) {
	ctx := benchContext(b)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		var blocks int
		for i := 0; i < b.N; i++ {
			idx, err := query.Build(ctx.Obs, query.Options{})
			if err != nil {
				b.Fatal(err)
			}
			blocks = idx.NumBlocks()
		}
		b.ReportMetric(float64(blocks), "blocks")
	})
	b.Run("quarter-shard", func(b *testing.B) {
		plan, err := cluster.PlanShards(ctx.World, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var blocks int
		for i := 0; i < b.N; i++ {
			idx, err := query.Build(cluster.PartitionSource(ctx.Obs, 0, 4),
				query.Options{Keep: plan.Keep(0)})
			if err != nil {
				b.Fatal(err)
			}
			blocks = idx.NumBlocks()
		}
		b.ReportMetric(float64(blocks), "blocks")
	})
}

// benchCluster stands up a two-shard cluster (HTTP + RPC listeners on
// every shard) fronted by a router speaking the given transport, and
// returns the routed base URL, the active blocks, and the first
// shard's RPC address for direct bulk calls.
func benchCluster(b *testing.B, transport string) (rtsURL string, blocks []ipv4.Block, rpcAddr string) {
	b.Helper()
	ctx := benchContext(b)
	const shards = 2
	plan, err := cluster.PlanShards(ctx.World, shards)
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		idx, err := query.Build(cluster.PartitionSource(ctx.Obs, i, shards), query.Options{})
		if err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, idx.Blocks()...)
		lo, hi := plan.Range(i)
		srv := serve.New(idx, serve.Config{Shard: &wire.ShardInfo{Index: i, Count: shards, Lo: lo, Hi: hi}})
		rs := rpc.NewServer(srv, rpc.Options{})
		raddr, err := rs.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rs.Shutdown(context.Background()) })
		srv.SetRPCAddr(raddr.String())
		if i == 0 {
			rpcAddr = raddr.String()
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	router, err := cluster.NewRouter(urls, cluster.RouterOptions{Transport: transport})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { router.Close() })
	rts := httptest.NewServer(router.Handler())
	b.Cleanup(rts.Close)
	return rts.URL, blocks, rpcAddr
}

// benchRoutedGets hammers the routed base URL with parallel clients —
// real sockets on both hops (client→router and router→shards).
func benchRoutedGets(b *testing.B, rtsURL string, paths func(i int) string) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()
	var n atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(n.Add(1))
			resp, err := client.Get(rtsURL + paths(i))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}

// BenchmarkRouterLookup measures the scatter-gather front over the
// HTTP-JSON shard transport: proxied point lookups and the fan-out
// merged summary.
func BenchmarkRouterLookup(b *testing.B) {
	rtsURL, blocks, _ := benchCluster(b, cluster.TransportHTTP)
	b.Run("block", func(b *testing.B) {
		benchRoutedGets(b, rtsURL, func(i int) string { return "/v1/block/" + blocks[i%len(blocks)].String() })
	})
	b.Run("summary", func(b *testing.B) {
		benchRoutedGets(b, rtsURL, func(i int) string { return "/v1/summary" })
	})
}

// --- Historical-epoch benchmarks -------------------------------------

// BenchmarkDeltaQuery measures the epoch-diff path: the merge-walk that
// computes /v1/delta between two retained snapshots ("compute"), and
// the served endpoint under parallel clients once the epoch-addressed
// cache is warm ("http-cached").
func BenchmarkDeltaQuery(b *testing.B) {
	ctx := benchContext(b)
	half := len(ctx.Obs.Daily) / 2
	fromIdx, err := query.Build(ctx.Obs.TruncateLive(half), query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	toIdx, err := query.Build(ctx.Obs, query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	from, to := fromIdx.AtEpoch(1), toIdx.AtEpoch(2)

	b.Run("compute", func(b *testing.B) {
		var changed int
		for i := 0; i < b.N; i++ {
			v, err := to.Delta(from, query.DefaultDeltaBlockList)
			if err != nil {
				b.Fatal(err)
			}
			changed = v.ChangedBlocks
		}
		b.ReportMetric(float64(changed), "changedBlocks")
	})
	b.Run("http-cached", func(b *testing.B) {
		srv := serve.New(nil, serve.Config{RetainEpochs: 2})
		srv.Publish(from)
		srv.Publish(to)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		client.Transport = &http.Transport{MaxIdleConnsPerHost: 64}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := client.Get(ts.URL + "/v1/delta?from=1&to=2")
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
	})
}

// BenchmarkEpochLookup measures time travel: resolving a retained epoch
// in the history ring ("ring-get") and a full as-of point lookup over
// HTTP with ?epoch= addressing the per-epoch cache ("http-as-of").
func BenchmarkEpochLookup(b *testing.B) {
	ctx := benchContext(b)
	idx, err := query.Build(ctx.Obs, query.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const epochs = 8

	b.Run("ring-get", func(b *testing.B) {
		r := history.New(epochs)
		for e := uint64(1); e <= epochs; e++ {
			r.Add(idx.AtEpoch(e))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(uint64(1 + i%epochs)); !ok {
				b.Fatal("retained epoch missed")
			}
		}
	})
	b.Run("http-as-of", func(b *testing.B) {
		srv := serve.New(nil, serve.Config{RetainEpochs: epochs})
		for e := uint64(1); e <= epochs; e++ {
			srv.Publish(idx.AtEpoch(e))
		}
		blocks := idx.Blocks()
		if len(blocks) > 32 {
			blocks = blocks[:32]
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		client.Transport = &http.Transport{MaxIdleConnsPerHost: 64}
		var n atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(n.Add(1))
				path := fmt.Sprintf("/v1/block/%s?epoch=%d", blocks[i%len(blocks)], 1+i%epochs)
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
		b.StopTimer()
		hits, misses, _ := srv.CacheStats()
		if tot := hits + misses; tot > 0 {
			b.ReportMetric(100*float64(hits)/float64(tot), "cachehit%")
		}
	})
}

// BenchmarkRouterLookupRPC measures the same routed workload over the
// binary RPC shard transport — the public hop stays HTTP, only the
// router↔shard hop changes — plus a direct 16-address bulk lookup
// against one shard's RPC endpoint (the amortized path a batch client
// uses instead of 16 round trips).
func BenchmarkRouterLookupRPC(b *testing.B) {
	rtsURL, blocks, rpcAddr := benchCluster(b, cluster.TransportRPC)
	b.Run("block", func(b *testing.B) {
		benchRoutedGets(b, rtsURL, func(i int) string { return "/v1/block/" + blocks[i%len(blocks)].String() })
	})
	b.Run("summary", func(b *testing.B) {
		benchRoutedGets(b, rtsURL, func(i int) string { return "/v1/summary" })
	})
	b.Run("bulk-16", func(b *testing.B) {
		rc := rpc.NewClient(rpcAddr, rpc.ClientOptions{})
		defer rc.Close()
		var n atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			addrs := make([]uint32, 16)
			for pb.Next() {
				i := int(n.Add(1))
				for j := range addrs {
					blk := blocks[(i*16+j)%len(blocks)]
					addrs[j] = uint32(blk.Addr(uint8(j)))
				}
				views, _, err := rc.BulkAddr(context.Background(), addrs)
				if err != nil {
					b.Error(err)
					return
				}
				if len(views) != len(addrs) {
					b.Errorf("bulk answered %d views for %d addrs", len(views), len(addrs))
					return
				}
			}
		})
	})
}
