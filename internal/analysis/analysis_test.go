package analysis

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

var (
	ctxOnce sync.Once
	testCtx *Context
)

// sharedCtx builds one medium-scale context reused by all tests.
func sharedCtx(t testing.TB) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		wcfg := synthnet.Config{Seed: 11, NumASes: 200, MeanBlocksPerAS: 10}
		scfg := sim.DefaultConfig()
		scfg.Days = 112 // 16 weeks keeps tests fast but non-trivial
		scfg.DailyStart = 28
		scfg.DailyLen = 84
		scfg.UADays = 28
		testCtx = NewContext(wcfg, scfg)
	})
	return testCtx
}

func TestFigure1Stagnation(t *testing.T) {
	f := Figure1(1)
	if f.Fit.R2 < 0.95 {
		t.Errorf("pre-2014 fit R2 = %v, want near-linear", f.Fit.R2)
	}
	if f.StagnationRatio > 0.25 {
		t.Errorf("stagnation ratio = %v, want near zero", f.StagnationRatio)
	}
	if f.Fit.Slope <= 0 {
		t.Errorf("growth slope = %v", f.Fit.Slope)
	}
	// All five exhaustion markers (IANA + 4 RIRs) present.
	if len(f.Exhaustions) != 5 {
		t.Errorf("exhaustion markers = %v", f.Exhaustions)
	}
	out := f.Render()
	for _, want := range []string{"Figure 1", "APNIC", "ARIN", "linear fit"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable1(t *testing.T) {
	ctx := sharedCtx(t)
	tab := Table1(ctx)
	d, w := tab.Daily, tab.Weekly
	if d.TotalIPs == 0 || w.TotalIPs == 0 {
		t.Fatal("empty datasets")
	}
	// The paper's Table 1 structure: totals exceed averages; the weekly
	// (year-long) dataset sees more unique IPs than the daily window.
	if d.AvgIPs >= d.TotalIPs || w.AvgIPs >= w.TotalIPs {
		t.Error("avg should be below total")
	}
	if w.TotalIPs < d.TotalIPs {
		t.Errorf("year total %d < window total %d", w.TotalIPs, d.TotalIPs)
	}
	if d.TotalASes == 0 || d.TotalBlocks == 0 {
		t.Error("missing block/AS counts")
	}
	if !strings.Contains(tab.Render(), "Table 1") {
		t.Error("render")
	}
}

func TestFigure2Visibility(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure2(ctx)
	ip := f.Levels["IPs"]
	if ip.Total() == 0 {
		t.Fatal("no visibility data")
	}
	// Paper: large CDN-only share at IP level (>40%); shrinks at
	// coarser granularities.
	if f.CDNOnlyIPFraction < 0.15 {
		t.Errorf("CDN-only IP fraction = %.2f, want substantial", f.CDNOnlyIPFraction)
	}
	as := f.Levels["ASes"]
	if as.FractionOnlyA() >= f.CDNOnlyIPFraction {
		t.Errorf("AS-level incongruity (%.2f) should be below IP level (%.2f)",
			as.FractionOnlyA(), f.CDNOnlyIPFraction)
	}
	// ICMP-only classification: servers+routers explain a substantial
	// share (paper: close to half).
	total, infra := 0, 0
	for c, n := range f.Classes {
		total += n
		if c != 0 { // not unknown
			infra += n
		}
	}
	if total == 0 {
		t.Fatal("no ICMP-only addresses")
	}
	if frac := float64(infra) / float64(total); frac < 0.2 {
		t.Errorf("infrastructure share of ICMP-only = %.2f, want substantial", frac)
	}
	if !strings.Contains(f.Render(), "Figure 2a") {
		t.Error("render")
	}
}

func TestFigure3Regions(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure3(ctx, 11)
	if len(f.ByRIR) != 5 {
		t.Fatalf("RIR rows = %d", len(f.ByRIR))
	}
	nonEmpty := 0
	for _, rv := range f.ByRIR {
		if rv.Both+rv.OnlyCDN+rv.Only > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Errorf("only %d RIRs populated", nonEmpty)
	}
	if len(f.Countries) == 0 {
		t.Fatal("no countries")
	}
	// Descending order by union size.
	for i := 1; i < len(f.Countries); i++ {
		a := f.Countries[i-1]
		b := f.Countries[i]
		if a.Both+a.OnlyCDN+a.Only < b.Both+b.OnlyCDN+b.Only {
			t.Error("countries not sorted")
		}
	}
	// Top countries should carry ITU ranks from the registry table.
	if f.Countries[0].BroadbandRank == 0 {
		t.Error("missing broadband rank for top country")
	}
	if !strings.Contains(f.Render(), "Figure 3a") {
		t.Error("render")
	}
}

func TestRecaptureExperiment(t *testing.T) {
	ctx := sharedCtx(t)
	r := RecaptureEstimate(ctx)
	if r.Err != nil {
		t.Fatalf("recapture failed: %v", r.Err)
	}
	if r.Est.Chapman < float64(r.ObservedUnion)*0.8 {
		t.Errorf("estimate %.0f far below observed union %d", r.Est.Chapman, r.ObservedUnion)
	}
	if r.Est.InvisibleEstimate() < 0 {
		t.Error("negative invisible estimate")
	}
	if !strings.Contains(r.Render(), "Lincoln-Petersen") {
		t.Error("render")
	}
}

func TestFigure4Churn(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure4(ctx)
	if len(f.DailyActive) != len(ctx.Obs.Daily) {
		t.Fatal("series length")
	}
	if f.MeanUp <= 0 {
		t.Fatal("no daily churn")
	}
	// The paper's key observation: churn does NOT decay to zero for
	// larger windows.
	var w7 float64
	for _, wc := range f.ByWindow {
		if wc.WindowDays == 7 {
			w7 = wc.Up.Median
		}
	}
	if w7 <= 0.5 {
		t.Errorf("7-day churn median = %.2f%%, should stay well above zero", w7)
	}
	// Long-term churn accumulates.
	if f.YearChurnFrac < 0.03 {
		t.Errorf("year churn fraction = %.3f, want accumulation", f.YearChurnFrac)
	}
	last := f.VersusFirst[len(f.VersusFirst)-1]
	mid := f.VersusFirst[len(f.VersusFirst)/2]
	if last.Appear < mid.Appear/2 {
		t.Error("appear counts should grow over the year")
	}
	if !strings.Contains(f.Render(), "Figure 4b") {
		t.Error("render")
	}
}

func TestFigure5Properties(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure5(ctx, 50)
	if len(f.ASMedians[0]) == 0 {
		t.Fatal("no per-AS churn")
	}
	// Event-size distributions sum to ~1.
	for i, d := range f.EventSizes {
		sum := 0.0
		for _, v := range d {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("window %d: distribution sums to %v", f.Windows[i], sum)
		}
	}
	// Paper: daily events are dominated by single addresses (>=70% at
	// /31-/32); month-to-month churn is bulkier.
	daily := f.EventSizes[0]
	if daily[4]+daily[3] < 0.5 {
		t.Errorf("daily events not small-dominated: %v", daily)
	}
	monthly := f.EventSizes[2]
	if monthly[0]+monthly[1]+monthly[2] <= daily[0]+daily[1]+daily[2] {
		t.Errorf("monthly churn not bulkier: daily %v monthly %v", daily, monthly)
	}
	// BGP correlation: events correlate more than steady actives, and
	// correlation grows with window size; absolute numbers stay small.
	for _, c := range f.BGP {
		if c.UpPct < c.SteadyPct {
			t.Errorf("window %d: up %.2f%% < steady %.2f%%", c.WindowDays, c.UpPct, c.SteadyPct)
		}
	}
	if f.BGP[2].UpPct < f.BGP[0].UpPct {
		t.Error("BGP correlation should grow with window size")
	}
	if f.BGP[2].UpPct > 30 {
		t.Errorf("BGP correlation %.1f%% too high; paper: tiny minority", f.BGP[2].UpPct)
	}
	if !strings.Contains(f.Render(), "Figure 5c") {
		t.Error("render")
	}
}

func TestTable2LongTerm(t *testing.T) {
	ctx := sharedCtx(t)
	tab := Table2(ctx)
	r := tab.Result
	if r.Appear == 0 || r.Disappear == 0 {
		t.Fatal("no long-term churn")
	}
	// Paper: more than half of long-term events affect entire /24s, and
	// BGP sees almost none of it.
	if r.AppearFull24Pct < 20 {
		t.Errorf("appear full-/24 share = %.1f%%, want bulky long-term churn", r.AppearFull24Pct)
	}
	if r.AppearBGP.NoChangePct < 60 {
		t.Errorf("appear BGP-no-change = %.1f%%, want dominant", r.AppearBGP.NoChangePct)
	}
	if r.DisappearBGP.NoChangePct < 60 {
		t.Errorf("disappear BGP-no-change = %.1f%%", r.DisappearBGP.NoChangePct)
	}
	if !strings.Contains(tab.Render(), "Table 2") {
		t.Error("render")
	}
}

func TestFigure6Patterns(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure6(ctx)
	if len(f.Examples) < 3 {
		t.Fatalf("only %d pattern examples", len(f.Examples))
	}
	byPolicy := map[synthnet.Policy]PatternExample{}
	for _, ex := range f.Examples {
		byPolicy[ex.Policy] = ex
		if ex.FD == 0 || ex.STU == 0 || len(ex.Days) == 0 {
			t.Errorf("degenerate example %+v", ex.Block)
		}
	}
	ss, okS := byPolicy[synthnet.StaticSparse]
	dd, okD := byPolicy[synthnet.DynamicDaily]
	if okS && okD {
		if ss.FD >= dd.FD {
			t.Errorf("static FD %d should be below dynamic-daily FD %d", ss.FD, dd.FD)
		}
		if ss.STU >= dd.STU {
			t.Errorf("static STU %.2f should be below dynamic-daily STU %.2f", ss.STU, dd.STU)
		}
	}
	if !strings.Contains(f.Render(), "Figure 6") {
		t.Error("render")
	}
}

func TestFigure7Change(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure7(ctx, 2)
	// At default change rates some mid-window switch exists at this scale.
	if len(f.Examples) == 0 {
		t.Skip("no mid-window restructurings in this world")
	}
	if !strings.Contains(f.Render(), "Figure 7") {
		t.Error("render")
	}
}

func TestFigure8Blocks(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure8(ctx)
	frac := f.Split.MajorFraction()
	if frac <= 0.005 || frac >= 0.5 {
		t.Errorf("major-change fraction = %.3f, paper ~0.10", frac)
	}
	if len(f.FDStatic) == 0 || len(f.FDDynamic) == 0 {
		t.Fatal("rDNS tagging found no blocks")
	}
	// Paper: dynamic pools cycle (high FD); static blocks sparse.
	if f.HighFDShareDynamic < 0.5 {
		t.Errorf("dynamic FD>250 share = %.2f, want majority", f.HighFDShareDynamic)
	}
	if f.LowFDShareStatic < 0.5 {
		t.Errorf("static FD<64 share = %.2f, want majority", f.LowFDShareStatic)
	}
	if f.STUHist.N() == 0 {
		t.Error("no cycling pools for Figure 8c")
	}
	if f.Potential.ActiveBlocks == 0 || f.Potential.FreeableAddrs == 0 {
		t.Errorf("potential-utilization estimate empty: %+v", f.Potential)
	}
	if !strings.Contains(f.Render(), "Figure 8b") {
		t.Error("render")
	}
}

func TestFigure9Traffic(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure9(ctx)
	if f.Bins.TotalIPs() == 0 {
		t.Fatal("no traffic bins")
	}
	// Paper: everyday-active addresses are a small IP share but a
	// disproportionate traffic share.
	if f.EverydayIPShare <= 0 || f.EverydayIPShare > 0.5 {
		t.Errorf("everyday IP share = %.3f", f.EverydayIPShare)
	}
	if f.EverydayTrafficShare <= f.EverydayIPShare {
		t.Errorf("traffic share %.3f should exceed IP share %.3f",
			f.EverydayTrafficShare, f.EverydayIPShare)
	}
	// Median daily hits grow with days active (compare first vs last bin).
	firstMed := f.Bins.DailyHitPercentiles[0][2]
	lastMed := f.Bins.DailyHitPercentiles[f.Bins.Days-1][2]
	if lastMed <= firstMed {
		t.Errorf("median daily hits: 1-day %.1f vs everyday %.1f, want growth", firstMed, lastMed)
	}
	// Consolidation trend.
	if f.TrendDelta <= 0 {
		t.Errorf("trend delta = %v, want consolidation", f.TrendDelta)
	}
	if !strings.Contains(f.Render(), "Figure 9c") {
		t.Error("render")
	}
}

func TestFigure10UA(t *testing.T) {
	ctx := sharedCtx(t)
	f := Figure10(ctx)
	if len(f.Points) == 0 {
		t.Fatal("no UA points")
	}
	if f.Regions.Bulk == 0 {
		t.Error("no bulk region")
	}
	if f.Regions.Gateways == 0 && f.Regions.Bots == 0 {
		t.Error("no extreme regions identified")
	}
	if !strings.Contains(f.Render(), "Figure 10") {
		t.Error("render")
	}
}

func TestFigure11And12(t *testing.T) {
	ctx := sharedCtx(t)
	f11 := Figure11(ctx)
	nActive := len(ctx.BlockFeatures())
	if f11.Demo.Total() != nActive {
		t.Errorf("demographics total %d != active blocks %d", f11.Demo.Total(), nActive)
	}
	// Strong division along the STU axis: both extremes populated.
	marg := f11.Demo.STUMarginal()
	if marg[0]+marg[1] == 0 || marg[8]+marg[9] == 0 {
		t.Errorf("STU marginal not bimodal: %v", marg)
	}
	f12 := Figure12(ctx)
	total := 0
	for _, p := range f12.Panels {
		total += p.Total
	}
	if total != nActive {
		t.Errorf("per-RIR totals %d != %d", total, nActive)
	}
	if !strings.Contains(f11.Render(), "Figure 11") || !strings.Contains(f12.Render(), "Figure 12") {
		t.Error("render")
	}
}

func TestRunAll(t *testing.T) {
	ctx := sharedCtx(t)
	var buf bytes.Buffer
	RunAll(&buf, ctx, 1)
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Table 1", "Figure 2a", "Figure 3a", "Figure 4a",
		"Figure 5a", "Table 2", "Figure 6", "Figure 7", "Figure 8a",
		"Figure 9a", "Figure 10", "Figure 11", "Figure 12",
		"Capture-recapture",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}
