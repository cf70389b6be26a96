package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ipscope/internal/core"
	"ipscope/internal/registry"
	"ipscope/internal/sim"
	"ipscope/internal/stats"
	"ipscope/internal/textplot"
)

// Fig1 is Figure 1: monthly active IPv4 addresses 2008–2016 with a
// linear regression fitted on the pre-2014 months and RIR exhaustion
// markers.
type Fig1 struct {
	Months []sim.MonthPoint
	// Fit is the regression over months before Knee.
	Fit  stats.LinearFit
	Knee int // index of 2014-01
	// Exhaustions maps registry name to the month index of exhaustion.
	Exhaustions map[string]int
	// StagnationRatio compares post-knee to pre-knee monthly growth;
	// the paper's stagnation means this is near zero.
	StagnationRatio float64
}

// Figure1 builds the Fig1 artifact.
func Figure1(seed uint64) *Fig1 {
	months := sim.MacroGrowth(seed)
	knee := sim.MonthIndex(months, time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC))
	var xs, ys []float64
	for i := 0; i < knee; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, months[i].ActiveIPs)
	}
	f := &Fig1{
		Months:      months,
		Fit:         stats.FitLine(xs, ys),
		Knee:        knee,
		Exhaustions: make(map[string]int),
	}
	for _, r := range registry.AllRIRs {
		if d, ok := r.ExhaustionDate(); ok {
			f.Exhaustions[r.String()] = sim.MonthIndex(months, d)
		}
	}
	f.Exhaustions["IANA"] = sim.MonthIndex(months, registry.IANAExhaustion)
	pre := (months[knee].ActiveIPs - months[0].ActiveIPs) / float64(knee)
	post := (months[len(months)-1].ActiveIPs - months[knee].ActiveIPs) / float64(len(months)-knee)
	if pre != 0 {
		f.StagnationRatio = post / pre
	}
	return f
}

// Render returns the figure as text.
func (f *Fig1) Render() string {
	var b strings.Builder
	obs := make([]float64, len(f.Months))
	fit := make([]float64, len(f.Months))
	for i := range f.Months {
		obs[i] = f.Months[i].ActiveIPs
		fit[i] = f.Fit.At(float64(i))
	}
	b.WriteString(textplot.Chart(
		"Figure 1: unique active IPv4 addresses per month (2008-2016)",
		[]textplot.Series{{Name: "active IPv4", Ys: obs}, {Name: "linear fit (pre-2014)", Ys: fit}},
		96, 14))
	fmt.Fprintf(&b, "fit: slope %.3gM addrs/month, R2(pre-2014) %.4f; post/pre growth ratio %.3f\n",
		f.Fit.Slope/1e6, f.Fit.R2, f.StagnationRatio)
	// Sorted registry order keeps the rendered report byte-identical
	// run to run (map iteration order is randomized).
	names := make([]string, 0, len(f.Exhaustions))
	for name := range f.Exhaustions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if idx := f.Exhaustions[name]; idx < len(f.Months) {
			fmt.Fprintf(&b, "  %s exhaustion: %s\n", name, f.Months[idx].Date.Format("2006-01"))
		}
	}
	return b.String()
}

// Tab1 is Table 1: dataset totals and per-snapshot averages.
type Tab1 struct {
	Daily, Weekly core.DatasetSummary
}

// Table1 reads the daily and weekly dataset summaries off the index.
func Table1(ctx *Context) *Tab1 {
	s := ctx.Index.Summary()
	return &Tab1{Daily: s.Daily, Weekly: s.Weekly}
}

// Render returns Table 1 as text.
func (t *Tab1) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: datasets, totals and averages per snapshot\n")
	b.WriteString("dataset  | IPs total | IPs avg | /24 total | /24 avg | AS total | AS avg\n")
	row := func(label string, s core.DatasetSummary) {
		fmt.Fprintf(&b, "%-8s | %9d | %7d | %9d | %7d | %8d | %6d\n",
			label, s.TotalIPs, s.AvgIPs, s.TotalBlocks, s.AvgBlocks, s.TotalASes, s.AvgASes)
	}
	row(fmt.Sprintf("Daily:%d", t.Daily.Snapshots), t.Daily)
	row(fmt.Sprintf("Weekly:%d", t.Weekly.Snapshots), t.Weekly)
	return b.String()
}

// Fig2 is Figure 2: visibility of the address space from the CDN vs
// ICMP scanning, at four aggregation granularities (a), and the
// classification of ICMP-only addresses (b).
type Fig2 struct {
	// Levels holds visibility at "ASes", "prefixes", "/24s", "IPs".
	Levels map[string]core.Visibility
	// Classification of ICMP-only addresses at IP granularity.
	Classes map[core.ICMPOnlyClass]int
	// CDNOnlyIPFraction is the paper's headline ">40% invisible to ICMP".
	CDNOnlyIPFraction float64
}

// Figure2 computes Fig2 over the campaign month.
func Figure2(ctx *Context) *Fig2 {
	cdn := ctx.CDNMonth()
	icmp := ctx.Campaign.ICMP
	f := &Fig2{Levels: make(map[string]core.Visibility)}
	f.Levels["IPs"] = core.CompareIPs(cdn, icmp)
	f.Levels["/24s"] = core.CompareBlocks(cdn, icmp)
	f.Levels["prefixes"] = core.CompareGrouped(cdn, icmp, core.PrefixGrouper(ctx.World.BaseRouting))
	f.Levels["ASes"] = core.CompareGrouped(cdn, icmp, core.ASGrouper(ctx.World.BaseRouting))
	f.CDNOnlyIPFraction = f.Levels["IPs"].FractionOnlyA()

	icmpOnly := icmp.Diff(cdn)
	f.Classes = core.ClassifyICMPOnly(icmpOnly, ctx.Campaign.Servers, ctx.Campaign.Routers)
	return f
}

// Render returns Figure 2 as text.
func (f *Fig2) Render() string {
	var b strings.Builder
	labels := []string{"ASes", "prefixes", "/24s", "IPs"}
	var parts [][]float64
	var rowLabels []string
	for _, l := range labels {
		v := f.Levels[l]
		tot := float64(v.Total())
		if tot == 0 {
			tot = 1
		}
		parts = append(parts, []float64{
			float64(v.OnlyA) / tot, float64(v.Both) / tot, float64(v.OnlyB) / tot,
		})
		rowLabels = append(rowLabels, fmt.Sprintf("%s (N=%d)", l, v.Total()))
	}
	b.WriteString(textplot.StackedBar(
		"Figure 2a: visibility CDN vs ICMP (C=CDN only, B=both, I=ICMP only)",
		rowLabels, parts, []byte{'C', 'B', 'I'}, 60))
	fmt.Fprintf(&b, "CDN-only fraction at IP level: %.1f%% (paper: >40%%)\n",
		100*f.CDNOnlyIPFraction)
	b.WriteString("Figure 2b: classification of ICMP-only addresses\n")
	total := 0
	for _, n := range f.Classes {
		total += n
	}
	for _, c := range []core.ICMPOnlyClass{core.ClassServer, core.ClassServerRouter, core.ClassRouter, core.ClassUnknown} {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(f.Classes[c]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-14s %6d (%.1f%%)\n", c, f.Classes[c], pct)
	}
	return b.String()
}

// Fig3 is Figure 3: IP address activity by geographic region.
type Fig3 struct {
	ByRIR     []core.RegionVisibility
	Countries []CountryRow
}

// CountryRow is one bar of Figure 3b with its ITU ranks.
type CountryRow struct {
	core.RegionVisibility
	BroadbandRank, CellularRank int
}

// Figure3 computes the per-RIR and per-country visibility breakdown.
func Figure3(ctx *Context, topK int) *Fig3 {
	cdn := ctx.CDNMonth()
	icmp := ctx.Campaign.ICMP
	f := &Fig3{ByRIR: core.GroupByRIR(cdn, icmp, ctx.World.Registry)}
	for _, rv := range core.GroupByCountry(cdn, icmp, ctx.World.Registry, topK) {
		row := CountryRow{RegionVisibility: rv}
		if ci, ok := registry.CountryByCode(registry.Country(rv.Label)); ok {
			row.BroadbandRank = ci.BroadbandRank
			row.CellularRank = ci.CellularRank
		}
		f.Countries = append(f.Countries, row)
	}
	return f
}

// Render returns Figure 3 as text.
func (f *Fig3) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3a: visibility by RIR (addresses)\n")
	b.WriteString("RIR      | CDN&ICMP | only CDN | only ICMP\n")
	for _, rv := range f.ByRIR {
		fmt.Fprintf(&b, "%-8s | %8d | %8d | %9d\n", rv.Label, rv.Both, rv.OnlyCDN, rv.Only)
	}
	b.WriteString("Figure 3b: top countries (bb = broadband rank, cell = cellular rank)\n")
	b.WriteString("CC | CDN&ICMP | only CDN | only ICMP | bb | cell\n")
	for _, c := range f.Countries {
		fmt.Fprintf(&b, "%-2s | %8d | %8d | %9d | %2d | %4d\n",
			c.Label, c.Both, c.OnlyCDN, c.Only, c.BroadbandRank, c.CellularRank)
	}
	return b.String()
}

// RecaptureResult is the capture–recapture estimate over the two
// observation channels (Section 8's statistical-estimation context).
type RecaptureResult struct {
	Est core.RecaptureEstimate
	Err error
	// ObservedUnion is N1 + N2 − Both: the addresses either channel saw
	// in the campaign month.
	ObservedUnion int
}

// RecaptureEstimate runs capture–recapture on CDN month vs ICMP union,
// from the set sizes and overlap the index counted.
func RecaptureEstimate(ctx *Context) *RecaptureResult {
	p := ctx.Index.SummaryPartial()
	est, err := core.Recapture(p.CDNMonth, p.ICMPUnion, p.CDNBoth)
	return &RecaptureResult{
		Est:           est,
		Err:           err,
		ObservedUnion: p.CDNMonth + p.ICMPUnion - p.CDNBoth,
	}
}

// Render returns the estimate as text.
func (r *RecaptureResult) Render() string {
	var b strings.Builder
	b.WriteString("Capture-recapture estimate of total active addresses (CDN vs ICMP)\n")
	if r.Err != nil {
		fmt.Fprintf(&b, "  error: %v\n", r.Err)
		return b.String()
	}
	e := r.Est
	fmt.Fprintf(&b, "  n1(CDN)=%d n2(ICMP)=%d overlap=%d\n", e.N1, e.N2, e.Both)
	fmt.Fprintf(&b, "  Lincoln-Petersen: %.0f   Chapman: %.0f ± %.0f (95%% CI %.0f..%.0f)\n",
		e.LincolnPetersen, e.Chapman, 1.96*e.SE, e.CI95Lo, e.CI95Hi)
	fmt.Fprintf(&b, "  observed union: %d   estimated invisible: %.0f\n",
		r.ObservedUnion, e.InvisibleEstimate())
	return b.String()
}
