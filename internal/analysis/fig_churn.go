package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ipscope/internal/core"
	"ipscope/internal/stats"
	"ipscope/internal/textplot"
)

// Fig4 is Figure 4: daily activity and up/down events (a), churn by
// aggregation window (b), and year-long appear/disappear versus the
// first week (c).
type Fig4 struct {
	DailyActive   []float64
	Ups, Downs    []int // up/down events per daily transition
	MeanUp        float64
	ByWindow      []core.WindowChurn
	VersusFirst   []core.AppearDisappear
	YearChurnFrac float64 // |appear|/|baseline| at the last week
}

// Figure4 computes the churn overview: the daily series (a) and the
// 1-day row of (b) from the index's counts, the wider windows (b, c)
// from the dataset.
func Figure4(ctx *Context) *Fig4 {
	p := ctx.Index.SummaryPartial()
	f := &Fig4{Ups: p.Ups, Downs: p.Downs, MeanUp: ctx.Index.Summary().Churn.MeanDailyUpEvents}
	for _, n := range p.DayLens {
		f.DailyActive = append(f.DailyActive, float64(n))
	}
	daily := make([]core.ChurnPoint, len(p.Ups))
	for i := range daily {
		daily[i] = core.NewChurnPoint(p.Ups[i], p.Downs[i], p.DayLens[i], p.DayLens[i+1])
	}
	f.ByWindow = []core.WindowChurn{core.SummarizeChurn(1, daily)}
	for _, w := range []int{2, 4, 7, 14, 28} {
		f.ByWindow = append(f.ByWindow, core.SummarizeChurn(w, core.ChurnSeries(ctx.Windows(w))))
	}
	f.VersusFirst = core.VersusBaseline(ctx.Obs.Weekly)
	if n := len(f.VersusFirst); n > 0 && ctx.Obs.Weekly[0].Len() > 0 {
		f.YearChurnFrac = float64(f.VersusFirst[n-1].Appear) / float64(ctx.Obs.Weekly[0].Len())
	}
	return f
}

// Render returns Figure 4 as text.
func (f *Fig4) Render() string {
	var b strings.Builder
	ups := make([]float64, len(f.Ups))
	downs := make([]float64, len(f.Downs))
	for i := range f.Ups {
		ups[i] = float64(f.Ups[i])
		downs[i] = float64(f.Downs[i])
	}
	b.WriteString(textplot.Chart("Figure 4a: daily active IPv4 addresses and up/down events",
		[]textplot.Series{
			{Name: "active", Ys: f.DailyActive},
			{Name: "up", Ys: ups},
			{Name: "down", Ys: downs},
		}, 96, 12))
	fmt.Fprintf(&b, "mean daily up events: %.0f (%.1f%% of mean active)\n\n",
		f.MeanUp, 100*f.MeanUp/stats.Mean(f.DailyActive))

	b.WriteString("Figure 4b: churn vs aggregation window [min/median/max % per transition]\n")
	b.WriteString("window | up%% min/med/max | down%% min/med/max\n")
	for _, wc := range f.ByWindow {
		fmt.Fprintf(&b, "%4dd  | %5.1f %5.1f %5.1f | %5.1f %5.1f %5.1f\n",
			wc.WindowDays, wc.Up.Min, wc.Up.Median, wc.Up.Max,
			wc.Down.Min, wc.Down.Median, wc.Down.Max)
	}
	b.WriteString("\n")

	appear := make([]float64, len(f.VersusFirst))
	disappear := make([]float64, len(f.VersusFirst))
	for i, ad := range f.VersusFirst {
		appear[i] = float64(ad.Appear)
		disappear[i] = -float64(ad.Disappear)
	}
	b.WriteString(textplot.Chart("Figure 4c: weekly appear(+)/disappear(-) vs first week",
		[]textplot.Series{{Name: "appear", Ys: appear}, {Name: "disappear", Ys: disappear}},
		96, 10))
	fmt.Fprintf(&b, "year-end appear fraction of baseline: %.1f%% (paper: ~25%%)\n", 100*f.YearChurnFrac)
	return b.String()
}

// Fig5 is Figure 5: per-AS churn CDF (a), event-size distribution (b),
// BGP correlation (c) — each for 1, 7 and 28-day windows.
type Fig5 struct {
	Windows []int
	// ASMedians[i] is the sorted per-AS median up-event percentage for
	// window Windows[i].
	ASMedians [][]float64
	// EventSizes[i] is the Figure 5b histogram for window Windows[i].
	EventSizes [][5]float64
	// BGP[i] is the Figure 5c correlation for window Windows[i].
	BGP []core.BGPCorrelation
}

// Figure5 computes the churn-property analyses: one walk over each
// window series' transitions feeds all three panels.
func Figure5(ctx *Context, minActivePerAS int) *Fig5 {
	f := &Fig5{Windows: []int{1, 7, 28}}
	for _, w := range f.Windows {
		s := core.WalkTransitions(ctx.Windows(w), w, ctx.ASOf, ctx.Obs.Routing, ctx.Obs.Meta.Run.DailyStart)
		per := s.PerASChurn(minActivePerAS)
		meds := make([]float64, 0, len(per))
		for _, m := range per {
			meds = append(meds, m)
		}
		sort.Float64s(meds)
		f.ASMedians = append(f.ASMedians, meds)
		f.EventSizes = append(f.EventSizes, s.EventSizes())
		f.BGP = append(f.BGP, s.CorrelateBGP())
	}
	return f
}

// Render returns Figure 5 as text.
func (f *Fig5) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5a: per-AS median % of IPs with up event (CDF quartiles)\n")
	b.WriteString("window | N ASes | p10 | p25 | p50 | p75 | p90\n")
	for i, w := range f.Windows {
		meds := f.ASMedians[i]
		if len(meds) == 0 {
			fmt.Fprintf(&b, "%4dd  | %6d |\n", w, 0)
			continue
		}
		q := stats.Percentiles(meds, 10, 25, 50, 75, 90)
		fmt.Fprintf(&b, "%4dd  | %6d | %4.1f | %4.1f | %4.1f | %4.1f | %4.1f\n",
			w, len(meds), q[0], q[1], q[2], q[3], q[4])
	}
	b.WriteString("\nFigure 5b: up-event size distribution by smallest covering mask\n")
	b.WriteString("window |  >=/16 |   /20 |   /24 |   /28 |   /32\n")
	for i, w := range f.Windows {
		d := f.EventSizes[i]
		fmt.Fprintf(&b, "%4dd  | %5.1f%% | %4.1f%% | %4.1f%% | %4.1f%% | %4.1f%%\n",
			w, 100*d[0], 100*d[1], 100*d[2], 100*d[3], 100*d[4])
	}
	b.WriteString("\nFigure 5c: % of events coinciding with a BGP change\n")
	b.WriteString("window | up events | down events | steady active\n")
	for i, w := range f.Windows {
		c := f.BGP[i]
		fmt.Fprintf(&b, "%4dd  | %8.2f%% | %10.2f%% | %12.2f%%\n", w, c.UpPct, c.DownPct, c.SteadyPct)
	}
	return b.String()
}

// Tab2 is Table 2: long-term appear/disappear with bulk and BGP
// classification.
type Tab2 struct {
	Result core.LongTermChurn
	// TopOverlap is how many of the top-10 appear-contributing ASes are
	// also among the top-10 disappear contributors (paper: 7 of 10).
	TopOverlap int
}

// Table2 compares the first two months of the year against the last two.
func Table2(ctx *Context) *Tab2 {
	weekly := ctx.Obs.Weekly
	n := len(weekly)
	if n < 4 {
		return &Tab2{}
	}
	earlyWeeks := n / 6 // ~2 months of 52 weeks
	if earlyWeeks < 1 {
		earlyWeeks = 1
	}
	early := core.WindowUnion(weekly, 0, earlyWeeks)
	late := core.WindowUnion(weekly, n-earlyWeeks, n)
	days := ctx.Obs.Meta.Run.Days
	t := &Tab2{Result: core.CompareLongTerm(early, late, ctx.Obs.Routing, earlyWeeks*7, days-1)}

	appear := late.Diff(early)
	disappear := early.Diff(late)
	topA := core.TopContributors(appear, ctx.ASOf, 10)
	topD := core.TopContributors(disappear, ctx.ASOf, 10)
	inA := map[interface{}]bool{}
	for _, a := range topA {
		inA[a.AS] = true
	}
	for _, d := range topD {
		if inA[d.AS] {
			t.TopOverlap++
		}
	}
	return t
}

// Render returns Table 2 as text.
func (t *Tab2) Render() string {
	r := t.Result
	var b strings.Builder
	b.WriteString("Table 2: long-term appear/disappear (first vs last two months)\n")
	b.WriteString("                          |   appear | disappear\n")
	fmt.Fprintf(&b, "total                     | %8d | %9d\n", r.Appear, r.Disappear)
	fmt.Fprintf(&b, "entire /24 affected       | %7.1f%% | %8.1f%%\n", r.AppearFull24Pct, r.DisappearFull24Pct)
	fmt.Fprintf(&b, "BGP no change             | %7.1f%% | %8.1f%%\n", r.AppearBGP.NoChangePct, r.DisappearBGP.NoChangePct)
	fmt.Fprintf(&b, "BGP origin change         | %7.1f%% | %8.1f%%\n", r.AppearBGP.OriginChangePct, r.DisappearBGP.OriginChangePct)
	fmt.Fprintf(&b, "BGP announce/withdraw     | %7.1f%% | %8.1f%%\n", r.AppearBGP.AnnounceWithdrawPct, r.DisappearBGP.AnnounceWithdrawPct)
	fmt.Fprintf(&b, "top-10 AS overlap (appear∩disappear): %d of 10\n", t.TopOverlap)
	return b.String()
}
