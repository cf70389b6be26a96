// Churn audit: the network-operator / registry view of Section 4.
// Simulates a year of activity, then reports address churn at several
// aggregation windows, per-AS churn medians, up-event sizes and how
// much of the churn is visible in BGP — the analysis an RIR or ISP
// would run to understand utilization dynamics in its region.
package main

import (
	"fmt"
	"sort"

	"ipscope/internal/core"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

func main() {
	world := synthnet.Generate(synthnet.Config{Seed: 21, NumASes: 120, MeanBlocksPerAS: 10})
	cfg := sim.DefaultConfig()
	cfg.Days = 112
	cfg.DailyStart, cfg.DailyLen = 0, 112
	res := sim.Run(world, cfg)

	// 1. Churn by window size: does it decay with aggregation?
	fmt.Println("== churn vs aggregation window ==")
	for _, wc := range core.ChurnByWindow(res.Daily, []int{1, 7, 14, 28}) {
		fmt.Printf("%3d-day windows: up %% median %.1f (min %.1f, max %.1f)\n",
			wc.WindowDays, wc.Up.Median, wc.Up.Min, wc.Up.Max)
	}

	// 2. Which ASes churn the most? (weekly windows)
	weekly := core.WalkTransitions(core.Windows(res.Daily, 7), 7, world.ASOf, res.Routing, cfg.DailyStart)
	per := weekly.PerASChurn(500)
	type asChurn struct {
		as  string
		pct float64
	}
	var ranked []asChurn
	for as, pct := range per {
		ranked = append(ranked, asChurn{as.String(), pct})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].pct > ranked[j].pct })
	fmt.Printf("\n== top churning ASes (of %d with ≥500 active IPs) ==\n", len(ranked))
	for i, r := range ranked {
		if i == 5 {
			break
		}
		fmt.Printf("%-8s median weekly up-events: %.1f%%\n", r.as, r.pct)
	}

	// 3. Event sizes: individual addresses or whole ranges?
	fmt.Println("\n== up-event sizes (week-to-week) ==")
	dist := weekly.Steps[0].EventSizes()
	for i, frac := range dist {
		fmt.Printf("%-6s %5.1f%%\n", core.EventSizeBinLabels[i], 100*frac)
	}

	// 4. How much of the churn does BGP reveal?
	fmt.Println("\n== BGP visibility of churn ==")
	monthly := core.WalkTransitions(core.Windows(res.Daily, 28), 28, world.ASOf, res.Routing, cfg.DailyStart)
	for _, s := range []core.TransitionSeries{weekly, monthly} {
		c := s.CorrelateBGP()
		fmt.Printf("%3d-day windows: up %.2f%%, down %.2f%%, steady %.2f%% coincide with BGP change\n",
			c.WindowDays, c.UpPct, c.DownPct, c.SteadyPct)
	}
	fmt.Println("\nconclusion: churn is ubiquitous at every window size and almost")
	fmt.Println("entirely invisible in the global routing table (paper §4.2).")
}
