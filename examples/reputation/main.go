// Reputation horizons: the paper's Section 8 security implication.
// IP-based reputation (blocklists, rate limits, trust scores) silently
// assumes the same party keeps the address; this example measures, per
// assignment practice, how long that assumption holds and what TTL a
// reputation system should attach to verdicts in each block.
package main

import (
	"fmt"
	"math"
	"sort"

	"ipscope/internal/core"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

func main() {
	world := synthnet.Generate(synthnet.Config{Seed: 17, NumASes: 120, MeanBlocksPerAS: 10})
	cfg := sim.DefaultConfig()
	cfg.Days = 112
	cfg.DailyStart, cfg.DailyLen = 0, 112
	res := sim.Run(world, cfg)

	// Group reputation horizons by the block's true assignment policy.
	type agg struct {
		horizons []float64
		persist  []float64
	}
	byPolicy := map[synthnet.Policy]*agg{}
	for _, b := range world.Blocks {
		if !b.Policy.IsClient() {
			continue
		}
		st := core.BlockStability(res.Daily, b.Block)
		if st.ActiveAddrs == 0 {
			continue
		}
		h := core.ReputationHorizon(res.Daily, b.Block, 0.5)
		a := byPolicy[b.Policy]
		if a == nil {
			a = &agg{}
			byPolicy[b.Policy] = a
		}
		a.horizons = append(a.horizons, h)
		a.persist = append(a.persist, st.Persistence)
	}

	type row struct {
		pol     synthnet.Policy
		medianH float64
		medianP float64
		n       int
	}
	var rows []row
	for pol, a := range byPolicy {
		rows = append(rows, row{pol, median(a.horizons), median(a.persist), len(a.horizons)})
	}
	// Every "no expiry" (+Inf) horizon ties: break ties on the policy,
	// not on the map order rows were built in.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].medianH != rows[j].medianH {
			return rows[i].medianH > rows[j].medianH
		}
		return rows[i].pol < rows[j].pol
	})

	fmt.Println("behavioural-staleness horizon by assignment practice")
	fmt.Println("(days until P(verdict still describes the address) < 50%,")
	fmt.Println(" from reassignment or from the holder going idle)")
	fmt.Printf("%-22s %6s %12s %10s\n", "policy", "blocks", "persistence", "TTL days")
	for _, r := range rows {
		ttl := fmt.Sprintf("%.1f", r.medianH)
		if math.IsInf(r.medianH, 1) {
			ttl = "no expiry"
		}
		fmt.Printf("%-22s %6d %12.3f %10s\n", r.pol, r.n, r.medianP, ttl)
	}
	fmt.Println("\nimplication (paper §8): always-on infrastructure (gateways, bots)")
	fmt.Println("carries reputation indefinitely, dynamic pools go stale within")
	fmt.Println("days — and for the reassignment component specifically, block")
	fmt.Println("classification (FD>250 = cycling pool) plus change detection")
	fmt.Println("(Figure 8a) should force expiry on renumbering or repurposing.")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
