package core

import (
	"ipscope/internal/ipv4"
	"ipscope/internal/stats"
)

// IPTraffic is one address's aggregate over the observation window.
type IPTraffic struct {
	Addr       ipv4.Addr
	DaysActive int
	Hits       float64 // total hits over the window
}

// MeanDailyHits returns hits per active day (days with ≥1 hit only,
// matching Figure 9a's definition).
func (t IPTraffic) MeanDailyHits() float64 {
	if t.DaysActive == 0 {
		return 0
	}
	return t.Hits / float64(t.DaysActive)
}

// TrafficBins groups addresses by the number of days they were active
// (1..Days), the structure behind Figures 9a and 9b.
type TrafficBins struct {
	Days int
	// Count[d-1] is the number of addresses active exactly d days.
	Count []int
	// HitsTotal[d-1] is those addresses' total traffic.
	HitsTotal []float64
	// DailyHitPercentiles[d-1] holds the [p5, p25, p50, p75, p95] of
	// per-address mean daily hits in the bin.
	DailyHitPercentiles [][5]float64
}

// BinByDaysActive builds TrafficBins from an address iterator. days is
// the window length (e.g. 112).
func BinByDaysActive(days int, forEach func(yield func(IPTraffic))) *TrafficBins {
	tb := &TrafficBins{
		Days:                days,
		Count:               make([]int, days),
		HitsTotal:           make([]float64, days),
		DailyHitPercentiles: make([][5]float64, days),
	}
	perBin := make([][]float64, days)
	forEach(func(t IPTraffic) {
		if t.DaysActive < 1 || t.DaysActive > days {
			return
		}
		i := t.DaysActive - 1
		tb.Count[i]++
		tb.HitsTotal[i] += t.Hits
		perBin[i] = append(perBin[i], t.MeanDailyHits())
	})
	for i, xs := range perBin {
		if len(xs) == 0 {
			continue
		}
		ps := stats.Percentiles(xs, 5, 25, 50, 75, 95)
		copy(tb.DailyHitPercentiles[i][:], ps)
	}
	return tb
}

// TotalIPs returns the number of binned addresses.
func (tb *TrafficBins) TotalIPs() int {
	n := 0
	for _, c := range tb.Count {
		n += c
	}
	return n
}

// TotalHits returns the total traffic across bins.
func (tb *TrafficBins) TotalHits() float64 {
	s := 0.0
	for _, h := range tb.HitsTotal {
		s += h
	}
	return s
}

// Cumulative returns, for each bin d (days active), the cumulative
// fraction of addresses active ≤ d days and the cumulative fraction of
// traffic they carry (Figure 9b's two curves).
func (tb *TrafficBins) Cumulative() (ipFrac, trafficFrac []float64) {
	ipFrac = make([]float64, tb.Days)
	trafficFrac = make([]float64, tb.Days)
	totIP := float64(tb.TotalIPs())
	totHits := tb.TotalHits()
	var ci float64
	var ch float64
	for d := 0; d < tb.Days; d++ {
		ci += float64(tb.Count[d])
		ch += tb.HitsTotal[d]
		if totIP > 0 {
			ipFrac[d] = ci / totIP
		}
		if totHits > 0 {
			trafficFrac[d] = ch / totHits
		}
	}
	return ipFrac, trafficFrac
}

// EverydayShare returns the fraction of addresses active every single
// day and the fraction of total traffic they account for (the paper:
// <10% of addresses, >40% of traffic).
func (tb *TrafficBins) EverydayShare() (ipShare, trafficShare float64) {
	totIP := float64(tb.TotalIPs())
	totHits := tb.TotalHits()
	if totIP == 0 || totHits == 0 {
		return 0, 0
	}
	last := tb.Days - 1
	return float64(tb.Count[last]) / totIP, tb.HitsTotal[last] / totHits
}

// UAPoint is one /24 block's User-Agent sampling outcome (Figure 10):
// how many request samples were taken and how many distinct UA strings
// they contained.
type UAPoint struct {
	Block   ipv4.Block
	Samples int
	Unique  float64
}

// UARegionCounts partitions UA points into the three regions the paper
// identifies in Figure 10.
type UARegionCounts struct {
	Bulk     int // ordinary client blocks (lower left)
	Bots     int // many samples, very few UAs (bottom right)
	Gateways int // many samples, very many UAs (top right)
}

// ClassifyUARegions splits points using sample/diversity thresholds.
// sampleHi separates "many requests" blocks; botMaxUnique bounds bot
// diversity; gwMinUnique is the gateway diversity floor.
func ClassifyUARegions(points []UAPoint, sampleHi int, botMaxUnique, gwMinUnique float64) UARegionCounts {
	var out UARegionCounts
	for _, p := range points {
		switch {
		case p.Samples >= sampleHi && p.Unique <= botMaxUnique:
			out.Bots++
		case p.Samples >= sampleHi && p.Unique >= gwMinUnique:
			out.Gateways++
		default:
			out.Bulk++
		}
	}
	return out
}
