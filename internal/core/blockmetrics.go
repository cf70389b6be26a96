package core

import (
	"ipscope/internal/ipv4"
)

// FillingDegree (FD) is the number of distinct active addresses within
// a /24 block over the whole observation window (Section 5.1); its
// range is 0..256 (the paper reports 1..256 for active blocks).
func FillingDegree(daily []*ipv4.Set, blk ipv4.Block) int {
	var u ipv4.Bitmap256
	for _, s := range daily {
		if s == nil {
			continue
		}
		if bm := s.BlockBitmap(blk); bm != nil {
			u.UnionWith(bm)
		}
	}
	return u.Count()
}

// STU is the spatio-temporal utilization of a block (Section 5.1):
// total active address-days divided by the maximum possible
// (days × 256). Range (0, 1] for active blocks.
func STU(daily []*ipv4.Set, blk ipv4.Block) float64 {
	if len(daily) == 0 {
		return 0
	}
	active := 0
	for _, s := range daily {
		if s == nil {
			continue
		}
		active += s.BlockCount(blk)
	}
	return float64(active) / float64(len(daily)*256)
}

// BlockDailyBitmaps extracts a block's activity matrix: one Bitmap256
// per day (the raw material of Figures 6 and 7).
func BlockDailyBitmaps(daily []*ipv4.Set, blk ipv4.Block) []ipv4.Bitmap256 {
	out := make([]ipv4.Bitmap256, len(daily))
	for i, s := range daily {
		if s == nil {
			continue
		}
		if bm := s.BlockBitmap(blk); bm != nil {
			out[i] = *bm
		}
	}
	return out
}

// MonthlySTU returns the per-month STU series of a block, where a month
// is daysPerMonth consecutive days (the paper uses its four ~28-day
// months). A trailing partial month is dropped.
func MonthlySTU(daily []*ipv4.Set, blk ipv4.Block, daysPerMonth int) []float64 {
	if daysPerMonth <= 0 {
		return nil
	}
	n := len(daily) / daysPerMonth
	out := make([]float64, 0, n)
	for m := 0; m < n; m++ {
		out = append(out, STU(daily[m*daysPerMonth:(m+1)*daysPerMonth], blk))
	}
	return out
}

// MaxMonthlySTUChange is the Figure 8a metric: the maximum
// month-to-month change in STU (signed; the value with the largest
// magnitude is returned, preserving its sign).
func MaxMonthlySTUChange(daily []*ipv4.Set, blk ipv4.Block, daysPerMonth int) float64 {
	series := MonthlySTU(daily, blk, daysPerMonth)
	best := 0.0
	for i := 1; i < len(series); i++ {
		d := series[i] - series[i-1]
		if abs(d) > abs(best) {
			best = d
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ChangeSplit partitions active blocks into those with at most minor
// assignment change and those with major change, using the paper's
// |ΔSTU| > threshold criterion (Section 5.2; threshold 0.25 keeps 90%
// of blocks as stable in the paper).
type ChangeSplit struct {
	Threshold     float64
	Stable, Major []ipv4.Block
	// Deltas holds each active block's max monthly STU change, aligned
	// with Blocks() = append(Stable, Major...) order before the split;
	// kept for CDF rendering.
	Deltas map[ipv4.Block]float64
}

// DetectChange computes ChangeSplit over all active blocks.
func DetectChange(daily []*ipv4.Set, daysPerMonth int, threshold float64) ChangeSplit {
	out := ChangeSplit{
		Threshold: threshold,
		Deltas:    make(map[ipv4.Block]float64),
	}
	for _, blk := range ActiveBlocks(daily) {
		d := MaxMonthlySTUChange(daily, blk, daysPerMonth)
		out.Deltas[blk] = d
		if abs(d) > threshold {
			out.Major = append(out.Major, blk)
		} else {
			out.Stable = append(out.Stable, blk)
		}
	}
	return out
}

// MajorFraction returns the share of active blocks classified as major
// change.
func (c ChangeSplit) MajorFraction() float64 {
	tot := len(c.Stable) + len(c.Major)
	if tot == 0 {
		return 0
	}
	return float64(len(c.Major)) / float64(tot)
}

// PotentialUtilization summarizes Section 5.4's estimate: how much
// address space could be freed within already-active blocks.
type PotentialUtilization struct {
	ActiveBlocks int
	// LowFDBlocks counts active blocks with FD < 64 (likely static,
	// sparsely used).
	LowFDBlocks int
	// DynamicHighFD counts blocks with FD > 250 (cycling pools).
	DynamicHighFD int
	// DynamicLowSTU counts FD>250 blocks whose STU < 0.6: dynamic pools
	// that could be shrunk.
	DynamicLowSTU int
	// FreeableAddrs estimates addresses freeable by shrinking low-STU
	// dynamic pools to their mean daily occupancy.
	FreeableAddrs int
}

// EstimatePotential computes PotentialUtilization over active blocks.
func EstimatePotential(daily []*ipv4.Set, blocks []ipv4.Block) PotentialUtilization {
	out := PotentialUtilization{ActiveBlocks: len(blocks)}
	for _, blk := range blocks {
		out.Add(FillingDegree(daily, blk), STU(daily, blk))
	}
	return out
}

// Add counts one active block with filling degree fd and
// spatio-temporal utilization stu; the caller counts ActiveBlocks.
func (p *PotentialUtilization) Add(fd int, stu float64) {
	if fd < 64 {
		p.LowFDBlocks++
	}
	if fd > 250 {
		p.DynamicHighFD++
		if stu < 0.6 {
			p.DynamicLowSTU++
			// Mean daily occupancy is stu*256; shrinking the pool
			// to 1.25× that frees the rest of the /24.
			occupancy := stu * 256
			free := 256 - int(occupancy*1.25)
			if free > 0 {
				p.FreeableAddrs += free
			}
		}
	}
}
