package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/query"
	"ipscope/internal/rdns"
	"ipscope/internal/stats"
	"ipscope/internal/synthnet"
	"ipscope/internal/textplot"
)

// PatternExample is one rendered /24 activity matrix with its metrics
// (the panels of Figures 6 and 7).
type PatternExample struct {
	Block  ipv4.Block
	Policy synthnet.Policy
	FD     int
	STU    float64
	Days   []ipv4.Bitmap256
}

// Fig6 is Figure 6: one exemplar block per in-situ assignment practice.
type Fig6 struct {
	Examples []PatternExample
}

// Figure6 picks a representative stable block for each of the paper's
// four pattern classes and extracts its activity matrix.
func Figure6(ctx *Context) *Fig6 {
	restructured := restructuredBlocks(ctx)
	want := []synthnet.Policy{
		synthnet.StaticSparse, synthnet.DynamicRoundRobin,
		synthnet.DynamicLongLease, synthnet.DynamicDaily,
	}
	f := &Fig6{}
	for _, pol := range want {
		best := pickExample(ctx, pol, restructured)
		if best != nil {
			f.Examples = append(f.Examples, *best)
		}
	}
	return f
}

func restructuredBlocks(ctx *Context) map[ipv4.Block]bool {
	out := map[ipv4.Block]bool{}
	for _, re := range ctx.Obs.Restructures {
		re.Prefix.Blocks(func(b ipv4.Block) { out[b] = true })
	}
	return out
}

// pickExample selects the stable block of the given policy with median
// STU among candidates, a representative rather than extreme pick.
func pickExample(ctx *Context, pol synthnet.Policy, skip map[ipv4.Block]bool) *PatternExample {
	type cand struct {
		blk ipv4.Block
		v   query.BlockView
	}
	var cands []cand
	for _, b := range ctx.World.Blocks {
		if b.Policy != pol || skip[b.Block] {
			continue
		}
		v, ok := ctx.Index.Block(b.Block)
		if !ok {
			continue
		}
		cands = append(cands, cand{b.Block, v})
		if len(cands) >= 64 {
			break
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].v.STU < cands[j].v.STU })
	c := cands[len(cands)/2]
	return &PatternExample{
		Block:  c.blk,
		Policy: pol,
		FD:     c.v.FD,
		STU:    c.v.STU,
		Days:   core.BlockDailyBitmaps(ctx.Obs.Daily, c.blk),
	}
}

// Render returns Figure 6 as text.
func (f *Fig6) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: regular activity patterns (x=time, y=address space)\n")
	for _, ex := range f.Examples {
		title := fmt.Sprintf("%v  [%s]  FD=%d STU=%.2f", ex.Block, ex.Policy, ex.FD, ex.STU)
		b.WriteString(textplot.ActivityMatrix(title, ex.Days, 16))
		b.WriteString("\n")
	}
	return b.String()
}

// Fig7 is Figure 7: blocks whose assignment practice changed mid-window.
type Fig7 struct {
	Examples []PatternExample
}

// Figure7 renders blocks with a policy switch inside the daily window.
func Figure7(ctx *Context, maxExamples int) *Fig7 {
	f := &Fig7{}
	cfg := ctx.Obs.Meta.Run
	for _, re := range ctx.Obs.Restructures {
		if len(f.Examples) >= maxExamples {
			break
		}
		// Want a visible change: well inside the daily window.
		margin := cfg.DailyLen / 4
		if re.Day < cfg.DailyStart+margin || re.Day > cfg.DailyStart+cfg.DailyLen-margin {
			continue
		}
		blk := re.Prefix.FirstBlock()
		v, _ := ctx.Index.Block(blk)
		if v.STU < 0.01 {
			continue
		}
		info, _ := ctx.World.BlockInfo(blk)
		pol := synthnet.Unused
		if info != nil {
			pol = info.Policy
		}
		f.Examples = append(f.Examples, PatternExample{
			Block:  blk,
			Policy: pol,
			FD:     v.FD,
			STU:    v.STU,
			Days:   core.BlockDailyBitmaps(ctx.Obs.Daily, blk),
		})
	}
	return f
}

// Render returns Figure 7 as text.
func (f *Fig7) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: modified assignment practice (mid-window restructurings)\n")
	for _, ex := range f.Examples {
		title := fmt.Sprintf("%v  [was %s]  FD=%d STU=%.2f", ex.Block, ex.Policy, ex.FD, ex.STU)
		b.WriteString(textplot.ActivityMatrix(title, ex.Days, 16))
		b.WriteString("\n")
	}
	return b.String()
}

// Fig8 is Figure 8: change detection (a), filling-degree CDFs by rDNS
// class (b), and the STU histogram of cycling pools (c).
type Fig8 struct {
	Split core.ChangeSplit
	// FD CDF sample points per class.
	FDStatic, FDDynamic, FDAll []float64
	// HighFDShareDynamic is the share of dynamic-tagged blocks with
	// FD > 250 (paper: >80%).
	HighFDShareDynamic float64
	// LowFDShareStatic is the share of static-tagged blocks with FD < 64
	// (paper: ~75%).
	LowFDShareStatic float64
	// STUHist is the histogram of STU (as % of max) for blocks with
	// FD > 250, 10 bins of 10%.
	STUHist *stats.Histogram
	// FullSTUBlocks counts blocks at 100% spatio-temporal utilization.
	FullSTUBlocks int
	Potential     core.PotentialUtilization
}

// Figure8 computes the spatio-temporal aggregate views.
func Figure8(ctx *Context) *Fig8 {
	daily := ctx.Obs.Daily
	daysPerMonth := 28
	if len(daily) < 56 {
		daysPerMonth = len(daily) / 2
	}
	f := &Fig8{Split: core.DetectChange(daily, daysPerMonth, 0.25)}

	// Figure 8b/8c operate on stable blocks, per Section 5.3.
	blocks := f.Split.Stable
	static, dynamic := rdns.Static.String(), rdns.Dynamic.String()
	f.STUHist = stats.NewHistogram(0, 100, 10)
	f.Potential.ActiveBlocks = len(blocks)
	for _, blk := range blocks {
		v, _ := ctx.Index.Block(blk)
		f.Potential.Add(v.FD, v.STU)
		fd := float64(v.FD)
		f.FDAll = append(f.FDAll, fd)
		switch v.RDNS {
		case static:
			f.FDStatic = append(f.FDStatic, fd)
			if fd < 64 {
				f.LowFDShareStatic++
			}
		case dynamic:
			f.FDDynamic = append(f.FDDynamic, fd)
			if fd > 250 {
				f.HighFDShareDynamic++
			}
		}
		if fd > 250 {
			f.STUHist.Add(v.STU * 100)
			if v.STU >= 0.995 {
				f.FullSTUBlocks++
			}
		}
	}
	if n := len(f.FDStatic); n > 0 {
		f.LowFDShareStatic /= float64(n)
	}
	if n := len(f.FDDynamic); n > 0 {
		f.HighFDShareDynamic /= float64(n)
	}
	return f
}

// Render returns Figure 8 as text.
func (f *Fig8) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8a: max monthly ΔSTU change detection (threshold ±%.2f)\n", f.Split.Threshold)
	fmt.Fprintf(&b, "  stable blocks: %d (%.1f%%)   major change: %d (%.1f%%)  [paper: 90.2%% / 9.8%%]\n",
		len(f.Split.Stable), 100*(1-f.Split.MajorFraction()),
		len(f.Split.Major), 100*f.Split.MajorFraction())

	b.WriteString("Figure 8b: filling degree by rDNS class (quartiles)\n")
	b.WriteString("class   |     N |  p25 |  p50 |  p75\n")
	row := func(name string, xs []float64) {
		if len(xs) == 0 {
			fmt.Fprintf(&b, "%-7s | %5d |\n", name, 0)
			return
		}
		q := stats.Percentiles(xs, 25, 50, 75)
		fmt.Fprintf(&b, "%-7s | %5d | %4.0f | %4.0f | %4.0f\n", name, len(xs), q[0], q[1], q[2])
	}
	row("static", f.FDStatic)
	row("dynamic", f.FDDynamic)
	row("all", f.FDAll)
	fmt.Fprintf(&b, "  dynamic blocks with FD>250: %.0f%% (paper: >80%%); static with FD<64: %.0f%% (paper: ~75%%)\n",
		100*f.HighFDShareDynamic, 100*f.LowFDShareStatic)

	b.WriteString("Figure 8c: STU of blocks with FD>250 (% of max utilization)\n")
	labels := make([]string, len(f.STUHist.Counts))
	values := make([]float64, len(f.STUHist.Counts))
	for i, c := range f.STUHist.Counts {
		labels[i] = fmt.Sprintf("%3.0f-%3.0f%%", f.STUHist.BinCenter(i)-5, f.STUHist.BinCenter(i)+5)
		values[i] = float64(c)
	}
	b.WriteString(textplot.HBar("", labels, values, 50))
	fmt.Fprintf(&b, "  blocks at 100%% STU: %d (paper: ~60K of 1.2M)\n", f.FullSTUBlocks)
	fmt.Fprintf(&b, "Section 5.4 potential: active=%d lowFD=%d cyclingPools=%d lowSTUpools=%d freeable≈%d addrs\n",
		f.Potential.ActiveBlocks, f.Potential.LowFDBlocks, f.Potential.DynamicHighFD,
		f.Potential.DynamicLowSTU, f.Potential.FreeableAddrs)
	return b.String()
}
