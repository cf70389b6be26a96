// Package analysis reproduces every table and figure of the paper's
// evaluation on top of a simulated world: each ExperimentN function
// reads the figure's underlying data from the context's query index or
// computes it with internal/core, and renders a paper-style text
// artifact. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-vs-measured comparisons.
package analysis

import (
	"sync"

	"ipscope/internal/bgp"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/scan"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// Context bundles an observation dataset with the world it describes,
// the scanning campaign and the query index compiled from the dataset,
// ready for the experiment drivers. The dataset may come from a live
// simulation or from storage — the experiments cannot tell the
// difference, which is what makes reports from either path
// byte-identical.
//
// The index is the one runtime definition of the numbers it serves:
// Table 1, the capture–recapture inputs, the daily up/down counts and
// every block's FD, STU, rDNS tag, traffic and UA uniques. The
// experiments read those from it, exactly as /v1/summary and /v1/block
// do, and everything else from the dataset.
type Context struct {
	World    *synthnet.World
	Obs      *obs.Data
	Campaign *scan.Campaign
	Index    *query.Index

	features []core.BlockFeatures
	// windows holds, built once on first use, the window series that
	// both Figure 4b and Figure 5 read (Windows).
	windows map[int]func() []*ipv4.Set
}

// NewContext generates a world and runs the simulation, the all-in-one
// path used by tests and benchmarks.
func NewContext(wcfg synthnet.Config, scfg sim.Config) *Context {
	w := synthnet.Generate(wcfg)
	res := sim.Run(w, scfg)
	return NewContextFromData(w, &res.Data)
}

// NewContextFromSource builds a Context from any observation source —
// a stored dataset file, a decoded network stream, or a live
// *sim.Result. The world is regenerated deterministically from the
// dataset's embedded world config, so a dataset file is all an
// analysis node needs. It fails when the index cannot be built: a
// dataset with no daily window, or one holding more days than its meta
// declares.
func NewContextFromSource(src obs.Source) (*Context, error) {
	d, err := src.Observations()
	if err != nil {
		return nil, err
	}
	w := synthnet.Generate(d.Meta.World)
	if d.Routing != nil && d.Routing.Base == nil {
		d.Routing.Base = w.BaseRouting
	}
	return newContext(w, d)
}

// NewContextFromData builds a Context over an already-generated world
// and its dataset, skipping the world regeneration NewContextFromSource
// performs; d must have been produced from (a simulation of) w. A
// simulation always has a daily window, so the index builds; it panics
// if it does not.
func NewContextFromData(w *synthnet.World, d *obs.Data) *Context {
	ctx, err := newContext(w, d)
	if err != nil {
		panic(err)
	}
	return ctx
}

func newContext(w *synthnet.World, d *obs.Data) (*Context, error) {
	idx, err := query.Build(d, query.Options{})
	if err != nil {
		return nil, err
	}
	ctx := &Context{World: w, Obs: d, Campaign: scan.FromObs(d), Index: idx}
	ctx.features = ctx.blockFeatures()
	ctx.windows = make(map[int]func() []*ipv4.Set)
	for _, w := range []int{7, 28} {
		ctx.windows[w] = sync.OnceValue(func() []*ipv4.Set { return core.Windows(d.Daily, w) })
	}
	return ctx, nil
}

// Windows returns the dataset's daily sets aggregated into windows of w
// days (core.Windows). Width 1 is the daily series itself, and the
// widths two figures share are built once per context; callers must not
// mutate the sets.
func (c *Context) Windows(w int) []*ipv4.Set {
	if w == 1 {
		return c.Obs.Daily
	}
	if shared, ok := c.windows[w]; ok {
		return shared()
	}
	return core.Windows(c.Obs.Daily, w)
}

// ASOf maps a block to its origin AS in the world's base routing table.
func (c *Context) ASOf(blk ipv4.Block) bgp.ASN { return c.World.ASOf(blk) }

// CDNMonth returns the CDN's active set over the month that the ICMP
// campaign ran (the paper compares a full month of CDN logs against
// 8 ICMP snapshots, Section 3.2). The window definition lives on
// obs.Data so the serving layer shares it.
func (c *Context) CDNMonth() *ipv4.Set {
	return c.Obs.CampaignMonthUnion()
}

// TrafficIter adapts the dataset's per-address traffic aggregates to
// core.BinByDaysActive's iterator. Blocks are visited in ascending
// order so downstream floating-point accumulation is deterministic and
// reports stay byte-identical run to run.
func (c *Context) TrafficIter() func(yield func(core.IPTraffic)) {
	return func(yield func(core.IPTraffic)) {
		for _, blk := range c.Obs.TrafficBlocks() {
			bt := c.Obs.Traffic[blk]
			for h := 0; h < 256; h++ {
				if bt.DaysActive[h] == 0 {
					continue
				}
				yield(core.IPTraffic{
					Addr:       blk.Addr(byte(h)),
					DaysActive: int(bt.DaysActive[h]),
					Hits:       bt.Hits[h],
				})
			}
		}
	}
}

// BlockFeatures returns the three demographics features of every block
// active in the daily window, in ascending block order, read from the
// index's block views. Callers must not mutate the returned slice.
func (c *Context) BlockFeatures() []core.BlockFeatures { return c.features }

func (c *Context) blockFeatures() []core.BlockFeatures {
	blocks := c.Index.Blocks()
	out := make([]core.BlockFeatures, len(blocks))
	for i, blk := range blocks {
		v, _ := c.Index.Block(blk)
		out[i] = core.BlockFeatures{Block: blk, STU: v.STU, Traffic: v.TotalHits, Hosts: max(v.UAUnique, 1)}
	}
	return out
}
