package core

import (
	"ipscope/internal/ipv4"
	"ipscope/internal/registry"
	"ipscope/internal/stats"
)

// BlockFeatures are the three per-/24 measures the paper combines in
// Section 7: spatio-temporal utilization (already in (0,1]), total
// traffic contribution, and a relative host count (unique sampled UAs).
type BlockFeatures struct {
	Block   ipv4.Block
	STU     float64
	Traffic float64
	Hosts   float64
}

// DemographicsBins is the paper's bin count per axis (10×10×10 = 1000).
const DemographicsBins = 10

// Cell addresses one bin of the 3-D feature matrix.
type Cell struct {
	STU, Traffic, Hosts int
}

// Demographics is the populated 3-D feature matrix of Figure 11.
type Demographics struct {
	Bins   int
	Counts map[Cell]int
	// MaxTraffic and MaxHosts are the normalization maxima used for
	// the log transforms (recorded for reproducibility).
	MaxTraffic, MaxHosts float64
}

// BuildDemographics normalizes features (traffic and hosts are
// log-transformed and divided by the maximum, per Section 7) and bins
// every block into the 3-D matrix.
func BuildDemographics(blocks []BlockFeatures) *Demographics {
	d := &Demographics{Bins: DemographicsBins, Counts: make(map[Cell]int)}
	for _, b := range blocks {
		if b.Traffic > d.MaxTraffic {
			d.MaxTraffic = b.Traffic
		}
		if b.Hosts > d.MaxHosts {
			d.MaxHosts = b.Hosts
		}
	}
	for _, b := range blocks {
		c := Cell{
			STU:     stats.BinIndex(b.STU, d.Bins),
			Traffic: stats.BinIndex(stats.NormalizeLog(b.Traffic, d.MaxTraffic), d.Bins),
			Hosts:   stats.BinIndex(stats.NormalizeLog(b.Hosts, d.MaxHosts), d.Bins),
		}
		d.Counts[c]++
	}
	return d
}

// Total returns the number of binned blocks.
func (d *Demographics) Total() int {
	n := 0
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// STUMarginal returns the per-STU-bin totals (the "strong division
// along the STU axis" observation).
func (d *Demographics) STUMarginal() [DemographicsBins]int {
	var out [DemographicsBins]int
	for c, n := range d.Counts {
		out[c.STU] += n
	}
	return out
}

// RIRCell is one 2-D cell of Figure 12: STU × traffic with the mean
// relative host count as the colour channel.
type RIRCell struct {
	STU, Traffic int
	Blocks       int
	MeanHosts    float64 // mean normalized host count in the cell
}

// RIRDemographics is one registry's 2-D demographic panel.
type RIRDemographics struct {
	RIR   registry.RIR
	Cells map[[2]int]*RIRCell
	Total int
}

// BuildRIRDemographics splits blocks by registry and builds the per-RIR
// panels of Figure 12. Normalization maxima are global (shared across
// panels) so panels are comparable, as in the paper.
func BuildRIRDemographics(blocks []BlockFeatures, reg *registry.Table) []*RIRDemographics {
	var maxTraffic, maxHosts float64
	for _, b := range blocks {
		if b.Traffic > maxTraffic {
			maxTraffic = b.Traffic
		}
		if b.Hosts > maxHosts {
			maxHosts = b.Hosts
		}
	}
	panels := make([]*RIRDemographics, registry.NumRIRs)
	for i, r := range registry.AllRIRs {
		panels[i] = &RIRDemographics{RIR: r, Cells: make(map[[2]int]*RIRCell)}
	}
	for _, b := range blocks {
		r := reg.RIROf(b.Block)
		p := panels[int(r)]
		key := [2]int{
			stats.BinIndex(b.STU, DemographicsBins),
			stats.BinIndex(stats.NormalizeLog(b.Traffic, maxTraffic), DemographicsBins),
		}
		cell := p.Cells[key]
		if cell == nil {
			cell = &RIRCell{STU: key[0], Traffic: key[1]}
			p.Cells[key] = cell
		}
		h := stats.NormalizeLog(b.Hosts, maxHosts)
		cell.MeanHosts = (cell.MeanHosts*float64(cell.Blocks) + h) / float64(cell.Blocks+1)
		cell.Blocks++
		p.Total++
	}
	return panels
}

// HighSTUShare returns the fraction of a panel's blocks in the top-half
// STU bins — used to compare utilization pressure across registries
// (the paper: LACNIC/AFRINIC more highly utilized than ARIN).
func (p *RIRDemographics) HighSTUShare() float64 {
	if p.Total == 0 {
		return 0
	}
	n := 0
	for key, c := range p.Cells {
		if key[0] >= DemographicsBins/2 {
			n += c.Blocks
		}
	}
	return float64(n) / float64(p.Total)
}
