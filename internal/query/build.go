package query

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/par"
	"ipscope/internal/rdns"
	"ipscope/internal/synthnet"
	"ipscope/internal/useragent"
)

// Build compiles src into an Index: a block-parallel fill of a fresh
// Applier, published through the Snapshot a live node calls, so a batch
// index and a live one are the output of one block compiler and one
// summary assembler. The world is regenerated deterministically from
// the dataset's embedded configuration, exactly as the batch analysis
// side does, so a stored dataset file is all a serving node needs.
func Build(src obs.Source, opts Options) (*Index, error) {
	d, err := src.Observations()
	if err != nil {
		return nil, err
	}
	if len(d.Daily) == 0 {
		return nil, fmt.Errorf("query: dataset has no daily window")
	}
	if n, win := len(d.Daily), d.Meta.Run.DailyLen; n > win {
		return nil, fmt.Errorf("query: dataset holds %d daily sets, its meta declares a window of %d", n, win)
	}
	a := NewApplier(opts)
	if err := a.applyMeta(obs.MetaEvent{Meta: d.Meta}); err != nil {
		return nil, err
	}
	a.fill(d)
	return a.Snapshot()
}

// fill loads a, fresh from applyMeta, with the state Observe would
// reach event by event over d.WriteTo, without one serial pass over
// every block per day. One walk of each day's set files every active
// block's bitmap into a (block × day) column array, each cell written by
// one worker; then each block turns its column into its accumulator a
// timeline word at a time (fillDays), in its own preallocated slot, so
// shard boundaries cannot reorder anything. Table 1's daily AS sets are
// read off the same columns (columnASes), its weekly ones off one walk
// of each weekly set (setASes); the other day-level series come from
// the parallel set kernels. Every fan-out is bounded by the Applier's
// Options.Workers, not by the worker count the dataset's producer
// recorded in its meta.
func (a *Applier) fill(d *obs.Data) {
	w := a.opts.Workers
	n := len(d.Daily)

	dailyUnion := ipv4.UnionAll(d.Daily, w)
	a.keys = dailyUnion.Blocks()
	slot := make(map[ipv4.Block]int32, len(a.keys))
	for i, blk := range a.keys {
		slot[blk] = int32(i)
	}
	// cols[i*n+day] is key i's hosts on day, nil on a day it was inactive.
	cols := make([]*ipv4.Bitmap256, len(a.keys)*n)
	par.ForEach(n, w, func(day int) {
		d.Daily[day].ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
			cols[int(slot[blk])*n+day] = bm
		})
	})
	accs := par.Map(len(a.keys), w, func(i int) *blockAcc {
		blk := a.keys[i]
		acc := a.newAcc(blk)
		acc.fillDays(cols[i*n:(i+1)*n], a.fullWords)
		acc.setStats(d.Traffic[blk], d.UA[blk])
		return acc
	})
	for i, blk := range a.keys {
		a.accs[blk] = accs[i]
	}
	// Stats for a block with no active day reach the index only through
	// the summary's UA fold, so only a UA payload needs an accumulator.
	for blk, ua := range d.UA {
		if a.accs[blk] == nil {
			a.acc(blk).setStats(nil, ua)
		}
	}

	// Build applies no day after the fill, so its window closes here:
	// every word is sealed and no block needs a day tail.
	a.days, a.window = n, n
	a.lastDay = d.Daily[n-1]
	a.dayLens = make([]int, n)
	for i, s := range d.Daily {
		a.dayLens[i] = s.Len()
	}
	a.dSum.observeAll(d.Daily, columnASes(a.keys, cols, n, a.world.ASOf))
	a.dSum.UnionIPs, a.dSum.UnionBlocks = dailyUnion.Len(), len(a.keys)
	if n > 1 {
		a.ups = ipv4.DiffCounts(d.Daily[1:], d.Daily[:n-1], w)
		a.downs = make([]int, n-1)
		for i, up := range a.ups {
			// |prev \ next| = |prev| - |next| + |next \ prev|
			a.downs[i] = a.dayLens[i] - a.dayLens[i+1] + up
		}
	}

	// A stream-prefix dataset round-tripped through Data.Observe holds
	// the full run's weekly slots with the not-yet-closed weeks nil
	// (MetaEvent pre-sizes to NumWeeks, which derives from the campaign
	// length, not the applied prefix). A live Applier only counts weeks it
	// has observed, so the unclosed tail is not part of the series.
	weekly := d.Weekly
	for len(weekly) > 0 && weekly[len(weekly)-1] == nil {
		weekly = weekly[:len(weekly)-1]
	}
	if a.weeks = len(weekly); a.weeks > 0 {
		a.week0, a.weekLast = weekly[0], weekly[a.weeks-1]
		a.weekLastAppear = a.weekLast.DiffCount(a.week0)
	}
	a.yearUnion = ipv4.UnionAll(weekly, w)
	a.wSum.observeAll(weekly, setASes(weekly, a.yearUnion.Blocks(), a.world.ASOf, w))
	a.wSum.UnionIPs, a.wSum.UnionBlocks = a.yearUnion.Len(), a.yearUnion.NumBlocks()

	a.icmpUnion = ipv4.UnionAll(d.ICMPScans, w)
	if a.scans = len(a.meta.Run.ICMPScanDays); a.scans > 0 {
		a.setCampaignWindow()
	}
	a.servers, a.routers = d.ServerSet, d.RouterSet
}

// asMatrix holds a series' per-snapshot AS sets — what snapshotASes
// finds in each set — as a (snapshot × AS) bit matrix, so that no set
// needs a sort: a snapshot's set is read off its row in AS order. Each
// row is written by one worker.
type asMatrix struct {
	ases  []uint32 // the columns' ASes: ascending, distinct, no AS 0
	words int      // per row
	bits  []uint64
}

// newASMatrix sizes a matrix for n snapshots over blocks, every block a
// snapshot can hold among them. Their unrouted AS 0 gets no column, as
// snapshotASes counts it nowhere.
func newASMatrix(blocks []ipv4.Block, n int, asOf func(ipv4.Block) bgp.ASN) *asMatrix {
	ases := make([]uint32, len(blocks))
	for i, blk := range blocks {
		ases[i] = uint32(asOf(blk))
	}
	slices.Sort(ases)
	ases = slices.Compact(ases)
	if len(ases) > 0 && ases[0] == 0 {
		ases = ases[1:]
	}
	words := (len(ases) + 63) / 64
	return &asMatrix{ases: ases, words: words, bits: make([]uint64, n*words)}
}

// col returns as's column; AS 0 has none.
func (m *asMatrix) col(as bgp.ASN) (int, bool) {
	return slices.BinarySearch(m.ases, uint32(as))
}

// set records column j's AS in snapshot k.
func (m *asMatrix) set(k, j int) { m.bits[k*m.words+j/64] |= 1 << (j % 64) }

// lists returns the n snapshots' sorted AS sets, carved from one array,
// each capped at its length and none nil.
func (m *asMatrix) lists(n int) [][]uint32 {
	total := 0
	for _, w := range m.bits {
		total += bits.OnesCount64(w)
	}
	flat := make([]uint32, 0, total)
	out := make([][]uint32, n)
	for k := range out {
		start := len(flat)
		for i, w := range m.bits[k*m.words : (k+1)*m.words] {
			for ; w != 0; w &= w - 1 {
				flat = append(flat, m.ases[i*64+bits.TrailingZeros64(w)])
			}
		}
		out[k] = flat[start:len(flat):len(flat)]
	}
	return out
}

// columnASes returns the AS sets of the n snapshots of the (key ×
// snapshot) column array cols, resolving each key's AS once.
func columnASes(keys []ipv4.Block, cols []*ipv4.Bitmap256, n int, asOf func(ipv4.Block) bgp.ASN) [][]uint32 {
	m := newASMatrix(keys, n, asOf)
	for i, blk := range keys {
		j, ok := m.col(asOf(blk))
		if !ok {
			continue
		}
		for k, bm := range cols[i*n : (i+1)*n] {
			if bm != nil {
				m.set(k, j)
			}
		}
	}
	return m.lists(n)
}

// setASes returns the AS sets of sets, whose blocks are all among
// blocks, from one walk of each set across workers: a series with no
// other use for a column array (the weekly sets) needs none. Each
// block's AS column is resolved once, into a map the walks share.
func setASes(sets []*ipv4.Set, blocks []ipv4.Block, asOf func(ipv4.Block) bgp.ASN, workers int) [][]uint32 {
	m := newASMatrix(blocks, len(sets), asOf)
	colOf := make(map[ipv4.Block]int32, len(blocks))
	for _, blk := range blocks {
		j, ok := m.col(asOf(blk))
		if !ok {
			j = -1
		}
		colOf[blk] = int32(j)
	}
	par.ForEach(len(sets), workers, func(k int) {
		sets[k].ForEachBlock(func(blk ipv4.Block, _ *ipv4.Bitmap256) {
			if j := colOf[blk]; j >= 0 {
				m.set(k, int(j))
			}
		})
	})
	return m.lists(len(sets))
}

// fillDays loads a fresh accumulator with the first len(days) days of
// the window, days[d] being the block's hosts on day d (nil: inactive):
// the state a day-by-day apply reaches once each word has sealed, written
// the way a seal writes it, a timeline word at a time through the day
// tail's transpose.
func (acc *blockAcc) fillDays(days []*ipv4.Bitmap256, fullWords int) {
	acc.dirty = true
	acc.timelines = make([]uint64, 256*fullWords)
	var buf [64]ipv4.Bitmap256
	for k := 0; 64*k < len(days); k++ {
		t := tailDays(buf[:min(64, len(days)-64*k)])
		for i, bm := range days[64*k : 64*k+len(t)] {
			if bm == nil {
				t[i] = ipv4.Bitmap256{}
				continue
			}
			t[i] = *bm
			acc.activeDays++
			acc.addrDays += bm.Count()
			acc.union.UnionWith(bm)
		}
		for h, hw := range t.words() {
			acc.timelines[h*fullWords+k] = hw
		}
	}
}

func orEmpty(s *ipv4.Set) *ipv4.Set {
	if s == nil {
		return ipv4.NewSet()
	}
	return s
}

// classifyWorld computes the rDNS tag for every world block keep
// accepts (nil = all; not just active blocks: /v1/addr enriches
// unallocated-but-routed space too). Zone classification is pure per
// block, so neither the fan-out nor the keep-restriction can change
// any kept block's tag — a shard classifies exactly what a single
// node would for its slice.
func classifyWorld(world *synthnet.World, workers int, keep func(ipv4.Block) bool) *rdns.TagIndex {
	blocks := world.Blocks
	if keep != nil {
		blocks = make([]*synthnet.Block, 0, len(world.Blocks))
		for _, b := range world.Blocks {
			if keep(b.Block) {
				blocks = append(blocks, b)
			}
		}
	}
	pairs := par.Map(len(blocks), workers, func(i int) rdns.BlockTag {
		b := blocks[i]
		return rdns.BlockTag{
			Block: b.Block,
			Tag:   rdns.ClassifyZone(world.RDNSZone(b), 0.6),
		}
	})
	return rdns.NewTagIndex(pairs)
}

// asTable renders the identity partials of the world's ASes — what an
// AS's footprint takes from the world alone, no activity — once per
// world, sorted by AS (the world numbers its ASes in ascending order).
// Every snapshot of that world folds its counts into a copy, and the
// rendered prefix strings are shared by all of them, read-only.
func asTable(world *synthnet.World) []ASPartial {
	table := make([]ASPartial, len(world.ASes))
	for i, as := range world.ASes {
		p := &table[i]
		*p = ASPartial{
			Found:   true,
			AS:      uint32(as.Num),
			Kind:    as.Kind.String(),
			Country: string(as.Country),
			RIR:     as.RIR.String(),
		}
		for _, pfx := range as.Prefixes {
			p.Prefixes = append(p.Prefixes, pfx.String())
			p.RoutedBlocks += pfx.NumBlocks()
		}
	}
	return table
}

// foldAS folds the blocks, in ascending order, into a copy of the
// identity partials: activity the table does not route adds the
// "unrouted" AS 0, named by its first block, and each AS's Hits are its
// blocks' total hits in block order (the sum MergeASPartials replays),
// carved from one array — nil for an AS with no active block.
func foldAS(table []ASPartial, blocks []blockData) []ASPartial {
	ases := slices.Clone(table)
	for i := range blocks {
		v := &blocks[i].view
		j, ok := searchAS(ases, v.AS)
		if !ok {
			ases = slices.Insert(ases, j, ASPartial{Found: true, AS: v.AS, Kind: "unrouted", RIR: v.RIR})
		}
		ases[j].ActiveBlocks++
		ases[j].ActiveAddrs += v.FD
	}
	hits := make([]float64, len(blocks))
	for i := range ases {
		if n := ases[i].ActiveBlocks; n > 0 {
			ases[i].Hits, hits = hits[:0:n], hits[n:]
		}
	}
	for i := range blocks {
		j, _ := searchAS(ases, blocks[i].view.AS)
		ases[j].Hits = append(ases[j].Hits, blocks[i].view.TotalHits)
	}
	return ases
}

// searchAS binary-searches partials sorted by AS for as.
func searchAS(ases []ASPartial, as uint32) (int, bool) {
	i := sort.Search(len(ases), func(i int) bool { return ases[i].AS >= as })
	return i, i < len(ases) && ases[i].AS == as
}

// foldUA unions the per-block UA sketches (register-wise max, so any
// fold order yields the same registers) and sums the sample counts.
// Sketches are uniform-precision by construction (the engine allocates
// them all alike); a mismatched sketch is skipped deterministically.
func foldUA(blocks []ipv4.Block, statOf func(ipv4.Block) *obs.UAStat) (samples int, prec uint8, regs []byte) {
	var merged *useragent.HLL
	for _, blk := range blocks {
		st := statOf(blk)
		if st == nil {
			continue
		}
		samples += st.Samples
		if st.Sketch == nil {
			continue
		}
		if merged == nil {
			merged = useragent.NewHLL(st.Sketch.Precision())
		}
		merged.Merge(st.Sketch) //nolint:errcheck // uniform precision; mismatch skips the block
	}
	if merged == nil {
		return samples, 0, nil
	}
	return samples, merged.Precision(), merged.Registers()
}
