package query

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

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
// shard boundaries cannot reorder anything. No daily union is built: the
// keys are its blocks (ipv4.UnionBlocks), and its size is the sum of the
// blocks' unions, as a live day advances it. Table 1's daily AS sets are
// set in the walk that files the columns, each key's AS column read off
// its accumulator, its weekly ones in one walk of each weekly set
// (setRow), both into the AS matrix a live day and week use; the other
// day-level series come from the parallel set kernels. Every fan-out is
// bounded by the Applier's Options.Workers, not by the worker count the
// dataset's producer recorded in its meta.
func (a *Applier) fill(d *obs.Data) {
	w := a.opts.Workers
	n := len(d.Daily)

	a.keys = ipv4.UnionBlocks(d.Daily, w)
	slot := make(map[ipv4.Block]int32, len(a.keys))
	for i, blk := range a.keys {
		slot[blk] = int32(i)
	}
	accs := par.Map(len(a.keys), w, func(i int) *blockAcc { return a.newAcc(a.keys[i]) })
	// cols[i*n+day] is key i's hosts on day, nil on a day it was inactive.
	// The same walk sets each day's row of Table 1's AS sets.
	cols := make([]*ipv4.Bitmap256, len(a.keys)*n)
	dayASes := a.newASMatrix(n)
	par.ForEach(n, w, func(day int) {
		d.Daily[day].ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
			i := slot[blk]
			cols[int(i)*n+day] = bm
			dayASes.set(day, accs[i].asCol)
		})
	})
	par.ForEach(len(a.keys), w, func(i int) {
		accs[i].fillDays(cols[i*n:(i+1)*n], a.fullWords)
		accs[i].setStats(d.Traffic[a.keys[i]], d.UA[a.keys[i]])
	})
	for i, blk := range a.keys {
		a.accs[blk] = accs[i]
		a.dSum.UnionIPs += accs[i].union.Count()
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
	a.dSum.observeAll(d.Daily, dayASes.lists())
	a.dSum.UnionBlocks = len(a.keys)
	if n > 1 {
		a.ups = ipv4.DiffCounts(d.Daily[1:], d.Daily[:n-1], w)
		a.downs = make([]int, n-1)
		for i, up := range a.ups {
			a.downs[i] = downCount(a.dayLens[i], a.dayLens[i+1], up)
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
	weekASes := a.newASMatrix(len(weekly))
	par.ForEach(len(weekly), w, func(k int) { a.setRow(weekASes, k, weekly[k]) })
	a.wSum.observeAll(weekly, weekASes.lists())
	a.wSum.UnionIPs, a.wSum.UnionBlocks = a.yearUnion.Len(), a.yearUnion.NumBlocks()

	a.icmpUnion = ipv4.UnionAll(d.ICMPScans, w)
	if a.scans = len(a.meta.Run.ICMPScanDays); a.scans > 0 {
		a.setCampaignWindow()
	}
	a.servers, a.routers = d.ServerSet, d.RouterSet
}

// downCount is a churn transition's down events, |prev \ next|, from
// its up events and the two days' sizes: |prev| − |next| + |next \ prev|.
func downCount(prevLen, nextLen, up int) int { return prevLen - nextLen + up }

// asMatrix holds a series' per-snapshot AS sets as a (snapshot × AS) bit
// matrix over the world's AS columns (Applier.asCol), so that no set
// needs a sort: a snapshot's set is read off its row in AS order. Each
// row is written by one worker.
type asMatrix struct {
	base  []ASPartial // the columns' ASes: the Applier's asBase
	rows  int
	words int // per row
	bits  []uint64
}

// newASMatrix returns an empty matrix of n snapshots over the world's ASes.
func (a *Applier) newASMatrix(n int) *asMatrix {
	words := (len(a.asBase) + 63) / 64
	return &asMatrix{base: a.asBase, rows: n, words: words, bits: make([]uint64, n*words)}
}

// set records column j's AS in snapshot k; j < 0 (AS 0) records nothing.
func (m *asMatrix) set(k int, j int32) {
	if j >= 0 {
		m.bits[k*m.words+int(j/64)] |= 1 << (j % 64)
	}
}

// row returns snapshot k's AS set, ascending, at its exact size and
// never nil.
func (m *asMatrix) row(k int) []uint32 {
	r := m.bits[k*m.words : (k+1)*m.words]
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	ases := make([]uint32, 0, n)
	for i, w := range r {
		for ; w != 0; w &= w - 1 {
			ases = append(ases, m.base[i*64+bits.TrailingZeros64(w)].AS)
		}
	}
	return ases
}

// lists returns every snapshot's AS set.
func (m *asMatrix) lists() [][]uint32 {
	out := make([][]uint32, m.rows)
	for k := range out {
		out[k] = m.row(k)
	}
	return out
}

// take returns a one-row matrix's AS set and clears the row for the
// next snapshot.
func (m *asMatrix) take() []uint32 {
	ases := m.row(0)
	clear(m.bits)
	return ases
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
