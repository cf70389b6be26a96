package query

import (
	"fmt"
	"slices"

	"ipscope/internal/bgp"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/par"
	"ipscope/internal/rdns"
	"ipscope/internal/synthnet"
)

// Applier is the incremental counterpart of Build: it consumes a live
// observation event stream (it implements obs.Sink, so it attaches
// directly to obs.StreamDecode, obs.Follow or a sim.RunTo tee) and can
// publish an epoch-stamped immutable *Index at any point. The hard
// invariant, enforced by TestApplierEquivalence, is that after applying
// days 1..N the published snapshot is view-identical — byte for byte
// across every lookup — to Build over the dataset truncated to those N
// days (obs.Data.TruncateLive), for any worker count on either side.
//
// Incrementality is what makes a publish far cheaper than a rebuild
// (BenchmarkIndexApplyDay): per-block accumulators absorb each day in
// O(active addresses), dataset-level unions and churn/summary counters
// advance per event, and Snapshot only materializes blocks whose
// accumulators changed since the previous epoch — every clean block's
// packed timeline is shared with the prior snapshot. Summary, recapture
// and churn assembly are recomputed per epoch (fanned out across
// internal/par), never on the serving request path.
//
// Stream contract: events must arrive in emission order — MetaEvent
// first, then day/week/ICMP events with strictly sequential indices
// (the order sim.RunTo and the codec's canonical replay both produce).
// An Applier is not safe for concurrent use; published snapshots are.
type Applier struct {
	opts Options

	// Set by the MetaEvent.
	meta      obs.Meta
	world     *synthnet.World
	tags      *rdns.TagIndex
	fullWords int       // timeline words for the full daily window
	staging   *obs.Data // geometry-complete event accumulator

	days, weeks, scans int

	accs  map[ipv4.Block]*blockAcc
	dirty []ipv4.Block // accs touched since the last publish

	dailyUnion *ipv4.Set // grows per day; also dSum's union
	icmpUnion  *ipv4.Set // immutable: replaced (not mutated) per scan
	servers    *ipv4.Set // end-of-stream surfaces (immutable payloads)
	routers    *ipv4.Set

	dSum, wSum seriesAccum

	// Capture–recapture month window: nil until the first scan arrives
	// (CampaignMonthUnion falls back to the whole daily window), then a
	// running union over daily-window days in [cdnFrom, cdnTo).
	cdn            *ipv4.Set
	cdnFrom, cdnTo int

	// Daily churn raw material, appended per transition in day order:
	// the integer inputs SummaryPartial.Finalize turns into the exact
	// ChurnSeries percentage sequence.
	ups, downs []int

	epoch uint64
	prev  *Index // last published snapshot, for clean-block reuse
}

// blockAcc is one /24's mutable accumulator: everything compileBlock
// derives from the dataset, maintained event by event instead.
type blockAcc struct {
	// timelines is 256 packed day-bitsets at the full window width;
	// snapshots copy out the leading words their window needs.
	timelines  []uint64
	union      ipv4.Bitmap256
	activeDays int
	addrDays   int
	traffic    *blockTraffic
	totalHits  float64
	// ua retains the block's stats event payload (immutable per the
	// Sink contract): the view needs samples and the unique estimate,
	// and the summary partial needs the sketch itself for the
	// cross-shard HLL union.
	ua    *obs.UAStat
	e     enrichment
	dirty bool
}

// seriesAccum advances one SeriesPartial incrementally: all counters
// are integers folded in snapshot order (plus the per-snapshot AS
// sets), so the per-epoch partial equals the one Build computes over
// the applied snapshots.
type seriesAccum struct {
	union    *ipv4.Set
	snapASes [][]uint32
	ipSum    int
	blkSum   int
	snaps    int
}

func (sa *seriesAccum) observe(s *ipv4.Set, asOf func(ipv4.Block) bgp.ASN) {
	sa.snaps++
	sa.ipSum += s.Len()
	sa.blkSum += s.NumBlocks()
	sa.snapASes = append(sa.snapASes, snapshotASes(s, asOf))
	sa.union.UnionWith(s)
}

func (sa *seriesAccum) partial() SeriesPartial {
	return SeriesPartial{
		Snapshots:   sa.snaps,
		UnionIPs:    sa.union.Len(),
		UnionBlocks: sa.union.NumBlocks(),
		IPSum:       sa.ipSum,
		BlockSum:    sa.blkSum,
		SnapASes:    append([][]uint32(nil), sa.snapASes...),
	}
}

// NewApplier returns an empty Applier. opts.Workers bounds the publish
// fan-out; snapshots are identical for any value.
func NewApplier(opts Options) *Applier {
	return &Applier{opts: opts}
}

// Days returns the number of daily-window days applied so far.
func (a *Applier) Days() int { return a.days }

// Epoch returns the epoch of the most recently published snapshot
// (0 before the first Snapshot).
func (a *Applier) Epoch() uint64 { return a.epoch }

// Observe applies one event. It returns an error for a stream that
// violates the Applier's ordering contract (see the type comment); the
// Applier must then be discarded.
func (a *Applier) Observe(e obs.Event) error {
	if _, ok := e.(obs.MetaEvent); !ok && a.world == nil {
		return fmt.Errorf("query: applier received %T before the meta event", e)
	}
	switch ev := e.(type) {
	case obs.MetaEvent:
		return a.applyMeta(ev)
	case obs.DayEvent:
		return a.applyDay(ev)
	case obs.WeekEvent:
		if ev.Index != a.weeks {
			return fmt.Errorf("query: week event %d out of order (want %d)", ev.Index, a.weeks)
		}
		if err := a.staging.Observe(ev); err != nil {
			return err
		}
		a.weeks++
		a.wSum.observe(ev.Active, a.world.ASOf)
	case obs.ICMPScanEvent:
		return a.applyScan(ev)
	case obs.BlockStatsEvent:
		if err := a.staging.Observe(ev); err != nil {
			return err
		}
		acc := a.acc(ev.Block)
		a.touch(ev.Block, acc)
		if ev.Traffic != nil {
			t := &blockTraffic{}
			total := 0.0
			for h := 0; h < 256; h++ {
				t.daysActive[h] = ev.Traffic.DaysActive[h]
				t.hits[h] = ev.Traffic.Hits[h]
				total += ev.Traffic.Hits[h]
			}
			acc.traffic = t
			acc.totalHits = total
		}
		if ev.UA != nil {
			acc.ua = ev.UA
		}
	case obs.SurfacesEvent:
		if err := a.staging.Observe(ev); err != nil {
			return err
		}
		a.servers, a.routers = ev.Servers, ev.Routers
	default:
		// Ground truth (routing, restructures) and any future event
		// kinds: staged for completeness, no index impact (the index
		// joins against the world's base routing table).
		return a.staging.Observe(e)
	}
	return nil
}

func (a *Applier) applyMeta(ev obs.MetaEvent) error {
	if a.world != nil {
		return fmt.Errorf("query: applier received a second meta event")
	}
	a.meta = ev.Meta
	a.staging = &obs.Data{}
	if err := a.staging.Observe(ev); err != nil {
		return err
	}
	a.world = synthnet.Generate(ev.Meta.World)
	a.tags = classifyWorld(a.world, a.opts.Workers, a.opts.Keep)
	a.fullWords = (ev.Meta.Run.DailyLen + 63) / 64
	a.accs = make(map[ipv4.Block]*blockAcc)
	a.dailyUnion = ipv4.NewSet()
	a.icmpUnion = ipv4.NewSet()
	a.dSum = seriesAccum{union: a.dailyUnion}
	a.wSum = seriesAccum{union: ipv4.NewSet()}
	return nil
}

func (a *Applier) applyDay(ev obs.DayEvent) error {
	if ev.Index != a.days {
		return fmt.Errorf("query: day event %d out of order (want %d)", ev.Index, a.days)
	}
	if err := a.staging.Observe(ev); err != nil {
		return err
	}
	// Churn transition against the previous day, in arrival order: the
	// appended integers are the exact inputs ChurnSeries would compute.
	if ev.Index > 0 {
		prev := a.staging.Daily[ev.Index-1]
		a.ups = append(a.ups, ev.Active.DiffCount(prev))
		a.downs = append(a.downs, prev.DiffCount(ev.Active))
	}
	day := ev.Index
	a.days++
	ev.Active.ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
		acc := a.acc(blk)
		a.touch(blk, acc)
		if acc.timelines == nil {
			acc.timelines = make([]uint64, 256*a.fullWords)
		}
		word, bit := day/64, uint(day%64)
		bm.ForEach(func(h byte) {
			acc.timelines[int(h)*a.fullWords+word] |= 1 << bit
		})
		acc.activeDays++
		acc.addrDays += bm.Count()
		acc.union.UnionWith(bm)
	})
	a.dSum.observe(ev.Active, a.world.ASOf) // also grows dailyUnion
	if a.cdn != nil && day >= a.cdnFrom && day < a.cdnTo {
		a.cdn.UnionWith(ev.Active)
	}
	return nil
}

func (a *Applier) applyScan(ev obs.ICMPScanEvent) error {
	if ev.Index != a.scans {
		return fmt.Errorf("query: ICMP scan event %d out of order (want %d)", ev.Index, a.scans)
	}
	if err := a.staging.Observe(ev); err != nil {
		return err
	}
	a.scans++
	// Published snapshots share the union pointer, so replace instead of
	// mutating.
	a.icmpUnion = a.icmpUnion.Union(ev.Responders)
	// The capture–recapture month window is pinned by the first and last
	// scans seen so far (expanded to at least 28 days, exactly as
	// obs.Data.CampaignMonthUnion derives it); a new scan can shift it,
	// so rebuild the window union from staging and advance it per day
	// from here on.
	cfg := a.meta.Run
	days := cfg.ICMPScanDays[:a.scans]
	first, last := days[0], days[len(days)-1]
	from := first - cfg.DailyStart
	to := last - cfg.DailyStart + 1
	if span := to - from; span < 28 {
		from -= (28 - span) / 2
		to = from + 28
	}
	a.cdnFrom, a.cdnTo = from, to
	a.cdn = core.WindowUnion(a.staging.Daily[:a.days], from, to)
	return nil
}

// acc returns (creating on first touch) the accumulator for blk.
func (a *Applier) acc(blk ipv4.Block) *blockAcc {
	acc := a.accs[blk]
	if acc == nil {
		acc = &blockAcc{e: join(a.world.BaseRouting, a.world, a.tags, blk)}
		a.accs[blk] = acc
	}
	return acc
}

// touch marks acc dirty for the next publish.
func (a *Applier) touch(blk ipv4.Block, acc *blockAcc) {
	if !acc.dirty {
		acc.dirty = true
		a.dirty = append(a.dirty, blk)
	}
}

// Snapshot publishes the current state as an immutable epoch-stamped
// Index. It requires at least one applied day (an index over an empty
// daily window is meaningless, matching Build). Every call bumps the
// epoch, even if nothing changed since the last publish.
func (a *Applier) Snapshot() (*Index, error) {
	if a.world == nil {
		return nil, fmt.Errorf("query: snapshot before meta event")
	}
	n := a.days
	if n == 0 {
		return nil, fmt.Errorf("query: snapshot with no applied days")
	}
	w := (n + 63) / 64
	x := &Index{
		epoch:   a.epoch + 1,
		meta:    metaInfo{seed: a.world.Seed, numASes: len(a.world.ASes)},
		obsMeta: a.meta,
		days:    n,
		words:   w,
		routing: a.world.BaseRouting,
		world:   a.world,
		tags:    a.tags,
		icmp:    a.icmpUnion,
		servers: orEmpty(a.servers),
		routers: orEmpty(a.routers),
	}
	x.keys = a.dailyUnion.Blocks()

	// Clean blocks reuse the previous snapshot's compiled record (the
	// packed timelines are immutable once published) unless the window
	// crossed a 64-day word boundary, which changes every timeline's
	// layout. prevAt aligns the old and new sorted key arrays.
	var prevAt []int
	if a.prev != nil && a.prev.words == w {
		prevAt = make([]int, len(x.keys))
		j := 0
		for i, blk := range x.keys {
			for j < len(a.prev.keys) && a.prev.keys[j] < blk {
				j++
			}
			if j < len(a.prev.keys) && a.prev.keys[j] == blk {
				prevAt[i] = j
			} else {
				prevAt[i] = -1
			}
		}
	}
	x.blocks = par.Map(len(x.keys), a.opts.Workers, func(i int) blockData {
		blk := x.keys[i]
		acc := a.accs[blk]
		if prevAt != nil && prevAt[i] >= 0 && !acc.dirty {
			bd := a.prev.blocks[prevAt[i]]
			// Only the STU denominator depends on the window length.
			bd.view.STU = float64(acc.addrDays) / float64(n*256)
			return bd
		}
		return acc.compile(blk, n, w, a.fullWords)
	})

	// Per-epoch recomputation: the AS fold (sequential in block order,
	// like Build's) and the dataset-level summary run concurrently —
	// both scale with the number of blocks, not with the window length.
	var g par.Group
	g.Go(func() error { x.buildAS(); return nil })
	g.Go(func() error { a.assembleSummary(x, n); return nil })
	g.Wait() //nolint:errcheck // neither task fails

	for _, blk := range a.dirty {
		a.accs[blk].dirty = false
	}
	a.dirty = a.dirty[:0]
	a.prev = x
	a.epoch = x.epoch
	return x, nil
}

// compile materializes one block's immutable record from its
// accumulator, mirroring Build's compileBlock field for field.
func (acc *blockAcc) compile(blk ipv4.Block, n, w, fullWords int) blockData {
	bd := blockData{blk: blk}
	if w == fullWords {
		bd.timelines = slices.Clone(acc.timelines)
	} else {
		bd.timelines = make([]uint64, 256*w)
		for h := 0; h < 256; h++ {
			copy(bd.timelines[h*w:(h+1)*w], acc.timelines[h*fullWords:h*fullWords+w])
		}
	}
	v := &bd.view
	v.Block = blk.String()
	v.FD = acc.union.Count()
	v.STU = float64(acc.addrDays) / float64(n*256)
	v.ActiveDays = acc.activeDays
	if acc.traffic != nil {
		bd.traffic = acc.traffic
		v.TotalHits = acc.totalHits
	}
	if acc.ua != nil {
		v.UASamples = acc.ua.Samples
		v.UAUnique = acc.ua.Unique()
	}
	v.AS = acc.e.as
	v.Prefix = acc.e.prefix
	v.Country = acc.e.country
	v.RIR = acc.e.rir
	v.Pattern = acc.e.pattern
	v.RDNS = acc.e.rdns
	return bd
}

// assembleSummary fills x.partial and x.summary from the running
// accumulators — identical to buildSummary over the equivalent
// truncated dataset, without revisiting any applied day. Publishing
// through the same SummaryPartial.Finalize path as Build is what lets
// cluster shards mix batch-built and applier-built indexes freely.
func (a *Applier) assembleSummary(x *Index, n int) {
	run := a.meta.Run
	p := &SummaryPartial{
		Seed:         x.meta.seed,
		NumASes:      x.meta.numASes,
		WorldBlocks:  a.world.NumBlocks(),
		Days:         run.Days,
		DailyStart:   run.DailyStart,
		DailyLen:     n,
		Weeks:        a.weeks,
		ActiveBlocks: len(x.keys),
		DailyUnion:   a.dailyUnion.Len(),
		YearUnion:    a.wSum.union.Len(),
		ICMPUnion:    a.icmpUnion.Len(),
		Daily:        a.dSum.partial(),
		Weekly:       a.wSum.partial(),
	}

	cdn := a.cdn
	if a.scans == 0 {
		cdn = a.dailyUnion // no campaign yet: the whole-window fallback
	}
	p.CDNMonth = cdn.Len()
	p.CDNBoth = cdn.IntersectCount(a.icmpUnion)

	p.DayLens = make([]int, n)
	for i, s := range a.staging.Daily[:n] {
		p.DayLens[i] = s.Len()
	}
	p.Ups = append([]int(nil), a.ups...)
	p.Downs = append([]int(nil), a.downs...)

	if a.weeks > 0 {
		base := a.staging.Weekly[0]
		p.WeekBase = base.Len()
		p.WeekLastAppear = a.staging.Weekly[a.weeks-1].DiffCount(base)
	}

	// Same fold set as Build's: exactly the blocks whose stats events
	// carried a UA payload, in ascending order.
	p.UASamples, p.UAPrecision, p.UARegisters = foldUA(a.uaBlocks(), func(blk ipv4.Block) *obs.UAStat {
		return a.accs[blk].ua
	})

	x.partial = p
	x.summary = p.Finalize()
}

// uaBlocks returns, ascending, the blocks whose stats events carried a
// UA payload (stats-only blocks included).
func (a *Applier) uaBlocks() []ipv4.Block {
	var blocks []ipv4.Block
	for blk, acc := range a.accs {
		if acc.ua != nil {
			blocks = append(blocks, blk)
		}
	}
	slices.Sort(blocks)
	return blocks
}
