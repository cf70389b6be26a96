package query

import (
	"fmt"
	"slices"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/par"
	"ipscope/internal/rdns"
	"ipscope/internal/synthnet"
)

// Applier is the one index compiler: it consumes a live observation
// event stream (it implements obs.Sink, so it attaches directly to
// obs.StreamDecode or a sim.RunTo tee) and can publish an
// epoch-stamped immutable *Index at any point; Build loads one from a
// whole dataset in a single block-parallel pass (fill) and publishes
// through the same Snapshot. The hard invariant, enforced by
// TestApplierEquivalence, is that the two ways in reach the same state:
// after applying days 1..N the published snapshot is view-identical —
// byte for byte across every lookup — to Build over the dataset
// truncated to those N days (obs.Data.TruncateLive), for any worker
// count on either side.
//
// Incrementality is what makes a publish far cheaper than a rebuild
// (BenchmarkIndexApplyDay). Per-block accumulators absorb each day in
// O(active blocks): a day-tail append and a few bitmap counts, with each
// timeline word written once, by the day that seals it. Dataset-level
// unions and churn/summary counters advance per event. Snapshot copies
// no timeline — every snapshot shares the accumulators' arrays and reads
// only the words no later day can touch (the sharing rule, timeline.go)
// — and recompiles only the records of blocks whose accumulators changed
// since the previous epoch.
// Summary, recapture and churn assembly are recomputed per epoch (fanned
// out across internal/par), never on the serving request path.
//
// Stream contract: events must arrive in emission order — MetaEvent
// first, then day/week/ICMP events with strictly sequential indices
// inside the run's geometry (the order sim.RunTo and the codec's
// canonical replay both produce). An Applier is not safe for concurrent
// use; published snapshots are.
//
// An applied day lives in the per-block timelines and nowhere else.
// What the Applier holds beside them is what the timelines cannot give
// back, or give back only by a scan of every block per event.
type Applier struct {
	opts Options

	// Set once by bind: at the MetaEvent, or by ResumeApplier.
	meta      obs.Meta
	world     *synthnet.World
	tags      *rdns.TagIndex
	asBase    []ASPartial // asTable: every snapshot's AS fold starts from it
	asCols    []int32     // Table 1's AS column of each world block (asCol)
	fullWords int         // timeline words for the full daily window
	// window is the number of days the applier can hold: the run's daily
	// window, or the days fill loaded, since Build applies none after it.
	// Once days reaches it, every timeline word is sealed.
	window int

	days, weeks, scans int

	accs map[ipv4.Block]*blockAcc
	// keys is accs' blocks with at least one active day, ascending — the
	// published key array. Snapshots share it, so a day that brings new
	// blocks replaces it instead of growing it in place.
	keys []ipv4.Block

	// lastDay is the newest applied day's payload (empty before the
	// first), which the next day's churn transition diffs against; dayLens
	// the per-day cardinalities.
	// Either would otherwise cost a pass over every timeline per event.
	lastDay *ipv4.Set
	dayLens []int

	// Weekly snapshots are not in the daily window's timelines at all:
	// the first and the newest payload (the long-term churn pair) and the
	// running union are kept; the ones between are never read again.
	// weekLastAppear is |weekLast \ week0|, counted when a week arrives
	// rather than at every publish.
	week0, weekLast *ipv4.Set
	weekLastAppear  int
	yearUnion       *ipv4.Set

	icmpUnion *ipv4.Set // immutable: replaced (not mutated) per scan
	servers   *ipv4.Set // end-of-stream surfaces (immutable payloads)
	routers   *ipv4.Set

	// Table 1's two rows, advanced per snapshot: the per-snapshot AS sets
	// depend on which blocks were active together on a day, which the
	// timelines hold but only a full scan recovers. dSum's union sizes are
	// the only copy of the daily union's: UnionIPs advances by each
	// block's union-count delta, UnionBlocks is len(keys).
	dSum, wSum SeriesPartial
	asRow      *asMatrix // one reused row: the AS set of the day or week being applied

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
	prev  *Index // last published snapshot: what a checkpoint serializes
}

// blockAcc is one /24's mutable accumulator: what compile needs of the
// block's days and stats. On a live node each day advances its counters
// (addDay) and appends to its day tail, a sealing day writes the tail's
// word into its timelines (seal), and setStats records the block's stats
// event. Under Build's fill, fillDays and setStats load it in one pass
// per block.
type blockAcc struct {
	name string // the block's rendered form, once: every compiled view carries it
	// timelines is 256 packed day-bitsets at the full window width, each
	// word written when it seals; tail holds the days of the newest word
	// the block was active in. Every snapshot shares both (the sharing
	// rule, timeline.go).
	timelines  []uint64
	tail       dayTail
	union      ipv4.Bitmap256
	activeDays int
	addrDays   int
	traffic    *blockTraffic
	totalHits  float64
	// ua retains the block's stats event payload (immutable per the
	// Sink contract): the view needs samples and the unique estimate,
	// and the summary partial needs the sketch itself for the
	// cross-shard HLL union.
	ua *obs.UAStat
	e  enrichment
	// view is the block's view as last compiled for a snapshot; a publish
	// reuses it unless the block is dirty.
	view  BlockView
	asCol int32 // the block's column in Table 1's AS sets (Applier.asCol)
	dirty bool
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

// SetEpoch moves the epoch counter to e without publishing: the next
// Snapshot is stamped e+1. It is for a resume that replays the events of
// several published epochs and publishes once, at the number the process
// it replaces had reached.
func (a *Applier) SetEpoch(e uint64) { a.epoch = e }

// Applied returns how many indexed events of each kind have been
// applied: the leading frames a decoder of the same stream may skip.
func (a *Applier) Applied() obs.SkipCounts {
	return obs.SkipCounts{Days: a.days, Weeks: a.weeks, Scans: a.scans}
}

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
		if n := a.meta.Run.NumWeeks(); ev.Index >= n {
			return fmt.Errorf("query: week event %d outside run of %d weeks", ev.Index, n)
		}
		if a.weeks == 0 {
			a.week0 = ev.Active
		}
		a.weekLast = ev.Active
		a.weekLastAppear = ev.Active.DiffCount(a.week0)
		a.weeks++
		a.yearUnion.UnionWith(ev.Active)
		a.setRow(a.asRow, 0, ev.Active)
		a.wSum.observe(ev.Active, a.asRow.take())
		a.wSum.UnionIPs, a.wSum.UnionBlocks = a.yearUnion.Len(), a.yearUnion.NumBlocks()
	case obs.ICMPScanEvent:
		return a.applyScan(ev)
	case obs.BlockStatsEvent:
		a.acc(ev.Block).setStats(ev.Traffic, ev.UA)
	case obs.SurfacesEvent:
		a.servers, a.routers = ev.Servers, ev.Routers
	}
	// Ground truth (routing, restructures) has no index impact: the index
	// joins against the world's base routing table.
	return nil
}

func (a *Applier) applyMeta(ev obs.MetaEvent) error {
	if a.world != nil {
		return fmt.Errorf("query: applier received a second meta event")
	}
	world := synthnet.Generate(ev.Meta.World)
	a.bind(ev.Meta, world, classifyWorld(world, a.opts.Workers, a.opts.Keep))
	a.accs = make(map[ipv4.Block]*blockAcc)
	a.lastDay = ipv4.NewSet()
	a.yearUnion = ipv4.NewSet()
	a.icmpUnion = ipv4.NewSet()
	return nil
}

// bind attaches a to the world of meta's run, once: its rDNS tags, the
// AS table, each world block's AS column, the one-row AS matrix the live
// events reuse, and the window geometry.
func (a *Applier) bind(meta obs.Meta, world *synthnet.World, tags *rdns.TagIndex) {
	a.meta, a.world, a.tags = meta, world, tags
	a.asBase = asTable(world)
	a.asCols = make([]int32, len(world.Blocks))
	for i, b := range world.Blocks {
		j, _ := searchAS(a.asBase, uint32(b.AS)) // a world block's AS is a world AS
		a.asCols[i] = int32(j)
	}
	a.asRow = a.newASMatrix(1)
	a.fullWords = (meta.Run.DailyLen + 63) / 64
	a.window = meta.Run.DailyLen
}

// asCol returns blk's column in Table 1's AS sets: the index in asBase
// of the AS world.ASOf names (not the enrichment's routing AS), or -1
// for space outside the world, whose AS 0 no set counts.
func (a *Applier) asCol(blk ipv4.Block) int32 {
	if i, ok := a.world.ByBlock[blk]; ok {
		return a.asCols[i]
	}
	return -1
}

// setRow records the ASes of s's blocks in row k of m.
func (a *Applier) setRow(m *asMatrix, k int, s *ipv4.Set) {
	s.ForEachBlock(func(blk ipv4.Block, _ *ipv4.Bitmap256) { m.set(k, a.asCol(blk)) })
}

func (a *Applier) applyDay(ev obs.DayEvent) error {
	if ev.Index != a.days {
		return fmt.Errorf("query: day event %d out of order (want %d)", ev.Index, a.days)
	}
	if ev.Index >= a.window {
		return fmt.Errorf("query: day event %d outside window of %d days", ev.Index, a.window)
	}
	day := ev.Index
	a.days++
	// One walk of the day's set: each block's counters and tail, its AS
	// in the day's row, and its up events against the previous day.
	up := 0
	var fresh []ipv4.Block // first active day today
	ev.Active.ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
		acc := a.acc(blk)
		if acc.timelines == nil {
			fresh = append(fresh, blk)
			// Fault the array's pages in now: their first write would
			// otherwise be the seal's, which would then pay every new
			// block's page faults on one day.
			acc.timelines = make([]uint64, 256*a.fullWords)
			clear(acc.timelines)
		}
		a.dSum.UnionIPs += acc.addDay(bm)
		acc.tail.push(day, bm, a.window)
		a.asRow.set(0, acc.asCol)
		if was := a.lastDay.BlockBitmap(blk); was != nil {
			up += bm.AndNotCount(was)
		} else {
			up += bm.Count()
		}
	})
	// Churn transition against the previous day, in arrival order: the
	// appended integers are the exact inputs ChurnSeries would compute.
	n := ev.Active.Len()
	if day > 0 {
		a.ups = append(a.ups, up)
		a.downs = append(a.downs, downCount(a.lastDay.Len(), n, up))
	}
	a.lastDay = ev.Active
	a.dayLens = append(a.dayLens, n)
	if len(fresh) > 0 {
		a.keys = append(slices.Clip(a.keys), fresh...)
		slices.Sort(a.keys)
	}
	// A day that closes its word seals it, once today's fresh blocks are
	// among the keys: one of them may have no other day in the word.
	if a.days%64 == 0 || a.days == a.window {
		a.seal(day / 64)
	}
	a.dSum.observe(ev.Active, a.asRow.take())
	a.dSum.UnionBlocks = len(a.keys)
	if a.cdn != nil && day >= a.cdnFrom && day < a.cdnTo {
		a.cdn.UnionWith(ev.Active)
	}
	return nil
}

func (a *Applier) applyScan(ev obs.ICMPScanEvent) error {
	if ev.Index != a.scans {
		return fmt.Errorf("query: ICMP scan event %d out of order (want %d)", ev.Index, a.scans)
	}
	cfg := a.meta.Run
	if n := len(cfg.ICMPScanDays); ev.Index >= n {
		return fmt.Errorf("query: ICMP scan event %d outside campaign of %d snapshots", ev.Index, n)
	}
	a.scans++
	// Published snapshots share the union pointer, so replace instead of
	// mutating.
	a.icmpUnion = a.icmpUnion.Union(ev.Responders)
	a.setCampaignWindow()
	return nil
}

// setCampaignWindow derives the capture–recapture month window from the
// a.scans (> 0) scans seen so far (obs.RunConfig.CampaignWindow). A new
// scan can shift it, so the window union is rebuilt from the timelines;
// applyDay advances it per day from there on.
func (a *Applier) setCampaignWindow() {
	a.cdnFrom, a.cdnTo = a.meta.Run.CampaignWindow(a.scans)
	a.cdn = a.windowUnion(a.cdnFrom, a.cdnTo)
}

// seal writes timeline word k of every block active in it, from the
// block's day tail through the transpose fillDays uses: the one write of
// the word into the shared array, made before any snapshot reads the
// word from there (the sharing rule, timeline.go). Each worker writes
// only the arrays of its own keys.
func (a *Applier) seal(k int) {
	par.ForEach(len(a.keys), a.opts.Workers, func(i int) {
		acc := a.accs[a.keys[i]]
		if acc.tail.word != k || len(acc.tail.days) == 0 {
			return
		}
		for h, hw := range acc.tail.days.words() {
			acc.timelines[h*a.fullWords+k] = hw
		}
	})
}

// openWord returns the timeline word the next day writes when a day
// before it is already applied — the word a snapshot reads from the day
// tails, not the arrays — or -1 when every applied day's word is sealed.
func (a *Applier) openWord() int {
	if a.days%64 != 0 && a.days < a.window {
		return a.days / 64
	}
	return -1
}

// windowUnion returns the addresses active on an applied day in
// [from, to): the sealed words are read off the timelines under a
// day-range mask, the open word off the day tails.
func (a *Applier) windowUnion(from, to int) *ipv4.Set {
	from, to = max(from, 0), min(to, a.days)
	open, sealed := a.openWord(), to
	if open >= 0 {
		sealed = min(to, 64*open)
	}
	mask := make([]uint64, a.fullWords)
	for d := from; d < sealed; d++ {
		mask[d/64] |= 1 << uint(d%64)
	}
	bitmaps := make([]ipv4.Bitmap256, len(a.keys))
	for i, blk := range a.keys {
		acc := a.accs[blk]
		if acc.tail.word == open {
			for d := max(from, 64*open); d < min(to, 64*open+len(acc.tail.days)); d++ {
				bitmaps[i].UnionWith(&acc.tail.days[d-64*open])
			}
		}
		tl := acc.timelines
		for h := 0; h < 256; h++ {
			for wi, m := range mask {
				if tl[h*a.fullWords+wi]&m != 0 {
					bitmaps[i].Set(byte(h))
					break
				}
			}
		}
	}
	return ipv4.NewSetOwning(a.keys, bitmaps)
}

// acc returns (creating on first touch) the accumulator for blk.
func (a *Applier) acc(blk ipv4.Block) *blockAcc {
	acc := a.accs[blk]
	if acc == nil {
		acc = a.newAcc(blk)
		a.accs[blk] = acc
	}
	return acc
}

// newAcc returns an empty accumulator for blk, outside the map (safe to
// call from concurrent workers).
func (a *Applier) newAcc(blk ipv4.Block) *blockAcc {
	return &blockAcc{name: blk.String(), e: join(a.world.BaseRouting, a.world, a.tags, blk), asCol: a.asCol(blk)}
}

// addDay folds the block's activity on one day of the window into the
// accumulator's counters and returns how many addresses it added to the
// union. The day's hosts themselves go to the block's day tail and reach
// the timelines when the day's word seals (applyDay, seal).
func (acc *blockAcc) addDay(bm *ipv4.Bitmap256) int {
	acc.dirty = true
	acc.activeDays++
	acc.addrDays += bm.Count()
	before := acc.union.Count()
	acc.union.UnionWith(bm)
	return acc.union.Count() - before
}

// setStats records the block's end-of-stream aggregates; a nil payload
// leaves what the accumulator already holds.
func (acc *blockAcc) setStats(traffic *obs.BlockTraffic, ua *obs.UAStat) {
	acc.dirty = true
	if traffic != nil {
		t := &blockTraffic{}
		total := 0.0
		for h := 0; h < 256; h++ {
			t.daysActive[h] = traffic.DaysActive[h]
			t.hits[h] = traffic.Hits[h]
			total += traffic.Hits[h]
		}
		acc.traffic = t
		acc.totalHits = total
	}
	if ua != nil {
		acc.ua = ua
	}
}

// Snapshot publishes the current state as an immutable epoch-stamped
// Index. It requires at least one applied day (an index over an empty
// daily window is meaningless). Every call bumps the epoch, even if
// nothing changed since the last publish.
func (a *Applier) Snapshot() (*Index, error) {
	if a.world == nil {
		return nil, fmt.Errorf("query: snapshot before meta event")
	}
	n := a.days
	if n == 0 {
		return nil, fmt.Errorf("query: snapshot with no applied days")
	}
	open := a.openWord()
	x := &Index{
		epoch:   a.epoch + 1,
		meta:    metaInfo{seed: a.world.Seed, numASes: len(a.world.ASes)},
		obsMeta: a.meta,
		days:    n,
		words:   (n + 63) / 64,
		stride:  a.fullWords,
		open:    open,
		routing: a.world.BaseRouting,
		world:   a.world,
		tags:    a.tags,
		icmp:    a.icmpUnion,
		servers: orEmpty(a.servers),
		routers: orEmpty(a.routers),
		keys:    a.keys,
	}

	// Every record shares its block's timelines and, when the tail holds
	// the open word, the tail's days as they stand. A clean block reuses
	// its last compiled view. Each worker writes only the accumulators of
	// its own keys.
	x.blocks = par.Map(len(x.keys), a.opts.Workers, func(i int) blockData {
		acc := a.accs[x.keys[i]]
		if acc.dirty {
			acc.view, acc.dirty = acc.compile(), false
		}
		bd := blockData{view: acc.view, blk: x.keys[i], timelines: acc.timelines, traffic: acc.traffic}
		if acc.tail.word == open {
			bd.tail = acc.tail.days
		}
		// The one field that depends on the window length alone.
		bd.view.STU = float64(acc.addrDays) / float64(n*256)
		return bd
	})

	// Per-epoch recomputation: the AS fold (sequential in block order) and
	// the dataset-level summary run concurrently — both scale with the
	// number of blocks, not with the window length.
	var g par.Group
	g.Go(func() error { x.ases = foldAS(a.asBase, x.blocks); return nil })
	g.Go(func() error { a.assembleSummary(x, n); return nil })
	g.Wait() //nolint:errcheck // neither task fails

	a.prev = x
	a.epoch = x.epoch
	return x, nil
}

// compile renders one block's view from its accumulator, under Build and
// a live publish alike (Snapshot sets STU, whose denominator moves every
// day).
func (acc *blockAcc) compile() BlockView {
	v := BlockView{Block: acc.name, FD: acc.union.Count(), ActiveDays: acc.activeDays}
	if acc.traffic != nil {
		v.TotalHits = acc.totalHits
	}
	if acc.ua != nil {
		v.UASamples = acc.ua.Samples
		v.UAUnique = acc.ua.Unique()
	}
	acc.e.enrich(&v)
	return v
}

// assembleSummary fills x.partial and x.summary from the running
// accumulators, without revisiting any applied day. It goes through the
// mergeable partial (partial.go): the partial holds exact integer
// counters, AS sets and the union UA sketch, and Finalize derives every
// float with the expressions core.Summarize, core.ChurnSeries and
// core.Recapture use — so the numbers stay field-identical to the batch
// report's (the serve tests cross-check them) while remaining exactly
// mergeable across cluster shards.
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
		DailyUnion:   a.dSum.UnionIPs,
		YearUnion:    a.yearUnion.Len(),
		ICMPUnion:    a.icmpUnion.Len(),
		Daily:        a.dSum.clone(),
		Weekly:       a.wSum.clone(),
		DayLens:      slices.Clone(a.dayLens),
		Ups:          slices.Clone(a.ups),
		Downs:        slices.Clone(a.downs),
	}

	// No campaign yet: the whole-window fallback, and no responder to
	// recapture.
	p.CDNMonth = a.dSum.UnionIPs
	if a.scans > 0 {
		p.CDNMonth = a.cdn.Len()
		p.CDNBoth = a.cdn.IntersectCount(a.icmpUnion)
	}

	if a.weeks > 0 {
		p.WeekBase, p.WeekLastAppear = a.week0.Len(), a.weekLastAppear
	}

	// The fold set is exactly the blocks whose stats carried a UA payload,
	// in ascending order.
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
