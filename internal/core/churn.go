package core

import (
	"sort"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
	"ipscope/internal/par"
	"ipscope/internal/stats"
)

// Events returns the up events (addresses in next but not prev) and
// down events (addresses in prev but not next) between two snapshots,
// per the definition in Section 4.1. It is the set definition that
// WalkTransitions counts without building either set.
func Events(prev, next *ipv4.Set) (up, down *ipv4.Set) {
	return next.Diff(prev), prev.Diff(next)
}

// ChurnPoint is the churn between one pair of consecutive snapshots.
type ChurnPoint struct {
	Up, Down int // event counts
	// UpPct is 100 × |next \ prev| / |next|; DownPct is
	// 100 × |prev \ next| / |prev| (the paper's Figure 4b metric).
	UpPct, DownPct float64
}

// ChurnSeries computes the churn between every consecutive snapshot
// pair. The pairwise diff counts run across a worker pool; results are
// ordered by transition index, independent of scheduling.
func ChurnSeries(snaps []*ipv4.Set) []ChurnPoint {
	if len(snaps) < 2 {
		return nil
	}
	n := len(snaps) - 1
	ups := ipv4.DiffCounts(snaps[1:], snaps[:n], 0)
	downs := ipv4.DiffCounts(snaps[:n], snaps[1:], 0)
	out := make([]ChurnPoint, n)
	for i := range out {
		out[i] = NewChurnPoint(ups[i], downs[i], snaps[i].Len(), snaps[i+1].Len())
	}
	return out
}

// NewChurnPoint is the churn of one transition with up and down events
// between snapshots of prevLen and nextLen addresses; a percentage over
// an empty snapshot is 0.
func NewChurnPoint(up, down, prevLen, nextLen int) ChurnPoint {
	return ChurnPoint{Up: up, Down: down, UpPct: pct(up, nextLen), DownPct: pct(down, prevLen)}
}

// pct is 100 × n / of, or 0 when of is 0.
func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// WindowChurn summarizes churn percentages for non-overlapping windows
// of the given size over daily snapshots: the min/median/max across
// snapshot transitions (one point of Figure 4b).
type WindowChurn struct {
	WindowDays int
	Up, Down   stats.Summary
}

// ChurnByWindow computes WindowChurn for each window size.
func ChurnByWindow(daily []*ipv4.Set, sizes []int) []WindowChurn {
	out := make([]WindowChurn, 0, len(sizes))
	for _, size := range sizes {
		out = append(out, SummarizeChurn(size, ChurnSeries(Windows(daily, size))))
	}
	return out
}

// SummarizeChurn is the WindowChurn of one window size's churn series.
func SummarizeChurn(size int, series []ChurnPoint) WindowChurn {
	var ups, downs []float64
	for _, p := range series {
		ups = append(ups, p.UpPct)
		downs = append(downs, p.DownPct)
	}
	return WindowChurn{WindowDays: size, Up: stats.Summarize(ups), Down: stats.Summarize(downs)}
}

// AppearDisappear compares one snapshot against a fixed baseline
// (Figure 4c): Appear counts addresses active now but not in the
// baseline; Disappear counts baseline addresses inactive now.
type AppearDisappear struct {
	Appear, Disappear int
}

// VersusBaseline computes AppearDisappear for every snapshot against
// snaps[0].
func VersusBaseline(snaps []*ipv4.Set) []AppearDisappear {
	if len(snaps) == 0 {
		return nil
	}
	base := snaps[0]
	return par.Map(len(snaps), 0, func(i int) AppearDisappear {
		return AppearDisappear{
			Appear:    snaps[i].DiffCount(base),
			Disappear: base.DiffCount(snaps[i]),
		}
	})
}

// EventMask returns the paper's event-size tag for one up/down event at
// addr (Section 4.2): the smallest prefix mask m (counted in bits, so a
// smaller m covers more addresses) such that every address in addr/m
// either had an event or showed no activity in both snapshots.
//
// For up events the violator set is exactly the previous window's
// active set (any previously-active address disqualifies the range);
// for down events it is the next window's active set. Expansion stops
// at floor bits (use 8 to match the paper's ">= /16" catch-all bin,
// which any mask <= 16 falls into).
func EventMask(addr ipv4.Addr, violators *ipv4.Set, floor int) int {
	if floor < 0 {
		floor = 0
	}
	mask := 32
	for mask > floor {
		// Expanding from mask to mask-1 adds the sibling range of
		// addr/mask. The expansion is allowed only if that sibling
		// range contains no violator.
		parent, _ := ipv4.NewPrefix(addr, mask-1)
		sibFirst := parent.First()
		cur, _ := ipv4.NewPrefix(addr, mask)
		if cur.First() == parent.First() {
			// addr is in the low half; sibling is the high half.
			sibFirst = ipv4.Addr(uint32(parent.First()) + uint32(cur.NumAddrs()))
		}
		sib, _ := ipv4.NewPrefix(sibFirst, mask)
		if prefixIntersects(violators, sib) {
			break
		}
		mask--
	}
	return mask
}

// prefixIntersects reports whether any member of s lies within p.
func prefixIntersects(s *ipv4.Set, p ipv4.Prefix) bool {
	if p.Bits() >= 24 {
		bm := s.BlockBitmap(p.FirstBlock())
		if bm == nil {
			return false
		}
		if p.Bits() == 24 {
			return !bm.IsEmpty()
		}
		lo := p.First().Host()
		hi := p.Last().Host()
		return bm.CountRange(lo, hi) > 0
	}
	found := false
	p.Blocks(func(b ipv4.Block) {
		if found {
			return
		}
		if bm := s.BlockBitmap(b); bm != nil && !bm.IsEmpty() {
			found = true
		}
	})
	return found
}

// EventSizeBin groups a mask into the paper's Figure 5b bins.
// Bins: >=/16 (mask <= 16), /17-/20, /21-/24, /25-/28, /29-/32.
func EventSizeBin(mask int) int {
	switch {
	case mask <= 16:
		return 0
	case mask <= 20:
		return 1
	case mask <= 24:
		return 2
	case mask <= 28:
		return 3
	default:
		return 4
	}
}

// EventSizeBinLabels are display labels for EventSizeBin indices.
var EventSizeBinLabels = [5]string{">=/16", "/20", "/24", "/28", "/32"}

// eventFloor is the EventMask floor of Figure 5b: every mask at or below
// /16 falls in its ">=/16" bin, so expanding past /8 changes no bin.
const eventFloor = 8

// ASTally is one AS's share of a transition: its up events and its
// addresses active in the next window.
type ASTally struct{ Up, Active int }

// Transition is one window transition prev → next, tallied for the
// three panels of Figure 5 (Section 4.2).
type Transition struct {
	PerAS map[bgp.ASN]ASTally // 5a
	// SizeBins counts the up events per EventSizeBin of their
	// EventMask (5b).
	SizeBins [5]int
	// Up = |next \ prev|, Down = |prev \ next| and Steady =
	// |prev ∩ next|; each *Hit counts those of them in /24s that a BGP
	// change touched during either window (5c).
	Up, Down, Steady          int
	UpHit, DownHit, SteadyHit int
}

// TransitionSeries is Figure 5 for one window size: every transition
// of the window series.
type TransitionSeries struct {
	WindowDays int
	Steps      []Transition
	// ASActive is each AS's address count over every next window
	// together (the union of wins[1:]): 5a's minActive filter.
	ASActive map[bgp.ASN]int
}

// WalkTransitions tallies every transition of wins, consecutive windows
// of size days whose first starts at day startDay of log (nil: no BGP
// change). Each transition walks next's blocks once for its up events
// (next &^ prev) and prev's blocks once for its down events
// (prev &^ next) and steady addresses (prev & next). Transitions fan
// out across a worker pool and land in transition order, so every
// panel is worker-count independent.
func WalkTransitions(wins []*ipv4.Set, size int, asOf func(ipv4.Block) bgp.ASN, log *bgp.ChangeLog, startDay int) TransitionSeries {
	s := TransitionSeries{WindowDays: size, ASActive: make(map[bgp.ASN]int)}
	if len(wins) < 2 {
		return s
	}
	s.Steps = par.Map(len(wins)-1, 0, func(i int) Transition {
		prev, next := wins[i], wins[i+1]
		// A BGP change during either window goes with the transition.
		var touched map[ipv4.Block]bgp.ChangeKind
		if log != nil {
			touched = log.TouchedBlocks(startDay+i*size-1, startDay+(i+2)*size-1)
		}
		t := Transition{PerAS: make(map[bgp.ASN]ASTally)}
		next.ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
			up := *bm
			if pbm := prev.BlockBitmap(blk); pbm != nil {
				up.AndNotWith(pbm)
			}
			n := up.Count()
			as := asOf(blk)
			a := t.PerAS[as]
			a.Up += n
			a.Active += bm.Count()
			t.PerAS[as] = a
			t.Up += n
			if _, ok := touched[blk]; ok {
				t.UpHit += n
			}
			up.ForEach(func(h byte) {
				t.SizeBins[EventSizeBin(EventMask(blk.Addr(h), prev, eventFloor))]++
			})
		})
		prev.ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
			down, steady := bm.Count(), 0
			if nbm := next.BlockBitmap(blk); nbm != nil {
				down, steady = bm.AndNotCount(nbm), bm.IntersectCount(nbm)
			}
			t.Down += down
			t.Steady += steady
			if _, ok := touched[blk]; ok {
				t.DownHit += down
				t.SteadyHit += steady
			}
		})
		return t
	})
	ipv4.UnionAll(wins[1:], 0).ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
		s.ASActive[asOf(blk)] += bm.Count()
	})
	return s
}

// PerASChurn is Figure 5a: for each AS with at least minActive
// addresses over the period, the median over transitions of the
// percentage of its next-window addresses with an up event.
func (s TransitionSeries) PerASChurn(minActive int) map[bgp.ASN]float64 {
	pcts := make(map[bgp.ASN][]float64)
	for _, t := range s.Steps {
		for as, a := range t.PerAS {
			if a.Active > 0 {
				pcts[as] = append(pcts[as], pct(a.Up, a.Active))
			}
		}
	}
	out := make(map[bgp.ASN]float64)
	for as, p := range pcts {
		if s.ASActive[as] >= minActive {
			out[as] = stats.Median(p)
		}
	}
	return out
}

// EventSizes is the fraction of t's up events per Figure 5b bin (all
// zero without up events).
func (t *Transition) EventSizes() [5]float64 {
	var out [5]float64
	if t.Up == 0 {
		return out
	}
	for i, c := range t.SizeBins {
		out[i] = float64(c) / float64(t.Up)
	}
	return out
}

// EventSizes is Figure 5b over the series: each transition's
// EventSizes weighted by its up events.
func (s TransitionSeries) EventSizes() [5]float64 {
	var agg [5]float64
	var weight float64
	for i := range s.Steps {
		t := &s.Steps[i]
		d := t.EventSizes()
		for j := range agg {
			agg[j] += d[j] * float64(t.Up)
		}
		weight += float64(t.Up)
	}
	if weight > 0 {
		for j := range agg {
			agg[j] /= weight
		}
	}
	return agg
}

// BGPCorrelation is the Figure 5c measurement for one window size:
// the percentage of up events, down events, and steadily-active
// addresses whose /24 block saw a BGP change during the transition.
type BGPCorrelation struct {
	WindowDays                   int
	UpPct, DownPct, SteadyPct    float64
	UpEvents, DownEvents, Steady int
}

// CorrelateBGP is Figure 5c over the series.
func (s TransitionSeries) CorrelateBGP() BGPCorrelation {
	out := BGPCorrelation{WindowDays: s.WindowDays}
	var upHit, downHit, steadyHit int
	for _, t := range s.Steps {
		out.UpEvents += t.Up
		out.DownEvents += t.Down
		out.Steady += t.Steady
		upHit += t.UpHit
		downHit += t.DownHit
		steadyHit += t.SteadyHit
	}
	out.UpPct, out.DownPct, out.SteadyPct = pct(upHit, out.UpEvents), pct(downHit, out.DownEvents), pct(steadyHit, out.Steady)
	return out
}

// LongTermChurn is the Table 2 comparison of two distant periods.
type LongTermChurn struct {
	Appear, Disappear int
	// Full24Pct is the share of appear/disappear addresses whose entire
	// containing /24 appeared or disappeared.
	AppearFull24Pct, DisappearFull24Pct float64
	// BGP breakdown (percent of event addresses whose block saw no
	// change / an origin change / an announce-or-withdraw).
	AppearBGP, DisappearBGP BGPBreakdown
}

// BGPBreakdown partitions event addresses by accompanying BGP activity.
type BGPBreakdown struct {
	NoChangePct, OriginChangePct, AnnounceWithdrawPct float64
}

// CompareLongTerm reproduces Table 2: early and late are unions of
// distant periods (e.g. Jan/Feb vs Nov/Dec); the change log is
// consulted over (dayFrom, dayTo].
func CompareLongTerm(early, late *ipv4.Set, log *bgp.ChangeLog, dayFrom, dayTo int) LongTermChurn {
	appear := late.Diff(early)
	disappear := early.Diff(late)
	out := LongTermChurn{Appear: appear.Len(), Disappear: disappear.Len()}

	var touched map[ipv4.Block]bgp.ChangeKind
	if log != nil {
		touched = log.TouchedBlocks(dayFrom, dayTo)
	}
	classify := func(events, otherPeriod *ipv4.Set) (full24 float64, bd BGPBreakdown) {
		var full, noChg, origin, annWdr int
		events.ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
			n := bm.Count()
			// The whole /24 appeared/disappeared if the other period
			// had no activity in this block at all.
			if otherPeriod.BlockCount(blk) == 0 {
				full += n
			}
			if k, ok := touched[blk]; ok {
				if k == bgp.OriginChange {
					origin += n
				} else {
					annWdr += n
				}
			} else {
				noChg += n
			}
		})
		n := events.Len()
		return pct(full, n), BGPBreakdown{pct(noChg, n), pct(origin, n), pct(annWdr, n)}
	}
	out.AppearFull24Pct, out.AppearBGP = classify(appear, early)
	out.DisappearFull24Pct, out.DisappearBGP = classify(disappear, late)
	return out
}

// ASCount is one AS's number of addresses in a set.
type ASCount struct {
	AS    bgp.ASN
	Count int
}

// TopContributors returns the k ASes contributing the most addresses to
// the given event set (Section 4.3's "top 10 ASes" analysis).
func TopContributors(events *ipv4.Set, asOf func(ipv4.Block) bgp.ASN, k int) []ASCount {
	counts := make(map[bgp.ASN]int)
	events.ForEachBlock(func(blk ipv4.Block, bm *ipv4.Bitmap256) {
		counts[asOf(blk)] += bm.Count()
	})
	xs := make([]ASCount, 0, len(counts))
	for as, n := range counts {
		xs = append(xs, ASCount{as, n})
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Count != xs[j].Count {
			return xs[i].Count > xs[j].Count
		}
		return xs[i].AS < xs[j].AS
	})
	return xs[:min(k, len(xs))]
}
