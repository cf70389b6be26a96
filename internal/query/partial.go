package query

import (
	"fmt"
	"sort"

	"ipscope/internal/bgp"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/useragent"
)

// This file defines the mergeable ("partial") forms of the index's
// aggregate views — the contract behind horizontal sharding. A shard
// built over one contiguous slice of the /24 block space computes the
// same aggregates as a single node, but only over its slice; the
// router (internal/cluster) gathers the partials from every shard and
// folds them back together. The hard requirement, enforced by
// TestClusterEquivalence, is that the fold is EXACT: finalizing merged
// partials must be byte-identical to the single-node answer, for any
// shard count. Three disciplines make that possible:
//
//   - counts stay integers until Finalize. A block-range partition
//     splits every address set into disjoint slices, so cardinalities,
//     diff counts and intersection counts sum exactly; every derived
//     float (churn percentages, recapture estimates, averages) is
//     computed from the merged integers with the same expression the
//     single-node path uses.
//
//   - order-sensitive float folds ship their operands. Per-AS and
//     per-prefix total-hits accumulate per-/24 float values in
//     ascending block order; a partial carries the per-block values
//     (still in block order) and the merge concatenates the shards'
//     ascending ranges and refolds left to right — the exact single-node
//     addition sequence, not a shard-grouped regrouping of it.
//
//   - distinct counts that cross shard boundaries merge as sets. An AS
//     can span shards, so per-snapshot AS activity travels as sorted
//     ASN lists (united, then counted), and unique-UA estimation
//     travels as HLL registers, whose register-wise-max union is
//     commutative and associative by construction (see
//     internal/useragent's merge algebra tests).

// SeriesPartial is the mergeable form of one core.DatasetSummary
// (the daily or weekly row of Table 1), restricted to a shard's slice
// of the block space. Union and per-snapshot cardinalities are exact
// integers; per-snapshot AS activity is carried as sorted ASN sets
// because one AS's blocks may be split across shards.
type SeriesPartial struct {
	Snapshots   int `json:"snapshots"`
	UnionIPs    int `json:"unionIPs"`
	UnionBlocks int `json:"unionBlocks"`
	IPSum       int `json:"ipSum"`
	BlockSum    int `json:"blockSum"`
	// SnapASes[i] is the sorted set of origin ASNs with activity in
	// snapshot i within this partial's slice (0 = unrouted, excluded,
	// matching core.Summarize).
	SnapASes [][]uint32 `json:"snapASes"`
}

// observe folds snapshot s, whose origin ASes are ases (an asMatrix row),
// into the series in arrival order. The caller owns the cross-snapshot
// union and advances its two sizes.
func (p *SeriesPartial) observe(s *ipv4.Set, ases []uint32) {
	p.Snapshots++
	p.IPSum += s.Len()
	p.BlockSum += s.NumBlocks()
	p.SnapASes = append(p.SnapASes, ases)
}

// observeAll observes every one of sets in order, ases[i] being set i's
// origin ASes.
func (p *SeriesPartial) observeAll(sets []*ipv4.Set, ases [][]uint32) {
	for i, s := range sets {
		p.observe(s, ases[i])
	}
}

func (p *SeriesPartial) merge(o *SeriesPartial) error {
	if p.Snapshots != o.Snapshots {
		return fmt.Errorf("query: series partials disagree on snapshot count (%d vs %d)", p.Snapshots, o.Snapshots)
	}
	p.UnionIPs += o.UnionIPs
	p.UnionBlocks += o.UnionBlocks
	p.IPSum += o.IPSum
	p.BlockSum += o.BlockSum
	for i := range p.SnapASes {
		p.SnapASes[i] = unionSortedU32(p.SnapASes[i], o.SnapASes[i])
	}
	return nil
}

// finalize derives the DatasetSummary, field for field the computation
// core.Summarize performs over the equivalent snapshot series.
func (p *SeriesPartial) finalize() core.DatasetSummary {
	out := core.DatasetSummary{Snapshots: p.Snapshots}
	if p.Snapshots == 0 {
		return out
	}
	// The AS union, merged set by set through two buffers in turn.
	var asUnion, next []uint32
	asSum := 0
	for _, snap := range p.SnapASes {
		asSum += len(snap)
		next = appendUnionSortedU32(next[:0], asUnion, snap)
		asUnion, next = next, asUnion
	}
	out.TotalIPs = p.UnionIPs
	out.AvgIPs = p.IPSum / p.Snapshots
	out.TotalBlocks = p.UnionBlocks
	out.AvgBlocks = p.BlockSum / p.Snapshots
	out.TotalASes = len(asUnion)
	out.AvgASes = asSum / p.Snapshots
	return out
}

// clone copies the outer per-snapshot slice only. An AS set is never
// written once made — observe appends a new one, merge replaces them —
// so clones share the sets. An empty set clones to nil, as it always
// has: the wire encoding tells nil from empty.
func (p *SeriesPartial) clone() SeriesPartial {
	out := *p
	out.SnapASes = make([][]uint32, len(p.SnapASes))
	for i, s := range p.SnapASes {
		if len(s) > 0 {
			out.SnapASes[i] = s
		}
	}
	return out
}

// SummaryPartial is one shard's mergeable share of the dataset-level
// summary: identity fields every shard agrees on, integer counters
// restricted to the shard's block slice, and the set/sketch-valued
// pieces whose distinct counts cross shard boundaries. Merging the
// partials of a complete partition and finalizing yields the exact
// single-node Summary.
type SummaryPartial struct {
	// Identity (equal on every shard; Merge rejects mismatches).
	Seed        uint64 `json:"seed"`
	NumASes     int    `json:"numASes"`
	WorldBlocks int    `json:"worldBlocks"`
	Days        int    `json:"days"`
	DailyStart  int    `json:"dailyStart"`
	DailyLen    int    `json:"dailyLen"`
	Weeks       int    `json:"weeks"`

	// Shard-sliced cardinalities (additive).
	ActiveBlocks int `json:"activeBlocks"`
	DailyUnion   int `json:"dailyUnion"`
	YearUnion    int `json:"yearUnion"`
	ICMPUnion    int `json:"icmpUnion"`

	Daily  SeriesPartial `json:"daily"`
	Weekly SeriesPartial `json:"weekly"`

	// Capture–recapture inputs: |CDN campaign-month union| and its
	// overlap with the ICMP union, both within the slice (additive).
	CDNMonth int `json:"cdnMonth"`
	CDNBoth  int `json:"cdnBoth"`

	// Churn raw material: per-day slice cardinalities and per-transition
	// up/down event counts (additive element-wise).
	DayLens []int `json:"dayLens"`
	Ups     []int `json:"ups"`
	Downs   []int `json:"downs"`

	// Year churn inputs: |week 0| and |last week \ week 0| (additive).
	WeekBase       int `json:"weekBase"`
	WeekLastAppear int `json:"weekLastAppear"`

	// UA sampling aggregate: total samples plus the union HLL sketch of
	// every block's UA registers (register-wise max — exact under any
	// merge order or grouping).
	UASamples   int    `json:"uaSamples"`
	UAPrecision uint8  `json:"uaPrecision,omitempty"`
	UARegisters []byte `json:"uaRegisters,omitempty"`
}

// Merge folds o into p. Both partials must describe the same dataset
// geometry; the caller is responsible for merging each shard exactly
// once over a complete, disjoint partition.
func (p *SummaryPartial) Merge(o *SummaryPartial) error {
	if p.Seed != o.Seed || p.NumASes != o.NumASes || p.WorldBlocks != o.WorldBlocks ||
		p.Days != o.Days || p.DailyStart != o.DailyStart || p.DailyLen != o.DailyLen || p.Weeks != o.Weeks {
		return fmt.Errorf("query: summary partials describe different datasets")
	}
	if len(p.DayLens) != len(o.DayLens) || len(p.Ups) != len(o.Ups) || len(p.Downs) != len(o.Downs) {
		return fmt.Errorf("query: summary partials disagree on window geometry")
	}
	if err := p.Daily.merge(&o.Daily); err != nil {
		return err
	}
	if err := p.Weekly.merge(&o.Weekly); err != nil {
		return err
	}
	p.ActiveBlocks += o.ActiveBlocks
	p.DailyUnion += o.DailyUnion
	p.YearUnion += o.YearUnion
	p.ICMPUnion += o.ICMPUnion
	p.CDNMonth += o.CDNMonth
	p.CDNBoth += o.CDNBoth
	for i := range p.DayLens {
		p.DayLens[i] += o.DayLens[i]
	}
	for i := range p.Ups {
		p.Ups[i] += o.Ups[i]
		p.Downs[i] += o.Downs[i]
	}
	p.WeekBase += o.WeekBase
	p.WeekLastAppear += o.WeekLastAppear
	p.UASamples += o.UASamples
	switch {
	case len(o.UARegisters) == 0:
	case len(p.UARegisters) == 0:
		p.UAPrecision = o.UAPrecision
		p.UARegisters = append([]byte(nil), o.UARegisters...)
	case p.UAPrecision != o.UAPrecision:
		return fmt.Errorf("query: summary partials carry HLL sketches of different precision (%d vs %d)", p.UAPrecision, o.UAPrecision)
	default:
		for i, v := range o.UARegisters {
			if v > p.UARegisters[i] {
				p.UARegisters[i] = v
			}
		}
	}
	return nil
}

// MergeSummaryPartials merges a complete partition's partials (without
// mutating them) into one combined partial.
func MergeSummaryPartials(parts []SummaryPartial) (SummaryPartial, error) {
	if len(parts) == 0 {
		return SummaryPartial{}, fmt.Errorf("query: no summary partials to merge")
	}
	acc := parts[0].clone()
	for i := 1; i < len(parts); i++ {
		if err := acc.Merge(&parts[i]); err != nil {
			return SummaryPartial{}, err
		}
	}
	return acc, nil
}

func (p *SummaryPartial) clone() SummaryPartial {
	out := *p
	out.Daily = p.Daily.clone()
	out.Weekly = p.Weekly.clone()
	out.DayLens = append([]int(nil), p.DayLens...)
	out.Ups = append([]int(nil), p.Ups...)
	out.Downs = append([]int(nil), p.Downs...)
	out.UARegisters = append([]byte(nil), p.UARegisters...)
	return out
}

// Finalize derives the serving Summary from the partial. Every float is
// computed from merged integers (or the union sketch) with the exact
// expressions the monolithic build uses, so Finalize over merged
// partials reproduces the single-node Summary byte for byte.
func (p *SummaryPartial) Finalize() Summary {
	s := Summary{
		Seed:         p.Seed,
		NumASes:      p.NumASes,
		WorldBlocks:  p.WorldBlocks,
		Days:         p.Days,
		DailyStart:   p.DailyStart,
		DailyLen:     p.DailyLen,
		Weeks:        p.Weeks,
		ActiveBlocks: p.ActiveBlocks,
		DailyUnion:   p.DailyUnion,
		YearUnion:    p.YearUnion,
		ICMPUnion:    p.ICMPUnion,
		Daily:        p.Daily.finalize(),
		Weekly:       p.Weekly.finalize(),
	}

	if est, err := core.Recapture(p.CDNMonth, p.ICMPUnion, p.CDNBoth); err == nil {
		s.Recapture = RecaptureSummary{
			Valid: true, N1: est.N1, N2: est.N2, Both: est.Both,
			LP: est.LincolnPetersen, Chapman: est.Chapman, SE: est.SE,
			CI95Lo: est.CI95Lo, CI95Hi: est.CI95Hi,
		}
	}

	// The per-transition percentage sequence is core.ChurnSeries' over
	// the unsharded snapshots: same integers, same constructor, same
	// (day-order) accumulation.
	var upSum, upPct, downPct float64
	for i := range p.Ups {
		c := core.NewChurnPoint(p.Ups[i], p.Downs[i], p.DayLens[i], p.DayLens[i+1])
		upSum += float64(c.Up)
		upPct += c.UpPct
		downPct += c.DownPct
	}
	if n := len(p.Ups); n > 0 {
		s.Churn.MeanDailyUpEvents = upSum / float64(n)
		s.Churn.MeanDailyUpPct = upPct / float64(n)
		s.Churn.MeanDailyDownPct = downPct / float64(n)
	}
	if p.Weeks > 0 && p.WeekBase > 0 {
		s.Churn.YearChurnFrac = float64(p.WeekLastAppear) / float64(p.WeekBase)
	}

	s.UA.Samples = p.UASamples
	if len(p.UARegisters) > 0 {
		if h, err := useragent.HLLFromRegisters(p.UAPrecision, p.UARegisters); err == nil {
			s.UA.UniqueUA = h.Estimate()
		}
	}
	return s
}

// ASPartial is one shard's mergeable share of an AS footprint. The
// world-derived identity fields are identical on every shard (each
// regenerates the full world); activity counters cover only the
// shard's slice, and Hits carries the per-/24 total-hits values in
// ascending block order so the cross-shard fold can replay the exact
// single-node float accumulation sequence.
type ASPartial struct {
	// Found reports whether this shard knows the AS at all: every world
	// AS on every shard, plus the synthetic "unrouted" AS 0 on shards
	// whose slice has activity outside the routing table.
	Found        bool      `json:"found"`
	AS           uint32    `json:"as"`
	Kind         string    `json:"kind,omitempty"`
	Country      string    `json:"country,omitempty"`
	RIR          string    `json:"rir,omitempty"`
	Prefixes     []string  `json:"prefixes,omitempty"`
	RoutedBlocks int       `json:"routedBlocks"`
	ActiveBlocks int       `json:"activeBlocks"`
	ActiveAddrs  int       `json:"activeAddrs"`
	Hits         []float64 `json:"hits,omitempty"`
}

// ASPartial returns this index's mergeable share of asn's footprint:
// the partial the publish folded, which shares its slices with the
// index (callers must not mutate them).
func (x *Index) ASPartial(asn bgp.ASN) ASPartial {
	i, ok := searchAS(x.ases, uint32(asn))
	if !ok {
		return ASPartial{AS: uint32(asn)}
	}
	return x.ases[i]
}

// MergeASPartials folds a complete partition's AS partials (in
// ascending shard-range order) into the single-node ASView. ok is
// false when no shard knows the AS — the routed 404 case.
func MergeASPartials(parts []ASPartial) (ASView, bool) {
	var v ASView
	found := false
	for _, p := range parts {
		if !p.Found {
			continue
		}
		if !found {
			// The lowest shard that knows the AS supplies the identity
			// fields — for world ASes they are identical everywhere; for
			// the synthetic unrouted entry this is the shard holding the
			// globally first unrouted active block, matching the
			// single-node fold's creation site.
			v = ASView{
				AS: p.AS, Kind: p.Kind, Country: p.Country, RIR: p.RIR,
				Prefixes: p.Prefixes, RoutedBlocks: p.RoutedBlocks,
			}
			found = true
		}
		v.ActiveBlocks += p.ActiveBlocks
		v.ActiveAddrs += p.ActiveAddrs
		for _, h := range p.Hits {
			v.TotalHits += h
		}
	}
	return v, found
}

// PrefixPartial is one shard's mergeable share of a CIDR aggregate:
// integer counters plus the per-active-block STU and total-hits values
// (ascending block order) the merged view refolds, and this shard's
// leading BlockList candidates.
type PrefixPartial struct {
	Prefix       string      `json:"prefix"`
	Blocks       int         `json:"blocks"`
	ActiveBlocks int         `json:"activeBlocks"`
	ActiveAddrs  int         `json:"activeAddrs"`
	STU          []float64   `json:"stu,omitempty"`
	Hits         []float64   `json:"hits,omitempty"`
	Origins      []uint32    `json:"origins,omitempty"`
	BlockList    []BlockView `json:"blockList,omitempty"`
}

// PrefixPartial returns this index's mergeable share of the aggregate
// over p's blocks. maxBlocks caps the embedded BlockList candidates
// exactly as Prefix does.
func (x *Index) PrefixPartial(p ipv4.Prefix, maxBlocks int) (PrefixPartial, error) {
	if err := CheckPrefix(p); err != nil {
		return PrefixPartial{}, err
	}
	out := PrefixPartial{Prefix: p.String(), Blocks: p.NumBlocks()}
	first := uint32(p.FirstBlock())
	last := first + uint32(p.NumBlocks()) - 1
	lo, _ := x.blockIndex(ipv4.Block(first))
	origins := map[uint32]bool{}
	for i := lo; i < len(x.keys) && uint32(x.keys[i]) <= last; i++ {
		bd := &x.blocks[i]
		out.ActiveBlocks++
		out.ActiveAddrs += bd.view.FD
		out.STU = append(out.STU, bd.view.STU)
		out.Hits = append(out.Hits, bd.view.TotalHits)
		origins[bd.view.AS] = true
		if maxBlocks > 0 && len(out.BlockList) < maxBlocks {
			out.BlockList = append(out.BlockList, bd.view)
		}
	}
	out.Origins = make([]uint32, 0, len(origins))
	for as := range origins {
		out.Origins = append(out.Origins, as)
	}
	sort.Slice(out.Origins, func(i, j int) bool { return out.Origins[i] < out.Origins[j] })
	return out, nil
}

// MergePrefixPartials folds a partition's prefix partials (ascending
// shard-range order) into the single-node PrefixView. Every partial
// must describe the same prefix; maxBlocks must match the per-shard
// cap.
func MergePrefixPartials(parts []PrefixPartial, maxBlocks int) (PrefixView, error) {
	if len(parts) == 0 {
		return PrefixView{}, fmt.Errorf("query: no prefix partials to merge")
	}
	v := PrefixView{Prefix: parts[0].Prefix, Blocks: parts[0].Blocks}
	origins := map[uint32]bool{}
	stuSum := 0.0
	for _, p := range parts {
		if p.Prefix != v.Prefix {
			return PrefixView{}, fmt.Errorf("query: prefix partials describe %s and %s", v.Prefix, p.Prefix)
		}
		v.ActiveBlocks += p.ActiveBlocks
		v.ActiveAddrs += p.ActiveAddrs
		for _, stu := range p.STU {
			stuSum += stu
		}
		for _, h := range p.Hits {
			v.TotalHits += h
		}
		for _, as := range p.Origins {
			origins[as] = true
		}
		for _, bv := range p.BlockList {
			if maxBlocks > 0 && len(v.BlockList) < maxBlocks {
				v.BlockList = append(v.BlockList, bv)
			}
		}
	}
	if maxBlocks > 0 && v.ActiveBlocks > maxBlocks {
		v.Truncated = true
	}
	if v.ActiveBlocks > 0 {
		v.MeanSTU = stuSum / float64(v.ActiveBlocks)
	}
	v.Origins = make([]uint32, 0, len(origins))
	for as := range origins {
		v.Origins = append(v.Origins, as)
	}
	sort.Slice(v.Origins, func(i, j int) bool { return v.Origins[i] < v.Origins[j] })
	return v, nil
}

// unionSortedU32 merges two sorted, duplicate-free slices.
func unionSortedU32(a, b []uint32) []uint32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]uint32(nil), b...)
	}
	return appendUnionSortedU32(make([]uint32, 0, len(a)+len(b)), a, b)
}

// appendUnionSortedU32 appends the union of two sorted, duplicate-free
// slices to dst.
func appendUnionSortedU32(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
