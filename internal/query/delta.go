package query

// delta.go computes what changed between two epochs of the same
// dataset: blocks newly active / gone dark / changed, per-AS movement,
// and summary-counter diffs. Like every cluster aggregate, the result
// travels as a mergeable partial (partial.go's discipline: integers
// sum, order-sensitive float folds ship per-block operands in ascending
// block order, capped sample lists concatenate across ascending shard
// ranges) and the single-node answer is the one-partial merge, so a
// routed delta cannot drift from the monolithic one.
//
// The reference semantics are purely a function of the two indexes'
// per-/24 views: an index built at day N keys every block that was ever
// active in days 0..N-1, so between a shorter and a longer prefix of
// the same stream the key sets grow monotonically. A block present only
// in the newer index is newly active; a block whose activity counters
// (FD, active days, total hits, UA samples) are identical in both saw
// no activity anywhere in the span — it sat dark; any counter delta
// makes it changed. This depends only on view fields the Build/Applier
// equivalence invariant already pins, so Build- and Applier-built
// epochs diff identically.

import (
	"fmt"
	"sort"
)

// DefaultDeltaBlockList caps the per-category example block lists in a
// delta response when the request does not say otherwise.
const DefaultDeltaBlockList = 16

// BlockChange is one example block in a delta response: the block, its
// AS, and how its activity counters moved across the span. For a newly
// active block the deltas are its absolute counters (it had none
// before); for a gone-dark block they are zero by construction.
type BlockChange struct {
	Block           string  `json:"block"`
	AS              uint32  `json:"as"`
	FDDelta         int     `json:"fdDelta"`
	ActiveDaysDelta int     `json:"activeDaysDelta"`
	HitsDelta       float64 `json:"hitsDelta"`
}

// ASMovementPartial is one AS's share of the movement aggregate on one
// shard. Block counts are partition-disjoint integers; the hit totals
// ship as per-block operands in ascending block order so the merged
// refold replays the exact single-node float sequence.
type ASMovementPartial struct {
	AS         uint32    `json:"as"`
	FromBlocks int       `json:"fromBlocks"`
	ToBlocks   int       `json:"toBlocks"`
	BothBlocks int       `json:"bothBlocks"`
	FromHits   []float64 `json:"fromHits"`
	ToHits     []float64 `json:"toHits"`
}

// ASMovement is the finalized per-AS movement row: blocks gained and
// lost across the span and the signed traffic delta. Only ASes that
// actually moved appear in a delta response.
type ASMovement struct {
	AS           uint32  `json:"as"`
	BlocksGained int     `json:"blocksGained"`
	BlocksLost   int     `json:"blocksLost"`
	HitsDelta    float64 `json:"hitsDelta"`
}

// DeltaPartial is one shard's share of a delta computation. The
// identity header must agree across shards; everything else merges
// per partial.go's rules.
type DeltaPartial struct {
	// Identity (equal on every shard; Merge rejects mismatches).
	Seed      uint64 `json:"seed"`
	FromEpoch uint64 `json:"fromEpoch"`
	ToEpoch   uint64 `json:"toEpoch"`
	FromDays  int    `json:"fromDays"`
	ToDays    int    `json:"toDays"`

	// Category cardinalities over the full slice (additive).
	NewBlocks      int `json:"newBlocks"`
	GoneDarkBlocks int `json:"goneDarkBlocks"`
	ChangedBlocks  int `json:"changedBlocks"`

	// Summary-counter diffs (differences of the slice's additive
	// summary counters, themselves additive).
	ActiveBlocksDelta int `json:"activeBlocksDelta"`
	ActiveAddrsDelta  int `json:"activeAddrsDelta"`
	YearUnionDelta    int `json:"yearUnionDelta"`
	ICMPUnionDelta    int `json:"icmpUnionDelta"`
	ChurnUp           int `json:"churnUp"`
	ChurnDown         int `json:"churnDown"`
	WeeksAdded        int `json:"weeksAdded"`

	// Capped example lists, ascending block order within the slice.
	NewSample      []BlockChange `json:"newSample,omitempty"`
	GoneDarkSample []BlockChange `json:"goneDarkSample,omitempty"`
	ChangedSample  []BlockChange `json:"changedSample,omitempty"`

	// Per-AS movement rows, ascending AS order.
	ASMovement []ASMovementPartial `json:"asMovement,omitempty"`
}

// DeltaView is the /v1/delta response payload.
type DeltaView struct {
	FromEpoch uint64 `json:"fromEpoch"`
	ToEpoch   uint64 `json:"toEpoch"`
	FromDays  int    `json:"fromDays"`
	ToDays    int    `json:"toDays"`

	NewBlocks      int `json:"newBlocks"`
	GoneDarkBlocks int `json:"goneDarkBlocks"`
	ChangedBlocks  int `json:"changedBlocks"`

	ActiveBlocksDelta int `json:"activeBlocksDelta"`
	ActiveAddrsDelta  int `json:"activeAddrsDelta"`
	YearUnionDelta    int `json:"yearUnionDelta"`
	ICMPUnionDelta    int `json:"icmpUnionDelta"`
	ChurnUp           int `json:"churnUp"`
	ChurnDown         int `json:"churnDown"`
	WeeksAdded        int `json:"weeksAdded"`

	// Truncated reports that at least one sample list was capped below
	// its category's full cardinality.
	Truncated bool `json:"truncated"`

	NewSample      []BlockChange `json:"newSample"`
	GoneDarkSample []BlockChange `json:"goneDarkSample"`
	ChangedSample  []BlockChange `json:"changedSample"`
	ASMovement     []ASMovement  `json:"asMovement"`
}

// DeltaPartial computes this shard's share of the delta from an older
// epoch of the same dataset slice. maxBlocks caps each sample list
// (<=0 means DefaultDeltaBlockList).
func (x *Index) DeltaPartial(from *Index, maxBlocks int) (DeltaPartial, error) {
	if from == nil {
		return DeltaPartial{}, fmt.Errorf("query: delta needs a from index")
	}
	if from.meta.seed != x.meta.seed {
		return DeltaPartial{}, fmt.Errorf("query: delta indexes describe different datasets")
	}
	if from.days > x.days {
		return DeltaPartial{}, fmt.Errorf("query: delta from-index is newer (%d days) than to-index (%d days)", from.days, x.days)
	}
	if maxBlocks <= 0 {
		maxBlocks = DefaultDeltaBlockList
	}
	p := DeltaPartial{
		Seed:      x.meta.seed,
		FromEpoch: from.epoch,
		ToEpoch:   x.epoch,
		FromDays:  from.days,
		ToDays:    x.days,

		ActiveBlocksDelta: x.partial.ActiveBlocks - from.partial.ActiveBlocks,
		ActiveAddrsDelta:  x.partial.DailyUnion - from.partial.DailyUnion,
		YearUnionDelta:    x.partial.YearUnion - from.partial.YearUnion,
		ICMPUnionDelta:    x.partial.ICMPUnion - from.partial.ICMPUnion,
		WeeksAdded:        x.partial.Weeks - from.partial.Weeks,
	}
	p.ChurnUp, p.ChurnDown = x.ChurnSince(from.days)

	sample := func(list *[]BlockChange, c BlockChange) {
		if len(*list) < maxBlocks {
			*list = append(*list, c)
		}
	}
	move := map[uint32]*ASMovementPartial{}
	moveRow := func(as uint32) *ASMovementPartial {
		m := move[as]
		if m == nil {
			m = &ASMovementPartial{AS: as}
			move[as] = m
		}
		return m
	}

	// Merge-walk both sorted key arrays; every branch below visits
	// blocks in ascending order, so the sample lists and per-AS hit
	// operands come out in the canonical fold order.
	i, j := 0, 0
	for i < len(from.keys) || j < len(x.keys) {
		switch {
		case j >= len(x.keys) || (i < len(from.keys) && from.keys[i] < x.keys[j]):
			// In from only: cannot happen between prefixes of one
			// stream, but degrade gracefully — the block fell out, so
			// it is gone dark and its AS lost it.
			fb := &from.blocks[i]
			p.GoneDarkBlocks++
			sample(&p.GoneDarkSample, BlockChange{
				Block: fb.view.Block, AS: fb.view.AS,
				FDDelta:         -fb.view.FD,
				ActiveDaysDelta: -fb.view.ActiveDays,
				HitsDelta:       -fb.view.TotalHits,
			})
			if fb.view.AS != 0 {
				m := moveRow(fb.view.AS)
				m.FromBlocks++
				m.FromHits = append(m.FromHits, fb.view.TotalHits)
			}
			i++
		case i >= len(from.keys) || x.keys[j] < from.keys[i]:
			// In to only: newly active in the span.
			tb := &x.blocks[j]
			p.NewBlocks++
			sample(&p.NewSample, BlockChange{
				Block: tb.view.Block, AS: tb.view.AS,
				FDDelta:         tb.view.FD,
				ActiveDaysDelta: tb.view.ActiveDays,
				HitsDelta:       tb.view.TotalHits,
			})
			if tb.view.AS != 0 {
				m := moveRow(tb.view.AS)
				m.ToBlocks++
				m.ToHits = append(m.ToHits, tb.view.TotalHits)
			}
			j++
		default:
			fb, tb := &from.blocks[i], &x.blocks[j]
			if tb.view.AS != 0 {
				m := moveRow(tb.view.AS)
				m.ToBlocks++
				m.BothBlocks++
				m.ToHits = append(m.ToHits, tb.view.TotalHits)
			}
			if fb.view.AS != 0 {
				m := moveRow(fb.view.AS)
				m.FromBlocks++
				m.FromHits = append(m.FromHits, fb.view.TotalHits)
				if tb.view.AS != fb.view.AS {
					// Reassigned: the old AS did not keep it.
					m.BothBlocks--
				}
			}
			if fb.view.FD == tb.view.FD && fb.view.ActiveDays == tb.view.ActiveDays &&
				fb.view.TotalHits == tb.view.TotalHits && fb.view.UASamples == tb.view.UASamples {
				// No counter moved: the block saw no activity anywhere
				// in the span.
				p.GoneDarkBlocks++
				sample(&p.GoneDarkSample, BlockChange{Block: tb.view.Block, AS: tb.view.AS})
			} else {
				p.ChangedBlocks++
				sample(&p.ChangedSample, BlockChange{
					Block: tb.view.Block, AS: tb.view.AS,
					FDDelta:         tb.view.FD - fb.view.FD,
					ActiveDaysDelta: tb.view.ActiveDays - fb.view.ActiveDays,
					HitsDelta:       tb.view.TotalHits - fb.view.TotalHits,
				})
			}
			i++
			j++
		}
	}

	ases := make([]uint32, 0, len(move))
	for as := range move {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(a, b int) bool { return ases[a] < ases[b] })
	for _, as := range ases {
		p.ASMovement = append(p.ASMovement, *move[as])
	}
	return p, nil
}

// MergeDeltaPartials folds per-shard delta partials — one per shard of
// a complete, disjoint partition, in ascending block-range order — into
// the final view. The one-partial case is the single-node answer.
func MergeDeltaPartials(parts []DeltaPartial, maxBlocks int) (DeltaView, error) {
	if len(parts) == 0 {
		return DeltaView{}, fmt.Errorf("query: no delta partials to merge")
	}
	if maxBlocks <= 0 {
		maxBlocks = DefaultDeltaBlockList
	}
	first := parts[0]
	v := DeltaView{
		FromEpoch: first.FromEpoch,
		ToEpoch:   first.ToEpoch,
		FromDays:  first.FromDays,
		ToDays:    first.ToDays,
	}
	move := map[uint32]*ASMovementPartial{}
	for _, p := range parts {
		if p.Seed != first.Seed || p.FromDays != first.FromDays || p.ToDays != first.ToDays ||
			p.FromEpoch != first.FromEpoch || p.ToEpoch != first.ToEpoch {
			return DeltaView{}, fmt.Errorf("query: delta partials describe different spans")
		}
		v.NewBlocks += p.NewBlocks
		v.GoneDarkBlocks += p.GoneDarkBlocks
		v.ChangedBlocks += p.ChangedBlocks
		v.ActiveBlocksDelta += p.ActiveBlocksDelta
		v.ActiveAddrsDelta += p.ActiveAddrsDelta
		v.YearUnionDelta += p.YearUnionDelta
		v.ICMPUnionDelta += p.ICMPUnionDelta
		v.ChurnUp += p.ChurnUp
		v.ChurnDown += p.ChurnDown
		v.WeeksAdded = first.WeeksAdded
		for _, c := range p.NewSample {
			if len(v.NewSample) < maxBlocks {
				v.NewSample = append(v.NewSample, c)
			}
		}
		for _, c := range p.GoneDarkSample {
			if len(v.GoneDarkSample) < maxBlocks {
				v.GoneDarkSample = append(v.GoneDarkSample, c)
			}
		}
		for _, c := range p.ChangedSample {
			if len(v.ChangedSample) < maxBlocks {
				v.ChangedSample = append(v.ChangedSample, c)
			}
		}
		// Shards arrive in ascending block-range order, so appending
		// each AS row's operands preserves the global ascending block
		// order the single-node fold uses.
		for _, m := range p.ASMovement {
			t := move[m.AS]
			if t == nil {
				t = &ASMovementPartial{AS: m.AS}
				move[m.AS] = t
			}
			t.FromBlocks += m.FromBlocks
			t.ToBlocks += m.ToBlocks
			t.BothBlocks += m.BothBlocks
			t.FromHits = append(t.FromHits, m.FromHits...)
			t.ToHits = append(t.ToHits, m.ToHits...)
		}
	}
	v.Truncated = v.NewBlocks > len(v.NewSample) ||
		v.GoneDarkBlocks > len(v.GoneDarkSample) ||
		v.ChangedBlocks > len(v.ChangedSample)

	ases := make([]uint32, 0, len(move))
	for as := range move {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(a, b int) bool { return ases[a] < ases[b] })
	v.ASMovement = []ASMovement{}
	for _, as := range ases {
		m := move[as]
		var fromSum, toSum float64
		for _, h := range m.FromHits {
			fromSum += h
		}
		for _, h := range m.ToHits {
			toSum += h
		}
		row := ASMovement{
			AS:           m.AS,
			BlocksGained: m.ToBlocks - m.BothBlocks,
			BlocksLost:   m.FromBlocks - m.BothBlocks,
			HitsDelta:    toSum - fromSum,
		}
		if row.BlocksGained != 0 || row.BlocksLost != 0 || row.HitsDelta != 0 {
			v.ASMovement = append(v.ASMovement, row)
		}
	}
	return v, nil
}

// Delta is the single-node delta: the one-partial merge, so routed and
// monolithic answers agree by construction.
func (x *Index) Delta(from *Index, maxBlocks int) (DeltaView, error) {
	p, err := x.DeltaPartial(from, maxBlocks)
	if err != nil {
		return DeltaView{}, err
	}
	return MergeDeltaPartials([]DeltaPartial{p}, maxBlocks)
}

// ChurnSince sums the per-transition up/down event counts over the
// transitions that happened after day fromDays closed — the churn a
// consumer at fromDays has not seen yet. fromDays <= 0 covers the whole
// window.
func (x *Index) ChurnSince(fromDays int) (up, down int) {
	start := fromDays - 1
	if start < 0 {
		start = 0
	}
	for i := start; i < len(x.partial.Ups); i++ {
		up += x.partial.Ups[i]
		down += x.partial.Downs[i]
	}
	return up, down
}

// ActiveASNs returns the sorted AS numbers that own at least one
// indexed block in this slice (the unrouted AS 0 included).
func (x *Index) ActiveASNs() []uint32 {
	out := make([]uint32, 0, len(x.ases))
	for i := range x.ases {
		if x.ases[i].ActiveBlocks > 0 {
			out = append(out, x.ases[i].AS)
		}
	}
	return out
}

// AtEpoch returns a shallow copy of the index stamped with a different
// epoch — the immutable payload is shared. History rings require
// strictly increasing epochs; this lets independently built indexes
// (Build always stamps epoch 1) take distinct retention slots.
func (x *Index) AtEpoch(e uint64) *Index {
	c := *x
	c.epoch = e
	return &c
}

// MovementEntryPartial is one shard's totals at one retained epoch.
// BaseEpoch names the prior retained epoch the churn columns are
// relative to (0 on the oldest retained entry, whose churn is zero);
// merging requires every shard to agree on it.
type MovementEntryPartial struct {
	Epoch        uint64   `json:"epoch"`
	Days         int      `json:"days"`
	BaseEpoch    uint64   `json:"baseEpoch"`
	ActiveBlocks int      `json:"activeBlocks"`
	ActiveAddrs  int      `json:"activeAddrs"`
	ChurnUp      int      `json:"churnUp"`
	ChurnDown    int      `json:"churnDown"`
	ASes         []uint32 `json:"ases,omitempty"`
}

// MovementPartial is one shard's share of the /v1/movement series.
type MovementPartial struct {
	Seed        uint64                 `json:"seed"`
	OldestEpoch uint64                 `json:"oldestEpoch"`
	NewestEpoch uint64                 `json:"newestEpoch"`
	Entries     []MovementEntryPartial `json:"entries,omitempty"`
}

// MovementEntry is the finalized per-epoch row of the movement series.
type MovementEntry struct {
	Epoch        uint64 `json:"epoch"`
	Days         int    `json:"days"`
	ActiveBlocks int    `json:"activeBlocks"`
	ActiveAddrs  int    `json:"activeAddrs"`
	ChurnUp      int    `json:"churnUp"`
	ChurnDown    int    `json:"churnDown"`
	ASCount      int    `json:"asCount"`
}

// MovementView is the /v1/movement response payload. The epoch range is
// the cluster-wide common retained range the series was computed over.
type MovementView struct {
	OldestEpoch uint64          `json:"oldestEpoch"`
	NewestEpoch uint64          `json:"newestEpoch"`
	Series      []MovementEntry `json:"series"`
}

// MovementEntryPartial derives this shard's movement row for the index,
// with churn measured against the prior retained epoch (nil base: the
// oldest retained entry, churn zero by definition).
func (x *Index) MovementEntryPartial(base *Index) MovementEntryPartial {
	e := MovementEntryPartial{
		Epoch:        x.epoch,
		Days:         x.days,
		ActiveBlocks: x.partial.ActiveBlocks,
		ActiveAddrs:  x.partial.DailyUnion,
		ASes:         x.ActiveASNs(),
	}
	if base != nil {
		e.BaseEpoch = base.epoch
		e.ChurnUp, e.ChurnDown = x.ChurnSince(base.days)
	}
	return e
}

// MergeMovementPartials folds per-shard movement series into the final
// view. Shards may retain skewed epoch ranges: only epochs present on
// every shard with agreeing geometry (Days, BaseEpoch) survive, and the
// reported range is the common one (max of oldests, min of newests).
// Integer totals sum; the AS count is the cardinality of the sorted-set
// union, exact for block-disjoint shards.
func MergeMovementPartials(parts []MovementPartial) (MovementView, error) {
	if len(parts) == 0 {
		return MovementView{}, fmt.Errorf("query: no movement partials to merge")
	}
	first := parts[0]
	v := MovementView{OldestEpoch: first.OldestEpoch, NewestEpoch: first.NewestEpoch}
	for _, p := range parts[1:] {
		if p.Seed != first.Seed {
			return MovementView{}, fmt.Errorf("query: movement partials describe different datasets")
		}
		if p.OldestEpoch > v.OldestEpoch {
			v.OldestEpoch = p.OldestEpoch
		}
		if p.NewestEpoch < v.NewestEpoch {
			v.NewestEpoch = p.NewestEpoch
		}
	}
	v.Series = []MovementEntry{}
	if v.NewestEpoch < v.OldestEpoch || v.NewestEpoch == 0 {
		v.OldestEpoch, v.NewestEpoch = 0, 0
		return v, nil
	}
	for e := v.OldestEpoch; e <= v.NewestEpoch; e++ {
		var row MovementEntry
		var ases []uint32
		ok := true
		for pi := range parts {
			var entry *MovementEntryPartial
			for i := range parts[pi].Entries {
				if parts[pi].Entries[i].Epoch == e {
					entry = &parts[pi].Entries[i]
					break
				}
			}
			if entry == nil {
				ok = false
				break
			}
			if pi == 0 {
				row = MovementEntry{Epoch: e, Days: entry.Days}
			} else if entry.Days != row.Days {
				ok = false
				break
			}
			row.ActiveBlocks += entry.ActiveBlocks
			row.ActiveAddrs += entry.ActiveAddrs
			row.ChurnUp += entry.ChurnUp
			row.ChurnDown += entry.ChurnDown
			ases = unionSortedU32(ases, entry.ASes)
		}
		if !ok {
			continue
		}
		// Base agreement: re-check across shards (first pass kept rows
		// whose Days agree; churn bases must agree too).
		base := baseEpochAt(parts[0], e)
		for pi := 1; pi < len(parts) && ok; pi++ {
			if baseEpochAt(parts[pi], e) != base {
				ok = false
			}
		}
		if !ok {
			continue
		}
		row.ASCount = len(ases)
		v.Series = append(v.Series, row)
	}
	return v, nil
}

// DeltaShardResponse is the /v1/cluster/delta body: the shard's delta
// partial plus its retained ring range, which the router folds into the
// cluster-wide common range even when this shard answered successfully.
type DeltaShardResponse struct {
	DeltaPartial
	RingOldest uint64 `json:"ringOldest"`
	RingNewest uint64 `json:"ringNewest"`
}

// MovementShardResponse is the /v1/cluster/movement body: the shard's
// movement series plus its retained ring range.
type MovementShardResponse struct {
	MovementPartial
	RingOldest uint64 `json:"ringOldest"`
	RingNewest uint64 `json:"ringNewest"`
}

// baseEpochAt looks up the churn base recorded for epoch e in p.
func baseEpochAt(p MovementPartial, e uint64) uint64 {
	for i := range p.Entries {
		if p.Entries[i].Epoch == e {
			return p.Entries[i].BaseEpoch
		}
	}
	return 0
}
