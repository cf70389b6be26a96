// Package query compiles an observation dataset (any obs.Source) into
// an immutable indexed view that answers per-address, per-/24,
// per-prefix and per-AS questions in microseconds — the read path
// behind cmd/ipscope-serve. Where the batch pipeline (internal/analysis)
// regenerates whole reports, a query.Index pays the analysis cost once
// at build time and then serves point lookups from packed structures:
//
//   - per-address activity timelines packed as day-bitsets (one bit per
//     day of the daily window);
//   - per-/24 rollups of FD, STU, traffic, UA sampling and the rDNS /
//     ground-truth pattern class;
//   - longest-prefix-match routing joins (internal/bgp) and registry
//     enrichment (internal/registry) for any address, active or not;
//   - dataset-level capture–recapture and churn summaries reusing
//     internal/core, field-identical to the batch report's numbers.
//
// Determinism rule: index construction fans out across internal/par
// shards but every per-block computation is a pure function of the
// dataset written to a preallocated slot, and every floating-point
// accumulation walks blocks in ascending block order — so an index
// built from the same dataset is identical for any Options.Workers,
// including 1 (enforced by TestBuildParallelEquivalence).
package query

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ipscope/internal/bgp"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/rdns"
	"ipscope/internal/registry"
	"ipscope/internal/synthnet"
)

// Options controls index construction.
type Options struct {
	// Workers bounds the build fan-out; <= 0 means GOMAXPROCS. The
	// resulting index is identical for any value.
	Workers int
	// Keep, when non-nil, restricts world-proportional construction
	// work (rDNS zone classification) to the blocks it accepts — the
	// shard-subset build path, paired with a partition-filtered
	// dataset so the whole build scales with the slice, not the world.
	// Lookups for rejected blocks still answer, with the Untagged rDNS
	// default; a cluster router never routes a shard such a block.
	Keep func(ipv4.Block) bool
}

// Index is the immutable compiled view. All lookup methods are safe for
// concurrent use: nothing is mutated after Build (or Applier.Snapshot)
// returns. Each Index is stamped with an epoch — a monotonically
// increasing publish counter (Build produces epoch 1; an Applier bumps
// it on every Snapshot) that serving layers use to version caches and
// ETags across snapshot swaps.
type Index struct {
	epoch   uint64
	meta    metaInfo
	obsMeta obs.Meta // full dataset identity, carried for snapshot encode
	days    int      // daily window length
	words   int      // uint64 words per packed per-address timeline
	keys    []ipv4.Block
	blocks  []blockData // parallel to keys, ascending block order
	routing *bgp.Table
	world   *synthnet.World
	tags    *rdns.TagIndex
	ases    []ASPartial // foldAS: every AS's footprint on this index, sorted by AS
	summary Summary
	partial *SummaryPartial
	icmp    *ipv4.Set
	servers *ipv4.Set
	routers *ipv4.Set

	// stride is the words a host's timeline takes in a block's array: the
	// full window width when an Applier published the index, words when
	// it was loaded. open is the timeline word read from the blocks' day
	// tails, because the applier may still write it in the arrays, or -1
	// when every word is sealed (the sharing rule, timeline.go).
	stride, open int
}

type metaInfo struct {
	seed    uint64
	numASes int
}

// blockData is the per-/24 index record: the serving view plus the
// packed per-address structures backing address lookups.
type blockData struct {
	view BlockView
	blk  ipv4.Block
	// timelines holds 256 packed day-bitsets, stride uint64 each: bit d
	// of timelines[h*stride+d/64] is set iff host h was active on day d
	// of the daily window. Read them through Index.timeline: only the
	// index's sealed words are the snapshot's, and tail holds the days of
	// its open word.
	timelines []uint64
	tail      tailDays
	// hits/daysActive are shared with the dataset (never mutated).
	traffic *blockTraffic
}

// blockTraffic mirrors obs.BlockTraffic without importing it into every
// view; populated from the dataset's per-block aggregates (setStats).
type blockTraffic struct {
	daysActive [256]uint16
	hits       [256]float64
}

// BlockView is the /v1/block response payload: one /24's rollup.
type BlockView struct {
	Block      string  `json:"block"`
	AS         uint32  `json:"as"`
	Prefix     string  `json:"prefix,omitempty"`
	Country    string  `json:"country,omitempty"`
	RIR        string  `json:"rir"`
	RDNS       string  `json:"rdns"`
	Pattern    string  `json:"pattern"`
	FD         int     `json:"fd"`
	STU        float64 `json:"stu"`
	ActiveDays int     `json:"activeDays"`
	TotalHits  float64 `json:"totalHits"`
	UASamples  int     `json:"uaSamples"`
	UAUnique   float64 `json:"uaUnique"`
}

// AddrView is the /v1/addr response payload: one address's activity
// timeline plus its block, routing and registry enrichment.
type AddrView struct {
	Addr          string  `json:"addr"`
	Block         string  `json:"block"`
	AS            uint32  `json:"as"`
	Prefix        string  `json:"prefix,omitempty"`
	Country       string  `json:"country,omitempty"`
	RIR           string  `json:"rir"`
	RDNS          string  `json:"rdns"`
	Pattern       string  `json:"pattern,omitempty"`
	Active        bool    `json:"active"`
	ActiveDays    int     `json:"activeDays"`
	FirstDay      int     `json:"firstDay"`
	LastDay       int     `json:"lastDay"`
	Timeline      string  `json:"timeline,omitempty"`
	Hits          float64 `json:"hits"`
	MeanDailyHits float64 `json:"meanDailyHits"`
	ICMPResponder bool    `json:"icmpResponder"`
	Server        bool    `json:"server"`
	Router        bool    `json:"router"`
}

// PrefixView is the /v1/prefix response payload: an aggregate over the
// /24 blocks a CIDR covers.
type PrefixView struct {
	Prefix       string      `json:"prefix"`
	Blocks       int         `json:"blocks"`
	ActiveBlocks int         `json:"activeBlocks"`
	ActiveAddrs  int         `json:"activeAddrs"`
	MeanSTU      float64     `json:"meanSTU"`
	TotalHits    float64     `json:"totalHits"`
	Origins      []uint32    `json:"origins"`
	BlockList    []BlockView `json:"blockList,omitempty"`
	Truncated    bool        `json:"truncated,omitempty"`
}

// ASView is the /v1/as response payload: one origin AS's footprint.
type ASView struct {
	AS           uint32   `json:"as"`
	Kind         string   `json:"kind"`
	Country      string   `json:"country,omitempty"`
	RIR          string   `json:"rir"`
	Prefixes     []string `json:"prefixes"`
	RoutedBlocks int      `json:"routedBlocks"`
	ActiveBlocks int      `json:"activeBlocks"`
	ActiveAddrs  int      `json:"activeAddrs"`
	TotalHits    float64  `json:"totalHits"`
}

// ChurnSummary condenses the dataset's daily churn series (the numbers
// behind the batch report's Figure 4).
type ChurnSummary struct {
	// MeanDailyUpEvents is the mean number of up events per daily
	// transition, identical to the batch report's Figure 4 headline.
	MeanDailyUpEvents float64 `json:"meanDailyUpEvents"`
	// MeanDailyUpPct / MeanDailyDownPct are the mean churn percentages
	// across daily transitions.
	MeanDailyUpPct   float64 `json:"meanDailyUpPct"`
	MeanDailyDownPct float64 `json:"meanDailyDownPct"`
	// YearChurnFrac is |appear at last week vs week 0| / |week 0|.
	YearChurnFrac float64 `json:"yearChurnFrac"`
}

// RecaptureSummary is the capture–recapture estimate over the CDN month
// and the ICMP campaign union, field-identical to the batch report's.
type RecaptureSummary struct {
	Valid   bool    `json:"valid"`
	N1      int     `json:"n1"`
	N2      int     `json:"n2"`
	Both    int     `json:"both"`
	LP      float64 `json:"lincolnPetersen"`
	Chapman float64 `json:"chapman"`
	SE      float64 `json:"se"`
	CI95Lo  float64 `json:"ci95Lo"`
	CI95Hi  float64 `json:"ci95Hi"`
}

// UASummary aggregates the dataset's User-Agent sampling: total
// samples and the estimated number of distinct UA strings across every
// sampled block, from the union of the per-block HLL sketches. The
// union is a register-wise max — commutative and associative — which is
// what makes this the one Summary field whose distinct count merges
// exactly across cluster shards without shipping the strings.
type UASummary struct {
	Samples  int     `json:"samples"`
	UniqueUA float64 `json:"uniqueUA"`
}

// Summary is the /v1/summary response payload: dataset identity and the
// cross-dataset aggregates.
type Summary struct {
	Seed         uint64              `json:"seed"`
	NumASes      int                 `json:"numASes"`
	WorldBlocks  int                 `json:"worldBlocks"`
	Days         int                 `json:"days"`
	DailyStart   int                 `json:"dailyStart"`
	DailyLen     int                 `json:"dailyLen"`
	Weeks        int                 `json:"weeks"`
	ActiveBlocks int                 `json:"activeBlocks"`
	DailyUnion   int                 `json:"dailyUnion"`
	YearUnion    int                 `json:"yearUnion"`
	ICMPUnion    int                 `json:"icmpUnion"`
	Daily        core.DatasetSummary `json:"daily"`
	Weekly       core.DatasetSummary `json:"weekly"`
	Recapture    RecaptureSummary    `json:"recapture"`
	Churn        ChurnSummary        `json:"churn"`
	UA           UASummary           `json:"ua"`
}

// NumBlocks returns the number of indexed (active) /24 blocks.
func (x *Index) NumBlocks() int { return len(x.keys) }

// Epoch returns the publish counter this snapshot was stamped with.
func (x *Index) Epoch() uint64 { return x.epoch }

// DailyLen returns the length of the indexed daily window.
func (x *Index) DailyLen() int { return x.days }

// Summary returns the dataset-level aggregates.
func (x *Index) Summary() Summary { return x.summary }

// SummaryPartial returns this index's mergeable share of the dataset
// summary — what a cluster shard serves on /v1/cluster/summary. For an
// unpartitioned index it describes the whole dataset, and finalizing
// it reproduces Summary exactly. The returned value shares immutable
// backing arrays with the index; callers must not mutate it (Merge
// clones before folding).
func (x *Index) SummaryPartial() SummaryPartial { return *x.partial }

// blockIndex binary-searches the sorted key array.
func (x *Index) blockIndex(blk ipv4.Block) (int, bool) {
	i := sort.Search(len(x.keys), func(i int) bool { return x.keys[i] >= blk })
	if i == len(x.keys) || x.keys[i] != blk {
		return i, false
	}
	return i, true
}

// Block returns the rollup view for blk; ok is false when the block had
// no activity in the daily window.
func (x *Index) Block(blk ipv4.Block) (BlockView, bool) {
	i, ok := x.blockIndex(blk)
	if !ok {
		return BlockView{}, false
	}
	return x.blocks[i].view, true
}

// Blocks returns the sorted list of indexed blocks.
func (x *Index) Blocks() []ipv4.Block { return x.keys }

// enrichment is the routing/registry/world/rDNS join for one block,
// shared by the address and block views so the two endpoints cannot
// drift on defaults.
type enrichment struct {
	as      uint32
	prefix  string
	country string
	rir     string
	pattern string
	rdns    string
}

// enrich copies the join into a block's view.
func (e *enrichment) enrich(v *BlockView) {
	v.AS = e.as
	v.Prefix = e.prefix
	v.Country = e.country
	v.RIR = e.rir
	v.Pattern = e.pattern
	v.RDNS = e.rdns
}

// joinBlock computes the enrichment for any block, active or not.
func (x *Index) joinBlock(blk ipv4.Block) enrichment {
	return join(x.routing, x.world, x.tags, blk)
}

// join is the routing/registry/world/rDNS lookup behind joinBlock,
// shared with the incremental Applier so both construction paths
// enrich identically.
func join(routing *bgp.Table, world *synthnet.World, tags *rdns.TagIndex, blk ipv4.Block) enrichment {
	e := enrichment{rir: registry.ARIN.String()} // unattributed space reports ARIN
	if r, ok := routing.Lookup(blk.First()); ok {
		e.as = uint32(r.Origin)
		e.prefix = r.Prefix.String()
	}
	if a, ok := world.Registry.LookupBlock(blk); ok {
		e.country = string(a.Country)
		e.rir = a.RIR.String()
	}
	if info, ok := world.BlockInfo(blk); ok {
		e.pattern = info.Policy.String()
	}
	tag, _ := tags.Lookup(blk) // a miss reports Untagged
	e.rdns = tag.String()
	return e
}

// Addr returns the per-address view for a. The view is always
// well-formed; Active reports whether the address appeared in the daily
// window.
func (x *Index) Addr(a ipv4.Addr) AddrView {
	blk := a.Block()
	e := x.joinBlock(blk)
	v := AddrView{
		Addr:     a.String(),
		Block:    blk.String(),
		AS:       e.as,
		Prefix:   e.prefix,
		Country:  e.country,
		RIR:      e.rir,
		Pattern:  e.pattern,
		RDNS:     e.rdns,
		FirstDay: -1,
		LastDay:  -1,
	}
	v.ICMPResponder = x.icmp.Contains(a)
	v.Server = x.servers.Contains(a)
	v.Router = x.routers.Contains(a)

	i, ok := x.blockIndex(blk)
	if !ok {
		return v
	}
	bd := &x.blocks[i]
	h := int(a.Host())
	var buf [8]uint64
	tl := x.timeline(buf[:0], bd, h, nil)
	days := 0
	for _, w := range tl {
		days += bits.OnesCount64(w)
	}
	if days == 0 {
		return v
	}
	v.Active = true
	v.ActiveDays = days
	v.FirstDay = firstBit(tl)
	v.LastDay = lastBit(tl)
	v.Timeline = timelineHex(tl)
	if bd.traffic != nil {
		v.Hits = bd.traffic.hits[h]
		if da := int(bd.traffic.daysActive[h]); da > 0 {
			v.MeanDailyHits = bd.traffic.hits[h] / float64(da)
		}
	}
	return v
}

// CheckPrefix validates a prefix for the prefix endpoints: prefixes
// shorter than /8 are rejected to bound response size. The router and
// every shard apply the same rule, so validation errors are identical
// wherever a request lands.
func CheckPrefix(p ipv4.Prefix) error {
	if p.Bits() < 8 {
		return fmt.Errorf("query: prefix %v too broad (min /8)", p)
	}
	return nil
}

// Prefix aggregates the indexed blocks covered by p. maxBlocks caps the
// embedded per-block list (0 = no list); the aggregate always covers
// every active block. Prefixes shorter than /8 are rejected to bound
// response size.
//
// Prefix is implemented as the one-partial case of the cluster merge,
// so a routed cross-shard aggregate equals the single-node answer by
// construction rather than by parallel maintenance of two folds.
func (x *Index) Prefix(p ipv4.Prefix, maxBlocks int) (PrefixView, error) {
	part, err := x.PrefixPartial(p, maxBlocks)
	if err != nil {
		return PrefixView{}, err
	}
	return MergePrefixPartials([]PrefixPartial{part}, maxBlocks)
}

// AS returns the footprint view for asn; ok is false when the index
// does not know the AS. Like Prefix, it is the one-partial case of the
// cluster merge.
func (x *Index) AS(asn bgp.ASN) (ASView, bool) {
	return MergeASPartials([]ASPartial{x.ASPartial(asn)})
}

// ASNs returns, sorted, every AS the index knows: the world's, plus the
// unrouted AS 0 when the index has activity outside the routing table.
func (x *Index) ASNs() []bgp.ASN {
	out := make([]bgp.ASN, len(x.ases))
	for i := range x.ases {
		out[i] = bgp.ASN(x.ases[i].AS)
	}
	return out
}

// firstBit returns the index of the lowest set bit across words.
func firstBit(words []uint64) int {
	for i, w := range words {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// lastBit returns the index of the highest set bit across words.
func lastBit(words []uint64) int {
	for i := len(words) - 1; i >= 0; i-- {
		if words[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(words[i])
		}
	}
	return -1
}

// timelineHex renders a packed timeline as fixed-width hex, one 16-char
// group per word, least-significant word (earliest days) first; bit d of
// the timeline is day d of the daily window.
func timelineHex(words []uint64) string {
	var b strings.Builder
	b.Grow(len(words) * 16)
	for _, w := range words {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}
