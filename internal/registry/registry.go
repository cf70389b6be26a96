// Package registry models the Regional Internet Registry (RIR) system:
// which registry and country each IPv4 address is registered to, RIR
// exhaustion dates, and ITU-style subscriber statistics.
package registry

import (
	"sort"
	"sync"
	"time"

	"ipscope/internal/ipv4"
)

// RIR identifies one of the five Regional Internet Registries.
type RIR uint8

// The five RIRs.
const (
	ARIN RIR = iota
	RIPE
	APNIC
	LACNIC
	AFRINIC
	numRIRs
)

// NumRIRs is the number of registries.
const NumRIRs = int(numRIRs)

// AllRIRs lists every registry in display order.
var AllRIRs = [NumRIRs]RIR{ARIN, RIPE, APNIC, LACNIC, AFRINIC}

var rirNames = [NumRIRs]string{"ARIN", "RIPE", "APNIC", "LACNIC", "AFRINIC"}

// String returns the registry's canonical name.
func (r RIR) String() string {
	if int(r) < NumRIRs {
		return rirNames[r]
	}
	return "UNKNOWN"
}

// ExhaustionDate returns the date the registry's free IPv4 pool was
// exhausted, per the paper's Figure 1 annotations. AFRINIC had not
// exhausted during the study period and reports ok=false.
func (r RIR) ExhaustionDate() (time.Time, bool) {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	switch r {
	case APNIC:
		return d(2011, time.April, 15), true
	case RIPE:
		return d(2012, time.September, 14), true
	case LACNIC:
		return d(2014, time.June, 10), true
	case ARIN:
		return d(2015, time.September, 24), true
	}
	return time.Time{}, false
}

// IANAExhaustion is the date the IANA central pool was exhausted.
var IANAExhaustion = time.Date(2011, time.February, 3, 0, 0, 0, 0, time.UTC)

// Country is an ISO 3166-1 alpha-2 country code, e.g. "US".
type Country string

// CountryInfo describes one country in the synthetic registry model.
type CountryInfo struct {
	Code Country
	RIR  RIR
	// BroadbandRank and CellularRank are 1-based ITU-style ranks by
	// subscriber counts (1 = most subscribers); 0 = unranked.
	BroadbandRank int
	CellularRank  int
	// Weight is the relative share of address space the country
	// receives when a synthetic world is generated.
	Weight float64
	// ICMPResponseRate is the prior probability that an active host in
	// this country responds to ICMP (the paper observes ~0.8 for CN
	// and ~0.25 for JP).
	ICMPResponseRate float64
}

// Countries is the built-in country table used for synthetic worlds.
// Ranks follow ITU 2015 as annotated in the paper's Figure 3(b).
var Countries = []CountryInfo{
	{"US", ARIN, 2, 3, 22, 0.45},
	{"CA", ARIN, 14, 30, 3, 0.5},
	{"CN", APNIC, 1, 1, 15, 0.80},
	{"JP", APNIC, 3, 7, 12, 0.25},
	{"IN", APNIC, 10, 2, 4, 0.55},
	{"KR", APNIC, 9, 25, 5, 0.45},
	{"AU", APNIC, 20, 36, 2, 0.5},
	{"BR", LACNIC, 7, 5, 8, 0.6},
	{"MX", LACNIC, 13, 11, 3, 0.55},
	{"AR", LACNIC, 15, 17, 2, 0.55},
	{"DE", RIPE, 4, 14, 10, 0.5},
	{"GB", RIPE, 8, 19, 8, 0.45},
	{"FR", RIPE, 5, 22, 8, 0.5},
	{"RU", RIPE, 6, 6, 7, 0.6},
	{"IT", RIPE, 12, 16, 5, 0.5},
	{"NL", RIPE, 16, 40, 3, 0.45},
	{"ZA", AFRINIC, 30, 24, 2, 0.5},
	{"NG", AFRINIC, 40, 9, 1.5, 0.55},
	{"EG", AFRINIC, 25, 18, 1.5, 0.55},
	{"KE", AFRINIC, 45, 35, 1, 0.5},
}

var (
	countryIndexOnce sync.Once
	countryIndex     []CountryInfo // Countries sorted by code
)

// CountryByCode returns the table entry for code. Lookups binary-search
// a code-sorted copy of Countries built on first use: the serving layer
// asks per request, so the scan the original table order implies is off
// the hot path.
func CountryByCode(code Country) (CountryInfo, bool) {
	countryIndexOnce.Do(func() {
		countryIndex = append([]CountryInfo(nil), Countries...)
		sort.Slice(countryIndex, func(i, j int) bool {
			return countryIndex[i].Code < countryIndex[j].Code
		})
	})
	i := sort.Search(len(countryIndex), func(i int) bool {
		return countryIndex[i].Code >= code
	})
	if i < len(countryIndex) && countryIndex[i].Code == code {
		return countryIndex[i], true
	}
	return CountryInfo{}, false
}

// Allocation records that a prefix is delegated to a country (and hence
// a registry).
type Allocation struct {
	Prefix  ipv4.Prefix
	Country Country
	RIR     RIR
	Date    time.Time
}

// Table maps addresses to their allocation. Lookups use the /24 block
// of the address: registry delegations are /24-aligned in practice and
// in our generator.
//
// Internally the table is a sorted list of non-overlapping block
// segments resolved once at construction, so a lookup is one binary
// search regardless of how large the delegated prefixes are (the
// previous implementation materialized a map entry per covered /24,
// which a single /8 delegation turns into 65536 entries).
type Table struct {
	allocs []Allocation
	segs   []segment
}

// segment is a run of /24 blocks [start, end] (inclusive) covered by
// allocs[idx].
type segment struct {
	start, end uint32
	idx        int32
}

// NewTable builds a lookup table over allocs. Later allocations win on
// block overlap.
func NewTable(allocs []Allocation) *Table {
	t := &Table{allocs: append([]Allocation(nil), allocs...)}

	// Boundary sweep: later allocations (larger index) win wherever
	// coverage overlaps, so the winner at any block is the maximum
	// active allocation index.
	type event struct {
		pos uint32 // first block at which the event takes effect
		idx int32
		add bool
	}
	events := make([]event, 0, 2*len(t.allocs))
	for i, a := range t.allocs {
		start := uint32(a.Prefix.FirstBlock())
		end := start + uint32(a.Prefix.NumBlocks()) // exclusive
		events = append(events,
			event{pos: start, idx: int32(i), add: true},
			event{pos: end, idx: int32(i), add: false})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].pos != events[j].pos {
			return events[i].pos < events[j].pos
		}
		// Removals before additions at the same boundary, so an
		// allocation ending exactly where another starts hands over
		// cleanly.
		return !events[i].add && events[j].add
	})

	var heap maxIdxHeap
	dead := make(map[int32]bool)
	cur := int32(-1)
	var segStart uint32
	for k := 0; k < len(events); {
		pos := events[k].pos
		for ; k < len(events) && events[k].pos == pos; k++ {
			if events[k].add {
				heap.push(events[k].idx)
			} else {
				dead[events[k].idx] = true
			}
		}
		top := int32(-1)
		for heap.len() > 0 {
			if dead[heap.top()] {
				delete(dead, heap.top())
				heap.pop()
				continue
			}
			top = heap.top()
			break
		}
		if top == cur {
			continue
		}
		if cur >= 0 {
			t.segs = append(t.segs, segment{start: segStart, end: pos - 1, idx: cur})
		}
		cur, segStart = top, pos
	}
	return t
}

// maxIdxHeap is a binary max-heap of allocation indices.
type maxIdxHeap []int32

func (h maxIdxHeap) len() int   { return len(h) }
func (h maxIdxHeap) top() int32 { return h[0] }
func (h *maxIdxHeap) push(v int32) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] >= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *maxIdxHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && (*h)[l] > (*h)[big] {
			big = l
		}
		if r < n && (*h)[r] > (*h)[big] {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
	}
}

// LookupBlock returns the allocation covering blk.
func (t *Table) LookupBlock(blk ipv4.Block) (Allocation, bool) {
	b := uint32(blk)
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].end >= b })
	if i == len(t.segs) || t.segs[i].start > b {
		return Allocation{}, false
	}
	return t.allocs[t.segs[i].idx], true
}

// RIROf returns the registry for a block, defaulting to ARIN for
// unallocated space (matching how unattributed space is reported).
func (t *Table) RIROf(blk ipv4.Block) RIR {
	if a, ok := t.LookupBlock(blk); ok {
		return a.RIR
	}
	return ARIN
}

// CountryOf returns the country code for a block, or "" if unallocated.
func (t *Table) CountryOf(blk ipv4.Block) Country {
	if a, ok := t.LookupBlock(blk); ok {
		return a.Country
	}
	return ""
}
