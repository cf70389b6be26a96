// Package rdns synthesizes reverse-DNS (PTR) records for address blocks
// and implements the keyword-based assignment-practice tagger the paper
// uses in Section 5.3: blocks whose consistent PTR names contain
// "static" are tagged static, and names containing "dynamic" or "pool"
// are tagged dynamic — a well-known methodology [24, 30, 35].
//
// The tag is read off the names, never inferred from a zone's style, and
// every process start tags a whole world (~3,500 zones of 256 hosts).
// A name's tag depends only on its variant (host-, static-, dynamic-…
// pool., pool-) and the zone's domain, so a zone draws every host's
// variant but builds and matches a real name once per variant, appended
// into a caller-owned buffer. Zone.Lookup is the same builder behind a
// string conversion.
package rdns

import (
	"bytes"
	"sort"
	"strconv"

	"ipscope/internal/ipv4"
	"ipscope/internal/xrand"
)

// Tag is the assignment-practice label inferred from PTR names.
type Tag uint8

// Possible tags.
const (
	Untagged Tag = iota // no consistent keyword evidence
	Static              // names suggest static assignment
	Dynamic             // names suggest dynamic assignment (pools)
)

// String returns the tag name.
func (t Tag) String() string {
	switch t {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	}
	return "untagged"
}

// NamingStyle controls how a block's PTR names are generated.
type NamingStyle uint8

// Naming styles for synthetic PTR zones.
const (
	StyleNone    NamingStyle = iota // no PTR records at all
	StyleStatic                     // "static-1-2-3-4.example.net"
	StyleDynamic                    // "dynamic-1-2-3-4.pool.example.net"
	StyleGeneric                    // "host-1-2-3-4.example.net" (no keywords)
)

// Zone generates PTR names for one /24 block.
type Zone struct {
	Block  ipv4.Block
	Style  NamingStyle
	Domain string
	// Noise is the fraction of names that deviate from the style
	// (missing records, generic names), modelling real-world zones.
	Noise float64
	seed  uint64
}

// NewZone creates a PTR zone for blk. Domain defaults to "example.net".
func NewZone(blk ipv4.Block, style NamingStyle, domain string, noise float64, seed uint64) *Zone {
	if domain == "" {
		domain = "example.net"
	}
	return &Zone{Block: blk, Style: style, Domain: domain, Noise: noise, seed: seed}
}

// nameBuf holds the longest name a default-domain zone produces
// ("dynamic-255-255-255-255.pool.example.net", 40 bytes) with room for
// any real domain; a longer Domain only makes append spill to the heap.
const nameBuf = 128

// hostState is the running state of xrand.Derive(z.seed, "<block>/<h>")
// after the "<block>/" every host of the zone shares; hostRand finishes
// it for one host.
func (z *Zone) hostState() uint64 {
	var b [11]byte // ten digits of a uint32 and the slash
	return xrand.Absorb(z.seed, append(strconv.AppendUint(b[:0], uint64(z.Block), 10), '/'))
}

func hostRand(state uint64, h byte) uint64 {
	var b [3]byte
	return xrand.Splitmix64(xrand.Absorb(state, strconv.AppendUint(b[:0], uint64(h), 10)))
}

// variant is the shape of one host's name: the prefix it carries, with
// ".pool." before the domain for varDynamic, or no record at all. A
// name's tag depends only on its variant and the zone's domain: the
// rest of it is the host's dotted quad as four digit runs joined by
// '-', and no keyword contains a digit or spans a run's lone '-'
// ("dyn-" counts only as the name's prefix, which the variant fixes).
type variant uint8

const (
	varMissing variant = iota
	varHost
	varStatic
	varDynamic
	varPool
	numVariants
)

var variantPrefix = [numVariants]string{"", "host-", "static-", "dynamic-", "pool-"}

// hostVariant draws host h's deterministic noise and picks its name's
// variant: the one definition of that choice, which appendName spells
// out and ClassifyZone counts. state is z.hostState().
func (z *Zone) hostVariant(state uint64, h byte) variant {
	if z.Style == StyleNone {
		return varMissing
	}
	r := hostRand(state, h)
	switch {
	case float64(r%1000)/1000 < z.Noise:
		if r%3 == 0 {
			return varMissing
		}
	case z.Style == StyleStatic:
		return varStatic
	case z.Style == StyleDynamic:
		if r%2 == 0 {
			return varDynamic
		}
		return varPool
	}
	return varHost
}

// appendName appends host h's PTR name of variant v to buf — nothing for
// a missing record (every name that exists is non-empty). It is the one
// definition of a zone's names: Lookup returns it as a string and
// ClassifyZone matches it in place.
func (z *Zone) appendName(buf []byte, v variant, h byte) []byte {
	if v == varMissing {
		return buf
	}
	buf = append(buf, variantPrefix[v]...)
	a := z.Block.Addr(h)
	for shift := 24; shift >= 0; shift -= 8 {
		buf = strconv.AppendUint(buf, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			buf = append(buf, '-')
		}
	}
	buf = append(buf, '.')
	if v == varDynamic {
		buf = append(buf, "pool."...)
	}
	return append(buf, z.Domain...)
}

// Lookup returns the PTR name for host h in the zone, or "" if the
// record does not exist.
func (z *Zone) Lookup(h byte) string {
	var buf [nameBuf]byte
	return string(z.appendName(buf[:0], z.hostVariant(z.hostState(), h), h))
}

// ClassifyName tags a single PTR name by keyword. DNS names compare
// case-insensitively in ASCII only (RFC 4343), and so does the match.
func ClassifyName(name string) Tag {
	var buf [nameBuf]byte
	return classifyFolding(append(buf[:0], name...))
}

// classifyFolding is the keyword matcher; it lower-cases name in place.
func classifyFolding(name []byte) Tag {
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			name[i] = c + ('a' - 'A')
		}
	}
	switch {
	case bytes.Contains(name, kwStatic):
		return Static
	case bytes.Contains(name, kwDynamic), bytes.Contains(name, kwPool),
		bytes.Contains(name, kwDHCP), bytes.Contains(name, kwDynDot),
		bytes.HasPrefix(name, kwDynDash):
		return Dynamic
	}
	return Untagged
}

var (
	kwStatic  = []byte("static")
	kwDynamic = []byte("dynamic")
	kwPool    = []byte("pool")
	kwDHCP    = []byte("dhcp")
	kwDynDot  = []byte("dyn.")
	kwDynDash = []byte("dyn-")
)

// tally counts one block's resolvable names by tag.
type tally struct {
	byTag      [3]int
	resolvable int
}

// add matches one name (lower-casing it in place) and counts it for
// hosts hosts; an empty name is a missing record and counts for nothing.
func (t *tally) add(name []byte, hosts int) {
	if len(name) == 0 {
		return
	}
	t.resolvable += hosts
	t.byTag[classifyFolding(name)] += hosts
}

// tag applies the consistency threshold: a keyword tag wins when at
// least minConsistent of the resolvable names carry it and it outnumbers
// the other.
func (t *tally) tag(minConsistent float64) Tag {
	if t.resolvable == 0 {
		return Untagged
	}
	need := int(minConsistent * float64(t.resolvable))
	if need < 1 {
		need = 1
	}
	static, dynamic := t.byTag[Static], t.byTag[Dynamic]
	switch {
	case static >= need && static > dynamic:
		return Static
	case dynamic >= need && dynamic > static:
		return Dynamic
	}
	return Untagged
}

// ClassifyBlock tags a /24 block from its PTR names, requiring that at
// least minConsistent fraction of the resolvable names agree on a tag
// (the paper requires "consistent names"). lookup returns the PTR name
// for a host or "".
func ClassifyBlock(lookup func(h byte) string, minConsistent float64) Tag {
	var t tally
	var buf [nameBuf]byte
	for h := 0; h < 256; h++ {
		t.add(append(buf[:0], lookup(byte(h))...), 1)
	}
	return t.tag(minConsistent)
}

// ClassifyZone is ClassifyBlock over z's names. Each host's variant is
// drawn (noise and missing records are what the threshold is for), but
// since a name's tag follows from its variant, only the first host of
// each variant has its name built and matched, in one stack buffer: at
// most four names a zone, at no allocation.
func ClassifyZone(z *Zone, minConsistent float64) Tag {
	var hosts [numVariants]int
	var first [numVariants]byte
	state := z.hostState()
	for h := 0; h < 256; h++ {
		v := z.hostVariant(state, byte(h))
		if hosts[v] == 0 {
			first[v] = byte(h)
		}
		hosts[v]++
	}
	var t tally
	var buf [nameBuf]byte
	for v := varHost; v < numVariants; v++ {
		if hosts[v] > 0 {
			t.add(z.appendName(buf[:0], v, first[v]), hosts[v])
		}
	}
	return t.tag(minConsistent)
}

// BlockTag pairs a /24 block with its classified tag, the unit a
// TagIndex is built from.
type BlockTag struct {
	Block ipv4.Block
	Tag   Tag
}

// TagIndex is an immutable block→tag lookup table. Classifying a block
// draws 256 hosts' name variants and builds and matches one name per
// variant — about ten microseconds and no allocation, cheap enough to
// tag every world block at start-up but not to repeat per request; a
// TagIndex is classified once (typically across a worker pool) and then
// answers lookups with one binary search over a block-sorted array.
type TagIndex struct {
	blocks []ipv4.Block
	tags   []Tag
}

// NewTagIndex builds a TagIndex from classified pairs. The input may be
// in any order; on duplicate blocks the last pair wins.
func NewTagIndex(pairs []BlockTag) *TagIndex {
	sorted := append([]BlockTag(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Block < sorted[j].Block })
	t := &TagIndex{
		blocks: make([]ipv4.Block, 0, len(sorted)),
		tags:   make([]Tag, 0, len(sorted)),
	}
	for i, p := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Block == p.Block {
			continue // a later duplicate supersedes this pair
		}
		t.blocks = append(t.blocks, p.Block)
		t.tags = append(t.tags, p.Tag)
	}
	return t
}

// Len returns the number of indexed blocks.
func (t *TagIndex) Len() int { return len(t.blocks) }

// Tags enumerates the indexed pairs in ascending block order. The
// returned slice is freshly allocated; feeding it back to NewTagIndex
// reproduces an identical index, which is what makes the pair list a
// canonical serialization unit.
func (t *TagIndex) Tags() []BlockTag {
	pairs := make([]BlockTag, len(t.blocks))
	for i, blk := range t.blocks {
		pairs[i] = BlockTag{Block: blk, Tag: t.tags[i]}
	}
	return pairs
}

// Lookup returns the tag for blk and whether the block is indexed.
func (t *TagIndex) Lookup(blk ipv4.Block) (Tag, bool) {
	i := sort.Search(len(t.blocks), func(i int) bool { return t.blocks[i] >= blk })
	if i == len(t.blocks) || t.blocks[i] != blk {
		return Untagged, false
	}
	return t.tags[i], true
}
