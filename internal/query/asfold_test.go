package query

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/synthnet"
)

// walkASPartial is the reference for the publish's AS fold: asn's
// partial found by walking every block record, the way ASPartial used
// to answer each request. Identity comes from the world; activity
// outside the routing table is the unrouted AS 0, whose identity comes
// from its first block.
func walkASPartial(world *synthnet.World, blocks []blockData, asn bgp.ASN) ASPartial {
	p := ASPartial{AS: uint32(asn)}
	if as, ok := world.ASIndex[asn]; ok {
		p.Found, p.Kind, p.Country, p.RIR = true, as.Kind.String(), string(as.Country), as.RIR.String()
		for _, pfx := range as.Prefixes {
			p.Prefixes = append(p.Prefixes, pfx.String())
			p.RoutedBlocks += pfx.NumBlocks()
		}
	}
	for i := range blocks {
		v := &blocks[i].view
		if v.AS != p.AS {
			continue
		}
		if !p.Found {
			p.Found, p.Kind, p.RIR = true, "unrouted", v.RIR
		}
		p.ActiveBlocks++
		p.ActiveAddrs += v.FD
		p.Hits = append(p.Hits, v.TotalHits)
	}
	return p
}

// probeASNs is every AS of world, the unrouted AS 0 and one the world
// does not number.
func probeASNs(world *synthnet.World) []bgp.ASN {
	asns := []bgp.ASN{0, 1}
	for _, as := range world.ASes {
		asns = append(asns, as.Num)
	}
	return asns
}

// checkASPartials holds every probed AS's partial on x to the walk.
func checkASPartials(t *testing.T, name string, x *Index) {
	t.Helper()
	for _, asn := range probeASNs(x.world) {
		if got, want := x.ASPartial(asn), walkASPartial(x.world, x.blocks, asn); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ASPartial(%v) = %+v, the walk gives %+v", name, asn, got, want)
		}
	}
}

// TestASPartialMatchesWalk holds the fold to the per-request walk it
// replaced on each shard of a 2-way split, built and reloaded from its
// snapshot, split inside an AS so that AS has blocks on both sides.
func TestASPartialMatchesWalk(t *testing.T) {
	d := testData(t)
	whole := testIndex(t)
	// The first block from the middle on whose AS also owns the block
	// before it.
	keys := whole.Blocks()
	i := whole.NumBlocks() / 2
	for i < len(keys) && whole.blocks[i-1].view.AS != whole.blocks[i].view.AS {
		i++
	}
	if i == len(keys) {
		t.Fatal("no AS owns two adjacent active blocks in the upper half")
	}
	mid := keys[i]
	for s, keep := range []func(ipv4.Block) bool{
		func(b ipv4.Block) bool { return b < mid },
		func(b ipv4.Block) bool { return b >= mid },
	} {
		x, err := Build(obs.FilterSource(d, keep), Options{Keep: keep})
		if err != nil {
			t.Fatal(err)
		}
		checkASPartials(t, fmt.Sprintf("shard %d/2", s), x)
		l, err := DecodeSnapshot(EncodeSnapshot(x, nil))
		if err != nil {
			t.Fatal(err)
		}
		checkASPartials(t, fmt.Sprintf("shard %d/2, loaded", s), l.Index)
	}
}

// TestFoldASUnrouted folds blocks of which every fifth lies outside the
// routing table, each with its own RIR: the unrouted AS 0 joins the
// fold in AS order and takes its identity from its first block.
func TestFoldASUnrouted(t *testing.T) {
	x := testIndex(t)
	blocks := slices.Clone(x.blocks)
	for i := 0; i < len(blocks); i += 5 {
		blocks[i].view.AS, blocks[i].view.RIR = 0, fmt.Sprintf("rir-%d", i)
	}
	y := &Index{world: x.world, blocks: blocks, ases: foldAS(asTable(x.world), blocks)}
	if len(y.ases) != len(x.world.ASes)+1 || y.ases[0].AS != 0 {
		t.Fatalf("fold holds %d ASes starting at AS %d, want the world's %d and AS 0 first",
			len(y.ases), y.ases[0].AS, len(x.world.ASes))
	}
	checkASPartials(t, "unrouted", y)
}

// asPartialSink keeps the compiler from discarding the lookups under
// measurement.
var asPartialSink ASPartial

// TestASPartialZeroAllocs holds every AS lookup — known, unrouted and
// unknown — to no allocation: it returns the partial the publish folded.
func TestASPartialZeroAllocs(t *testing.T) {
	x := testIndex(t)
	for _, asn := range probeASNs(x.world) {
		if n := testing.AllocsPerRun(10, func() { asPartialSink = x.ASPartial(asn) }); n != 0 {
			t.Errorf("ASPartial(%v) allocated %.0f objects, want 0", asn, n)
		}
	}
}
