package ipv4

import (
	"math/rand"
	"slices"
	"testing"
)

func randomSets(seed int64, nsets, perSet int) []*Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Set, nsets)
	for i := range out {
		s := NewSet()
		for j := 0; j < perSet; j++ {
			s.Add(Addr(0x0a000000 + rng.Uint32()%(1<<14)))
		}
		out[i] = s
	}
	return out
}

func TestUnionAllMatchesSequential(t *testing.T) {
	sets := randomSets(1, 17, 500)
	want := NewSet()
	for _, s := range sets {
		want.UnionWith(s)
	}
	for _, w := range []int{1, 2, 5, 17, 100} {
		if got := UnionAll(sets, w); !got.Equal(want) {
			t.Fatalf("UnionAll(workers=%d) differs", w)
		}
	}
	// nil entries are skipped.
	sets[3] = nil
	mixed := UnionAll(sets, 4)
	ref := NewSet()
	for _, s := range sets {
		if s != nil {
			ref.UnionWith(s)
		}
	}
	if !mixed.Equal(ref) {
		t.Fatal("UnionAll with nil entry differs")
	}
	if UnionAll(nil, 4).Len() != 0 {
		t.Fatal("UnionAll(nil) not empty")
	}
}

func TestUnionBlocksMatchesUnionAll(t *testing.T) {
	sets := randomSets(3, 17, 500)
	want := UnionAll(sets, 1).Blocks()
	for _, w := range []int{1, 2, 5, 17, 100} {
		if got := UnionBlocks(sets, w); !slices.Equal(got, want) {
			t.Fatalf("UnionBlocks(workers=%d) = %d blocks, want %d", w, len(got), len(want))
		}
	}
	if got := UnionBlocks(nil, 4); len(got) != 0 {
		t.Fatalf("UnionBlocks(nil) = %v", got)
	}
}

func TestDiffCounts(t *testing.T) {
	sets := randomSets(2, 10, 300)
	as, bs := sets[:5], sets[5:]
	got := DiffCounts(as, bs, 3)
	for i := range as {
		if want := as[i].DiffCount(bs[i]); got[i] != want {
			t.Fatalf("pair %d: %d != %d", i, got[i], want)
		}
	}
}
