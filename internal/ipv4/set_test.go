package ipv4

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a := MustParseAddr("192.0.2.1")
	b := MustParseAddr("192.0.2.2")
	c := MustParseAddr("198.51.100.1")

	s.Add(a)
	s.Add(a) // duplicate
	s.Add(b)
	s.Add(c)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", s.NumBlocks())
	}
	if !s.Contains(a) || !s.Contains(b) || !s.Contains(c) {
		t.Fatal("missing members")
	}
}

func TestSetBlocksSorted(t *testing.T) {
	s := NewSet()
	for _, str := range []string{"203.0.113.1", "10.0.0.1", "192.0.2.1"} {
		s.Add(MustParseAddr(str))
	}
	blocks := s.Blocks()
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Fatalf("blocks not sorted: %v", blocks)
		}
	}
}

func TestSetForEachOrder(t *testing.T) {
	s := NewSet()
	addrs := []string{"10.0.0.5", "10.0.0.1", "10.0.1.7", "9.0.0.200"}
	for _, a := range addrs {
		s.Add(MustParseAddr(a))
	}
	var got []Addr
	s.ForEach(func(a Addr) { got = append(got, a) })
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("ForEach out of order: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("ForEach visited %d addrs", len(got))
	}
}

func randSet(rng *rand.Rand, n int) *Set {
	s := NewSet()
	for i := 0; i < n; i++ {
		// Confine to a few blocks to force collisions.
		blk := Block(0x0a0000 + uint32(rng.Intn(8)))
		s.Add(blk.Addr(byte(rng.Intn(256))))
	}
	return s
}

func TestSetAlgebraRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		a := randSet(rng, 300)
		b := randSet(rng, 300)
		inter := a.IntersectCount(b)
		if got := b.IntersectCount(a); got != inter {
			t.Fatalf("IntersectCount not symmetric: %d vs %d", inter, got)
		}
		u := a.Union(b)
		if u.Len() != a.Len()+b.Len()-inter {
			t.Fatalf("union inclusion-exclusion: %d != %d+%d-%d", u.Len(), a.Len(), b.Len(), inter)
		}
		d := a.Diff(b)
		if d.Len() != a.DiffCount(b) {
			t.Fatalf("Diff/DiffCount disagree")
		}
		if d.Len()+inter != a.Len() {
			t.Fatalf("diff partition: %d+%d != %d", d.Len(), inter, a.Len())
		}
		// Diff must not share members with b.
		if d.IntersectCount(b) != 0 {
			t.Fatal("diff intersects subtrahend")
		}
		// Union must contain both operands.
		bad := false
		a.ForEach(func(x Addr) {
			if !u.Contains(x) {
				bad = true
			}
		})
		if bad {
			t.Fatal("union missing member of a")
		}
	}
}

func TestSetCloneIndependence(t *testing.T) {
	s := NewSet()
	s.Add(MustParseAddr("10.0.0.1"))
	c := s.Clone()
	c.Add(MustParseAddr("10.0.0.2"))
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone not independent")
	}
	if !s.Equal(s.Clone()) {
		t.Fatal("clone should equal original")
	}
	if s.Equal(c) {
		t.Fatal("different sets reported equal")
	}
}

func TestSetAddBlockBitmap(t *testing.T) {
	s := NewSet()
	var bm Bitmap256
	bm.Set(1)
	bm.Set(2)
	blk := MustParseAddr("10.0.0.0").Block()
	s.AddBlockBitmap(blk, &bm)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Overlapping add keeps count correct.
	var bm2 Bitmap256
	bm2.Set(2)
	bm2.Set(3)
	s.AddBlockBitmap(blk, &bm2)
	if s.Len() != 3 {
		t.Fatalf("Len after overlap = %d", s.Len())
	}
	// Empty bitmap is a no-op and does not create a block.
	var empty Bitmap256
	s.AddBlockBitmap(Block(99), &empty)
	if s.NumBlocks() != 1 {
		t.Fatal("empty AddBlockBitmap created block")
	}
	// Mutating the source bitmap must not affect the set.
	bm.Set(200)
	if s.Contains(blk.Addr(200)) {
		t.Fatal("set aliases caller bitmap")
	}
}

// TestNewSetOwningMatchesAddBlockBitmap: adopting a record array gives
// the set AddBlockBitmap builds from the same records — repeated blocks
// unioned, empty bitmaps absent, cardinality exact — and the set stays
// independently mutable afterwards.
func TestNewSetOwningMatchesAddBlockBitmap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	blocks := make([]Block, 200)
	bitmaps := make([]Bitmap256, len(blocks))
	want := NewSet()
	for i := range blocks {
		blocks[i] = Block(r.Intn(60)) // few distinct blocks: many repeats
		if r.Intn(5) > 0 {            // one record in five stays empty
			for k := r.Intn(40); k >= 0; k-- {
				bitmaps[i].Set(byte(r.Intn(256)))
			}
		}
		want.AddBlockBitmap(blocks[i], &bitmaps[i])
	}
	got := NewSetOwning(blocks, bitmaps)
	if !got.Equal(want) || got.Len() != want.Len() || got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("owning set: %d addrs in %d blocks, AddBlockBitmap: %d in %d",
			got.Len(), got.NumBlocks(), want.Len(), want.NumBlocks())
	}
	got.ForEachBlock(func(b Block, bm *Bitmap256) {
		if bm.IsEmpty() {
			t.Fatalf("block %v holds an empty bitmap", b)
		}
	})
	a := Block(1000).Addr(9)
	got.Add(a)
	if !got.Contains(a) || want.Contains(a) {
		t.Fatal("the owning set is not independently mutable")
	}
	if s := NewSetOwning(nil, nil); s.Len() != 0 || s.NumBlocks() != 0 {
		t.Fatal("no records should give the empty set")
	}
}

func TestSetEqualProperty(t *testing.T) {
	f := func(hosts []uint8) bool {
		s := NewSet()
		blk := Block(0x0c0000)
		for _, h := range hosts {
			s.Add(blk.Addr(h))
		}
		return s.Equal(s.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
