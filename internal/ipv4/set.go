package ipv4

import "slices"

// Set is a sparse set of IPv4 addresses stored as one Bitmap256 per
// populated /24 block. It is not safe for concurrent mutation.
type Set struct {
	m map[Block]*Bitmap256
	n int // cached cardinality
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[Block]*Bitmap256)} }

// Add inserts a into the set.
func (s *Set) Add(a Addr) {
	blk := a.Block()
	bm := s.m[blk]
	if bm == nil {
		bm = new(Bitmap256)
		s.m[blk] = bm
	}
	if !bm.Test(a.Host()) {
		bm.Set(a.Host())
		s.n++
	}
}

// AddBlockBitmap ORs an entire /24 bitmap into the set.
func (s *Set) AddBlockBitmap(blk Block, bm *Bitmap256) {
	if bm.IsEmpty() {
		return
	}
	dst := s.m[blk]
	if dst == nil {
		cp := *bm
		s.m[blk] = &cp
		s.n += bm.Count()
		return
	}
	s.unionInto(dst, bm)
}

func (s *Set) unionInto(dst, bm *Bitmap256) {
	s.n -= dst.Count()
	dst.UnionWith(bm)
	s.n += dst.Count()
}

// NewSetOwning builds a set from parallel (block, bitmap) records and
// takes ownership of bitmaps: the set's blocks point into that one
// array, and its map is sized once for len(blocks) — against one heap
// copy per block and several map growths when the same records go
// through AddBlockBitmap. The semantics are AddBlockBitmap's: a repeated
// block unions into its first record, an all-zero bitmap adds nothing.
func NewSetOwning(blocks []Block, bitmaps []Bitmap256) *Set {
	s := &Set{m: make(map[Block]*Bitmap256, len(blocks))}
	for i, blk := range blocks {
		bm := &bitmaps[i]
		if bm.IsEmpty() {
			continue
		}
		if dst := s.m[blk]; dst != nil {
			s.unionInto(dst, bm)
			continue
		}
		s.m[blk] = bm
		s.n += bm.Count()
	}
	return s
}

// Contains reports whether a is in the set.
func (s *Set) Contains(a Addr) bool {
	bm := s.m[a.Block()]
	return bm != nil && bm.Test(a.Host())
}

// Len returns the number of addresses in the set.
func (s *Set) Len() int { return s.n }

// NumBlocks returns the number of /24 blocks with at least one member.
func (s *Set) NumBlocks() int { return len(s.m) }

// BlockBitmap returns the bitmap for blk, or nil if the block is empty.
// The returned bitmap is shared with the set; callers must not modify it.
func (s *Set) BlockBitmap(blk Block) *Bitmap256 { return s.m[blk] }

// BlockCount returns the number of set addresses within blk.
func (s *Set) BlockCount(blk Block) int {
	if bm := s.m[blk]; bm != nil {
		return bm.Count()
	}
	return 0
}

// Blocks returns the populated blocks in ascending order.
func (s *Set) Blocks() []Block {
	out := make([]Block, 0, len(s.m))
	for b := range s.m {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// ForEachBlock calls fn for every populated block in unspecified order.
func (s *Set) ForEachBlock(fn func(Block, *Bitmap256)) {
	for b, bm := range s.m {
		fn(b, bm)
	}
}

// ForEach calls fn for every address, grouped by block, hosts ascending
// within each block. Block order is ascending.
func (s *Set) ForEach(fn func(Addr)) {
	for _, blk := range s.Blocks() {
		bm := s.m[blk]
		bm.ForEach(func(h byte) { fn(blk.Addr(h)) })
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{m: make(map[Block]*Bitmap256, len(s.m)), n: s.n}
	for b, bm := range s.m {
		cp := *bm
		out.m[b] = &cp
	}
	return out
}

// FilterBlocks returns a new set holding only the members whose /24
// block satisfies keep — the block-partitioning primitive behind
// cluster sharding (a partition of the block space yields disjoint
// filtered sets whose cardinalities sum to the original's). The kept
// bitmaps are copied into one array the new set owns.
func (s *Set) FilterBlocks(keep func(Block) bool) *Set {
	blocks := make([]Block, 0, len(s.m))
	for b := range s.m {
		if keep(b) {
			blocks = append(blocks, b)
		}
	}
	bitmaps := make([]Bitmap256, len(blocks))
	for i, b := range blocks {
		bitmaps[i] = *s.m[b]
	}
	return NewSetOwning(blocks, bitmaps)
}

// UnionWith adds every member of o to s.
func (s *Set) UnionWith(o *Set) {
	for b, bm := range o.m {
		s.AddBlockBitmap(b, bm)
	}
}

// Union returns a new set containing members of either set.
func (s *Set) Union(o *Set) *Set {
	out := s.Clone()
	out.UnionWith(o)
	return out
}

// IntersectCount returns |s ∩ o| without materializing the intersection.
func (s *Set) IntersectCount(o *Set) int {
	small, big := s, o
	if len(big.m) < len(small.m) {
		small, big = big, small
	}
	n := 0
	for b, bm := range small.m {
		if obm := big.m[b]; obm != nil {
			n += bm.IntersectCount(obm)
		}
	}
	return n
}

// DiffCount returns |s \ o|.
func (s *Set) DiffCount(o *Set) int {
	n := 0
	for b, bm := range s.m {
		if obm := o.m[b]; obm != nil {
			n += bm.AndNotCount(obm)
		} else {
			n += bm.Count()
		}
	}
	return n
}

// Diff returns a new set with members of s not in o.
func (s *Set) Diff(o *Set) *Set {
	out := NewSet()
	for b, bm := range s.m {
		d := *bm
		if obm := o.m[b]; obm != nil {
			d.AndNotWith(obm)
		}
		if !d.IsEmpty() {
			cp := d
			out.m[b] = &cp
			out.n += cp.Count()
		}
	}
	return out
}

// Equal reports whether the two sets have identical membership.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n || len(s.m) != len(o.m) {
		return false
	}
	for b, bm := range s.m {
		obm := o.m[b]
		if obm == nil || *obm != *bm {
			return false
		}
	}
	return true
}
