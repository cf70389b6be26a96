package ipv4

import "math/bits"

// Bitmap256 is a 256-bit bitmap indexed by the host octet of a /24 block.
// The zero value is empty and ready to use.
type Bitmap256 [4]uint64

// Set sets bit h.
func (b *Bitmap256) Set(h byte) { b[h>>6] |= 1 << (h & 63) }

// Clear clears bit h.
func (b *Bitmap256) Clear(h byte) { b[h>>6] &^= 1 << (h & 63) }

// Test reports whether bit h is set.
func (b *Bitmap256) Test(h byte) bool { return b[h>>6]&(1<<(h&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap256) Count() int {
	return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1]) +
		bits.OnesCount64(b[2]) + bits.OnesCount64(b[3])
}

// IsEmpty reports whether no bit is set.
func (b *Bitmap256) IsEmpty() bool { return b[0]|b[1]|b[2]|b[3] == 0 }

// UnionWith ORs o into b.
func (b *Bitmap256) UnionWith(o *Bitmap256) {
	b[0] |= o[0]
	b[1] |= o[1]
	b[2] |= o[2]
	b[3] |= o[3]
}

// IntersectWith ANDs o into b.
func (b *Bitmap256) IntersectWith(o *Bitmap256) {
	b[0] &= o[0]
	b[1] &= o[1]
	b[2] &= o[2]
	b[3] &= o[3]
}

// AndNotWith clears bits of b that are set in o.
func (b *Bitmap256) AndNotWith(o *Bitmap256) {
	b[0] &^= o[0]
	b[1] &^= o[1]
	b[2] &^= o[2]
	b[3] &^= o[3]
}

// IntersectCount returns the number of bits set in both b and o.
func (b *Bitmap256) IntersectCount(o *Bitmap256) int {
	return bits.OnesCount64(b[0]&o[0]) + bits.OnesCount64(b[1]&o[1]) +
		bits.OnesCount64(b[2]&o[2]) + bits.OnesCount64(b[3]&o[3])
}

// AndNotCount returns the number of bits set in b but not in o.
func (b *Bitmap256) AndNotCount(o *Bitmap256) int {
	return bits.OnesCount64(b[0]&^o[0]) + bits.OnesCount64(b[1]&^o[1]) +
		bits.OnesCount64(b[2]&^o[2]) + bits.OnesCount64(b[3]&^o[3])
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap256) ForEach(fn func(h byte)) {
	for w := 0; w < 4; w++ {
		word := b[w]
		for word != 0 {
			t := bits.TrailingZeros64(word)
			fn(byte(w<<6 + t))
			word &= word - 1
		}
	}
}

// CountRange returns the number of set bits h with lo <= h <= hi.
func (b *Bitmap256) CountRange(lo, hi byte) int {
	if lo > hi {
		return 0
	}
	n := 0
	for w := int(lo) >> 6; w <= int(hi)>>6; w++ {
		word := b[w]
		base := w << 6
		if base < int(lo) {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if base+63 > int(hi) {
			word &= ^uint64(0) >> (63 - uint(hi)&63)
		}
		n += bits.OnesCount64(word)
	}
	return n
}
