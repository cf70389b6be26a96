// Package scan implements the active-measurement substitute: a
// ZMap-style scanner that probes targets in a pseudorandom order
// (visiting every target exactly once, like ZMap's cyclic-group address
// randomization), plus campaign assembly over the simulator's
// responsiveness snapshots and traceroute/service surfaces.
package scan

import "fmt"

// Permutation iterates a pseudorandom permutation of [0, n): every
// element is visited exactly once before Next reports done.
//
// ZMap permutes the full 2^32 address space by walking the
// multiplicative group modulo the prime 2^32+15. For arbitrary target
// counts we use the equivalent classical construction with bounded
// skip overhead: a full-period LCG over the next power of two
// (Hull–Dobell theorem guarantees period m when c is odd and a ≡ 1
// mod 4), discarding values >= n. At most half the iterates are
// discarded, so Next is amortized O(1).
type Permutation struct {
	n       uint64
	m       uint64 // power-of-two modulus >= n
	a, c    uint64
	cur     uint64
	emitted uint64
}

// NewPermutation creates a permutation of [0, n) seeded by seed.
// n must be in (0, 2^32].
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	if n == 0 || n > 1<<32 {
		return nil, fmt.Errorf("scan: invalid permutation size %d", n)
	}
	m := uint64(1)
	for m < n {
		m <<= 1
	}
	p := &Permutation{
		n: n,
		m: m,
		// Derive multiplier and increment from the seed while keeping
		// the Hull–Dobell conditions: a ≡ 1 (mod 4), c odd.
		a: (seed<<2 | 1) % m,
		c: (seed>>3)<<1%m | 1,
	}
	if p.a%4 != 1 {
		p.a = p.a&^3 | 1
	}
	if p.a == 0 || p.a >= m {
		p.a = 5 % m
		if p.a == 0 {
			p.a = 1
		}
	}
	p.cur = seed % m
	return p, nil
}

// Next returns the next element of the permutation. ok is false when
// all n elements have been emitted.
func (p *Permutation) Next() (v uint64, ok bool) {
	for p.emitted < p.n {
		cur := p.cur
		p.cur = (p.a*p.cur + p.c) % p.m
		if cur < p.n {
			p.emitted++
			return cur, true
		}
	}
	return 0, false
}
