// Package ipv4 provides compact IPv4 address, prefix and /24-block
// arithmetic, plus bit-parallel address sets used throughout ipscope.
//
// The package is deliberately minimal and allocation-free on the hot
// paths: an Addr is a uint32, a Block identifies a /24 by its upper 24
// bits, and per-block activity is a 256-bit bitmap (Bitmap256).
package ipv4

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order (a.b.c.d == a<<24|b<<16|c<<8|d).
type Addr uint32

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	var a uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipv4: invalid address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ipv4: invalid address %q: octet %q", s, part)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String formats the address as a dotted quad.
func (a Addr) String() string {
	var b [15]byte
	return string(a.appendTo(b[:0]))
}

func (a Addr) appendTo(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(a>>24&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(a>>16&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(a>>8&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(a&0xff), 10)
	return dst
}

// Block returns the /24 block containing a.
func (a Addr) Block() Block { return Block(a >> 8) }

// Host returns the low octet of a (its index within its /24).
func (a Addr) Host() byte { return byte(a) }

// Block identifies a /24 CIDR block by its upper 24 bits.
type Block uint32

// Addr returns the address at host index h within the block.
func (b Block) Addr(h byte) Addr { return Addr(uint32(b)<<8 | uint32(h)) }

// First returns the network address of the block.
func (b Block) First() Addr { return b.Addr(0) }

// Prefix returns the block as a /24 prefix.
func (b Block) Prefix() Prefix { return Prefix{addr: b.First(), bits: 24} }

// String formats the block in CIDR notation, e.g. "192.0.2.0/24".
func (b Block) String() string { return b.Prefix().String() }

// Prefix is an IPv4 CIDR prefix. The zero Prefix is 0.0.0.0/0.
type Prefix struct {
	addr Addr
	bits uint8
}

// NewPrefix returns the prefix addr/bits with host bits zeroed.
func NewPrefix(addr Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix length %d", bits)
	}
	return Prefix{addr: addr & maskFor(bits), bits: uint8(bits)}, nil
}

// MustNewPrefix is NewPrefix that panics on error.
func MustNewPrefix(addr Addr, bits int) Prefix {
	p, err := NewPrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation, e.g. "10.0.0.0/8".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipv4: missing '/' in prefix %q", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix length in %q", s)
	}
	return NewPrefix(a, bits)
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func maskFor(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// Addr returns the network address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a is within p.
func (p Prefix) Contains(a Addr) bool { return a&maskFor(int(p.bits)) == p.addr }

// First returns the lowest address in p.
func (p Prefix) First() Addr { return p.addr }

// Last returns the highest address in p.
func (p Prefix) Last() Addr { return p.addr | ^maskFor(int(p.bits)) }

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// NumBlocks returns the number of /24 blocks covered by p.
// Prefixes longer than /24 report 1 (they live inside a single block).
func (p Prefix) NumBlocks() int {
	if p.bits >= 24 {
		return 1
	}
	return 1 << (24 - uint(p.bits))
}

// FirstBlock returns the first /24 block covered by p.
func (p Prefix) FirstBlock() Block { return p.addr.Block() }

// Blocks calls fn for every /24 block covered by p, in order.
func (p Prefix) Blocks(fn func(Block)) {
	first := uint32(p.addr.Block())
	for i := 0; i < p.NumBlocks(); i++ {
		fn(Block(first + uint32(i)))
	}
}

// String formats p in CIDR notation.
func (p Prefix) String() string {
	var b [18]byte
	buf := p.addr.appendTo(b[:0])
	buf = append(buf, '/')
	buf = strconv.AppendUint(buf, uint64(p.bits), 10)
	return string(buf)
}
