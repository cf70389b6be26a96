// Package binenc is the one binary-encoding kernel behind the repo's
// four formats: the obs dataset stream, the router↔shard RPC, the query
// wire partials (all big-endian) and the index snapshot's sections
// (little-endian). It owns the discipline those formats share and that
// their byte-identity tests rest on:
//
//   - a length-prefixed field is written one way (u32 length or count,
//     then the elements; a slice whose nil-ness matters behind a 0/1
//     presence byte);
//   - untrusted bytes are checked one way: a count is validated against
//     the bytes that remain before anything is allocated, bool and
//     presence bytes must be exactly 0 or 1, the first error sticks and
//     later reads return zero values, and trailing bytes are an error —
//     so every accepted input is the unique encoding of its value and
//     decode∘encode is a byte-exact fixed point;
//   - every structural failure is one type, *Error.
//
// The formats' layouts (which fields, in what order) stay in their own
// packages; nothing here knows about events, messages or sections.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Error reports structurally invalid input in one of the binary
// formats: bad magic, an unsupported version, a short or overlong
// payload, an implausible count, a non-canonical byte.
type Error struct {
	Format string // "obs", "rpc", "query", "query: snapshot"
	Msg    string
}

// Error returns the message prefixed with the format's name.
func (e *Error) Error() string { return e.Format + ": " + e.Msg }

// Errorf returns an *Error for the named format.
func Errorf(format, msg string, args ...any) error {
	return &Error{Format: format, Msg: fmt.Sprintf(msg, args...)}
}

// Order is a byte order, fixed per format. Its methods append one
// field to b; called on the constants BE or LE they inline to the plain
// encoding/binary append.
type Order bool

const (
	BE Order = false // obs stream, RPC frames, wire partials
	LE Order = true  // snapshot sections (cast in place on little-endian hosts)
)

// U8 appends one byte.
func (o Order) U8(b []byte, v uint8) []byte { return append(b, v) }

// U16 appends a 16-bit integer.
func (o Order) U16(b []byte, v uint16) []byte {
	if o == LE {
		v = bits.ReverseBytes16(v)
	}
	return binary.BigEndian.AppendUint16(b, v)
}

// U32 appends a 32-bit integer.
func (o Order) U32(b []byte, v uint32) []byte {
	if o == LE {
		v = bits.ReverseBytes32(v)
	}
	return binary.BigEndian.AppendUint32(b, v)
}

// U64 appends a 64-bit integer.
func (o Order) U64(b []byte, v uint64) []byte {
	if o == LE {
		v = bits.ReverseBytes64(v)
	}
	return binary.BigEndian.AppendUint64(b, v)
}

// Int appends an int as a two's-complement u64, so negative values
// survive and the width does not depend on the host.
func (o Order) Int(b []byte, v int) []byte { return o.U64(b, uint64(int64(v))) }

// F64 appends a float as its raw IEEE-754 bits: nothing is rounded.
func (o Order) F64(b []byte, v float64) []byte { return o.U64(b, math.Float64bits(v)) }

// Bool appends the canonical bool byte, 0 or 1.
func (o Order) Bool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// String appends a u32 byte length and the bytes.
func (o Order) String(b []byte, s string) []byte {
	return append(o.U32(b, uint32(len(s))), s...)
}

// Presence appends a slice header that keeps nil apart from empty: the
// byte 0 for nil, or the byte 1 and a u32 count (encoding/json renders
// the two differently, and RPC-rebuilt JSON must match byte for byte).
func (o Order) Presence(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return o.U32(append(b, 1), uint32(n))
}

// U32s appends a presence-prefixed []uint32.
func (o Order) U32s(b []byte, s []uint32) []byte {
	b = o.Presence(b, s == nil, len(s))
	for _, v := range s {
		b = o.U32(b, v)
	}
	return b
}

// F64s appends a presence-prefixed []float64.
func (o Order) F64s(b []byte, s []float64) []byte {
	b = o.Presence(b, s == nil, len(s))
	for _, v := range s {
		b = o.F64(b, v)
	}
	return b
}

// Ints appends a presence-prefixed []int.
func (o Order) Ints(b []byte, s []int) []byte {
	b = o.Presence(b, s == nil, len(s))
	for _, v := range s {
		b = o.Int(b, v)
	}
	return b
}

// Bytes appends a presence-prefixed []byte.
func (o Order) Bytes(b []byte, s []byte) []byte {
	return append(o.Presence(b, s == nil, len(s)), s...)
}

// Strings appends a presence-prefixed []string.
func (o Order) Strings(b []byte, s []string) []byte {
	b = o.Presence(b, s == nil, len(s))
	for _, v := range s {
		b = o.String(b, v)
	}
	return b
}

// Dec consumes one payload of untrusted bytes. A read past the end, an
// implausible count or a non-canonical byte latches the first error
// instead of panicking; every later read returns the zero value, so a
// layout decodes straight through and checks Err or Finish once.
type Dec struct {
	p      []byte
	err    error
	le     bool
	format string
}

// NewDec returns a decoder over p in byte order o; format names the
// binary format in the errors it reports.
func NewDec(o Order, format string, p []byte) *Dec {
	return &Dec{p: p, le: o == LE, format: format}
}

// Err returns the first error, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the bytes not yet consumed.
func (d *Dec) Rest() []byte { return d.p }

// Failf latches a format error unless one is latched already.
func (d *Dec) Failf(msg string, args ...any) {
	if d.err == nil {
		d.err = Errorf(d.format, msg, args...)
	}
}

// Take consumes n bytes and returns them (aliasing the payload), or nil
// once the decoder has failed.
func (d *Dec) Take(n int) []byte {
	if d.err != nil || uint(n) > uint(len(d.p)) {
		if d.err == nil {
			d.err = &Error{Format: d.format, Msg: "payload too short"}
		}
		return nil
	}
	out := d.p[:n]
	d.p = d.p[n:]
	return out
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a 16-bit integer.
func (d *Dec) U16() uint16 {
	b := d.Take(2)
	if b == nil {
		return 0
	}
	if d.le {
		return binary.LittleEndian.Uint16(b)
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a 32-bit integer.
func (d *Dec) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	if d.le {
		return binary.LittleEndian.Uint32(b)
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a 64-bit integer.
func (d *Dec) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	if d.le {
		return binary.LittleEndian.Uint64(b)
	}
	return binary.BigEndian.Uint64(b)
}

// order32 and order64 turn a big-endian load into the decoder's order,
// for the slice readers' bulk loops.
func (d *Dec) order32(v uint32) uint32 {
	if d.le {
		return bits.ReverseBytes32(v)
	}
	return v
}

func (d *Dec) order64(v uint64) uint64 {
	if d.le {
		return bits.ReverseBytes64(v)
	}
	return v
}

// Int reads an int written by Order.Int.
func (d *Dec) Int() int { return int(int64(d.U64())) }

// F64 reads a float written by Order.F64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a canonical bool byte; anything but 0 or 1 is an error.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Failf("non-canonical bool byte")
	return false
}

// Str reads a string written by Order.String.
func (d *Dec) Str() string { return string(d.Take(d.Count(1))) }

// Count reads a u32 element count and validates it against the bytes
// that remain (at least elemSize per element; 0 skips the check), so a
// corrupt count fails here instead of driving a giant allocation.
func (d *Dec) Count(elemSize int) int { return d.checkCount(uint64(d.U32()), elemSize) }

// Count64 is Count for the u64 counts the snapshot sections carry.
func (d *Dec) Count64(elemSize int) int { return d.checkCount(d.U64(), elemSize) }

// checkCount compares by division: v*elemSize would overflow a 32-bit
// int long before it exceeded the payload.
func (d *Dec) checkCount(v uint64, elemSize int) int {
	limit := uint64(math.MaxInt)
	if elemSize > 0 {
		limit = uint64(len(d.p)) / uint64(elemSize)
	}
	if d.err == nil && v > limit {
		d.Failf("count %d exceeds remaining %d bytes (elem %d)", v, len(d.p), elemSize)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// Presence reads a slice header written by Order.Presence: whether the
// slice is non-nil, and its validated element count.
func (d *Dec) Presence(elemSize int) (present bool, n int) {
	switch d.U8() {
	case 0:
		return false, 0
	case 1:
		n = d.Count(elemSize)
		return d.err == nil, n
	}
	d.Failf("non-canonical presence byte")
	return false, 0
}

// U32s reads a presence-prefixed []uint32.
func (d *Dec) U32s() []uint32 {
	present, n := d.Presence(4)
	if !present {
		return nil
	}
	// One Take for the whole slice (Presence has already bounded n by the
	// bytes that remain): a per-element cursor update would dominate the
	// decode of a 200 KB summary partial.
	out := make([]uint32, n)
	b := d.Take(4 * n)
	for i := range out {
		out[i] = d.order32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return out
}

// F64s reads a presence-prefixed []float64.
func (d *Dec) F64s() []float64 {
	present, n := d.Presence(8)
	if !present {
		return nil
	}
	out := make([]float64, n)
	b := d.Take(8 * n)
	for i := range out {
		out[i] = math.Float64frombits(d.order64(binary.BigEndian.Uint64(b[8*i:])))
	}
	return out
}

// Ints reads a presence-prefixed []int.
func (d *Dec) Ints() []int {
	present, n := d.Presence(8)
	if !present {
		return nil
	}
	out := make([]int, n)
	b := d.Take(8 * n)
	for i := range out {
		out[i] = int(int64(d.order64(binary.BigEndian.Uint64(b[8*i:]))))
	}
	return out
}

// Bytes reads a presence-prefixed []byte (a copy, never an alias).
func (d *Dec) Bytes() []byte {
	present, n := d.Presence(1)
	if !present {
		return nil
	}
	return append([]byte{}, d.Take(n)...)
}

// Strings reads a presence-prefixed []string.
func (d *Dec) Strings() []string {
	present, n := d.Presence(4) // 4 = the encoded size of ""
	if !present {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// Finish ends the payload: it returns the latched error, or an error
// naming what (a frame, a section) if bytes are left over.
func (d *Dec) Finish(what string) error {
	if len(d.p) != 0 {
		d.Failf("%s has %d trailing bytes", what, len(d.p))
	}
	return d.err
}
