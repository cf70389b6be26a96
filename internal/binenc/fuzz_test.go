package binenc

import (
	"errors"
	"testing"
)

// FuzzDec drives an arbitrary sequence of decoder operations (one op
// byte each) over arbitrary payload bytes, in both byte orders. The
// kernel's contract under any input:
//
//   - no operation panics;
//   - no operation hands out bytes past the end of the payload: what is
//     consumed plus what remains is always exactly the payload, and a
//     count is never larger than the bytes that remained when it was
//     read allow;
//   - a failure is always a *Error, the first one sticks, and once
//     failed nothing more is consumed.
func FuzzDec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte("\x00\x00\x00\x02hi\x01\x00\x00\x00\x01\xff"))
	f.Add([]byte{9, 9, 9}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{11, 12, 13, 14, 15}, []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0})
	f.Add([]byte{7, 6}, []byte{2, 0, 0, 0, 9})

	f.Fuzz(func(t *testing.T, ops, payload []byte) {
		for _, o := range []Order{BE, LE} {
			d := NewDec(o, "fuzz", payload)
			var first error
			for _, op := range ops {
				before := len(d.Rest())
				consumed := -1 // bytes the op must have consumed, when it pins that
				switch op % 16 {
				case 0:
					d.U8()
				case 1:
					d.U16()
				case 2:
					d.U32()
				case 3:
					d.U64()
				case 4:
					d.Int()
				case 5:
					d.F64()
				case 6:
					d.Bool()
				case 7:
					consumed = len(d.Str()) + 4
				case 8:
					n := int(op / 16)
					consumed = len(d.Take(n))
				case 9:
					elem := int(op/16) + 1
					if n := d.Count(elem); n > (before-4)/elem && n != 0 {
						t.Fatalf("Count(%d) = %d with %d bytes before it", elem, n, before)
					}
				case 10:
					elem := int(op/16) + 1
					if n := d.Count64(elem); n > (before-8)/elem && n != 0 {
						t.Fatalf("Count64(%d) = %d with %d bytes before it", elem, n, before)
					}
				case 11:
					if s := d.U32s(); s != nil {
						consumed = 5 + 4*len(s)
					}
				case 12:
					if s := d.F64s(); s != nil {
						consumed = 5 + 8*len(s)
					}
				case 13:
					if s := d.Ints(); s != nil {
						consumed = 5 + 8*len(s)
					}
				case 14:
					if s := d.Bytes(); s != nil {
						consumed = 5 + len(s)
					}
				case 15:
					d.Strings()
				}
				after := len(d.Rest())
				if after > before {
					t.Fatalf("op %d grew the payload: %d -> %d bytes left", op%16, before, after)
				}
				err := d.Err()
				if first != nil {
					if err != first {
						t.Fatalf("first error %v replaced by %v", first, err)
					}
					if after != before {
						t.Fatalf("op %d consumed %d bytes after a failure", op%16, before-after)
					}
					continue
				}
				if err != nil {
					var fe *Error
					if !errors.As(err, &fe) || fe.Format != "fuzz" {
						t.Fatalf("untyped decoder error %T: %v", err, err)
					}
					first = err
					continue
				}
				if consumed >= 0 && before-after != consumed {
					t.Fatalf("op %d returned %d bytes' worth but consumed %d", op%16, consumed, before-after)
				}
			}
			rest := d.Rest()
			if len(rest) > len(payload) || (len(rest) > 0 && &rest[len(rest)-1] != &payload[len(payload)-1]) {
				t.Fatalf("Rest is not the payload's tail: %d of %d bytes", len(rest), len(payload))
			}
			if err := d.Finish("fuzz payload"); (err == nil) != (first == nil && len(rest) == 0) {
				t.Fatalf("Finish = %v with first error %v and %d bytes left", err, first, len(rest))
			}
		}
	})
}
