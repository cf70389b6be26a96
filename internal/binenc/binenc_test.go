package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestOrdersMatchEncodingBinary pins both byte orders against
// encoding/binary, the encoding every format used before the kernel.
func TestOrdersMatchEncodingBinary(t *testing.T) {
	for _, c := range []struct {
		o  Order
		bo binary.AppendByteOrder
	}{{BE, binary.BigEndian}, {LE, binary.LittleEndian}} {
		var got, want []byte
		got = c.o.U8(got, 0xAB)
		got = c.o.U16(got, 0x0102)
		got = c.o.U32(got, 0x01020304)
		got = c.o.U64(got, 0x0102030405060708)
		got = c.o.Int(got, -2)
		got = c.o.F64(got, -1.5)
		got = c.o.String(got, "héllo")
		want = append(want, 0xAB)
		want = c.bo.AppendUint16(want, 0x0102)
		want = c.bo.AppendUint32(want, 0x01020304)
		want = c.bo.AppendUint64(want, 0x0102030405060708)
		want = c.bo.AppendUint64(want, 0xFFFFFFFFFFFFFFFE)
		want = c.bo.AppendUint64(want, math.Float64bits(-1.5))
		want = c.bo.AppendUint32(want, 6)
		want = append(want, "héllo"...)
		if !bytes.Equal(got, want) {
			t.Fatalf("order %v:\n got  %x\n want %x", c.o, got, want)
		}

		d := NewDec(c.o, "test", got)
		if d.U8() != 0xAB || d.U16() != 0x0102 || d.U32() != 0x01020304 ||
			d.U64() != 0x0102030405060708 || d.Int() != -2 || d.F64() != -1.5 || d.Str() != "héllo" {
			t.Fatalf("order %v: scalar round trip failed", c.o)
		}
		if err := d.Finish("payload"); err != nil {
			t.Fatalf("order %v: %v", c.o, err)
		}
	}
}

// TestSlicesKeepNilApartFromEmpty round-trips every presence-prefixed
// slice as nil, empty and populated.
func TestSlicesKeepNilApartFromEmpty(t *testing.T) {
	type vals struct {
		U []uint32
		F []float64
		I []int
		B []byte
		S []string
	}
	for _, o := range []Order{BE, LE} {
		for _, v := range []vals{
			{},
			{U: []uint32{}, F: []float64{}, I: []int{}, B: []byte{}, S: []string{}},
			{U: []uint32{1, 1 << 31}, F: []float64{math.Inf(-1), 0.1}, I: []int{-1, 7}, B: []byte{0, 255}, S: []string{"", "a"}},
		} {
			var b []byte
			b = o.U32s(b, v.U)
			b = o.F64s(b, v.F)
			b = o.Ints(b, v.I)
			b = o.Bytes(b, v.B)
			b = o.Strings(b, v.S)
			b = o.Bool(b, true)
			d := NewDec(o, "test", b)
			got := vals{U: d.U32s(), F: d.F64s(), I: d.Ints(), B: d.Bytes(), S: d.Strings()}
			if !d.Bool() {
				t.Fatal("bool round trip")
			}
			if err := d.Finish("payload"); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round trip = %+v, want %+v", got, v)
			}
		}
	}
}

// TestCountOverflow is the narrow-int regression: count*elemSize wraps a
// 32-bit int (0xFFFFFFFF*36 and *40 both do), so the check divides
// instead. elemSize 1 bounds by the bytes that remain; elemSize 0 skips
// the payload bound for counts of possibly-empty elements.
func TestCountOverflow(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	for _, c := range []struct {
		name     string
		count    []byte
		tail     int // payload bytes after the count
		elemSize int
		want     int
		ok       bool
	}{
		{"huge x36", huge, 1000, 36, 0, false},
		{"huge x40", huge, 1000, 40, 0, false},
		{"huge x1", huge, 1000, 1, 0, false},
		{"x0 of nothing", []byte{0, 0, 1, 0}, 0, 0, 256, true},
		{"exact", []byte{0, 0, 0, 25}, 1000, 40, 25, true},
		{"one over", []byte{0, 0, 0, 26}, 1000, 40, 0, false},
		{"x1 exact", []byte{0, 0, 3, 0xE8}, 1000, 1, 1000, true},
		{"x1 one over", []byte{0, 0, 3, 0xE9}, 1000, 1, 0, false},
		{"zero of nothing", []byte{0, 0, 0, 0}, 0, 36, 0, true},
	} {
		d := NewDec(BE, "test", append(append([]byte{}, c.count...), make([]byte, c.tail)...))
		got := d.Count(c.elemSize)
		if got != c.want || (d.Err() == nil) != c.ok {
			t.Errorf("Count %s: got %d, err %v; want %d, ok=%v", c.name, got, d.Err(), c.want, c.ok)
		}
		if !c.ok && c.elemSize > 0 {
			p := append([]byte{1}, append(append([]byte{}, c.count...), make([]byte, c.tail)...)...)
			d := NewDec(BE, "test", p)
			if present, n := d.Presence(c.elemSize); present || n != 0 || d.Err() == nil {
				t.Errorf("Presence %s: got (%v, %d), err %v", c.name, present, n, d.Err())
			}
		}
	}

	// The snapshot sections' u64 counts go through the same check.
	p := LE.U64(nil, math.MaxUint64)
	p = append(p, make([]byte, 80)...)
	d := NewDec(LE, "test", p)
	if n := d.Count64(40); n != 0 || d.Err() == nil {
		t.Errorf("Count64: got %d, err %v", n, d.Err())
	}
	d = NewDec(LE, "test", append(LE.U64(nil, 2), make([]byte, 80)...))
	if n := d.Count64(40); n != 2 || d.Err() != nil {
		t.Errorf("Count64: got %d, err %v", n, d.Err())
	}
}

// TestStickyFirstError pins the decoder's failure contract: the first
// error wins, later reads return zero values and consume nothing.
func TestStickyFirstError(t *testing.T) {
	d := NewDec(BE, "test", []byte{2, 0, 0, 0, 9})
	if d.Bool() {
		t.Fatal("non-canonical bool read as true")
	}
	first := d.Err()
	var fe *Error
	if !errors.As(first, &fe) || fe.Format != "test" || fe.Error() != "test: non-canonical bool byte" {
		t.Fatalf("first error = %v", first)
	}
	if d.U32() != 0 || d.Str() != "" || d.Take(1) != nil || d.U32s() != nil || d.Count(1) != 0 {
		t.Fatal("reads after a failure returned data")
	}
	if len(d.Rest()) != 4 {
		t.Fatalf("reads after a failure consumed bytes: %d left", len(d.Rest()))
	}
	d.Failf("later error")
	if err := d.Finish("payload"); err != first {
		t.Fatalf("Finish = %v, want the first error", err)
	}

	d = NewDec(BE, "test", []byte{1, 2})
	d.U8()
	if err := d.Finish("test frame"); err == nil || err.Error() != "test: test frame has 1 trailing bytes" {
		t.Fatalf("trailing byte: %v", err)
	}
	d = NewDec(BE, "test", []byte{7})
	if present, _ := d.Presence(1); present || d.Err() == nil {
		t.Fatal("non-canonical presence byte accepted")
	}
	d = NewDec(BE, "test", []byte{0, 0})
	if d.U32() != 0 || d.Err() == nil || d.Err().Error() != "test: payload too short" {
		t.Fatalf("short read: %v", d.Err())
	}
	if d = NewDec(BE, "test", nil); d.Take(-1) != nil || d.Err() == nil {
		t.Fatal("negative Take accepted")
	}
}

var errCut = errors.New("test: truncated")

// trickle delivers its bytes a few at a time, then EOF.
type trickle struct{ p []byte }

func (r *trickle) Read(b []byte) (int, error) {
	if len(r.p) == 0 {
		return 0, io.EOF
	}
	n := copy(b, r.p[:min(len(r.p), 7)])
	r.p = r.p[n:]
	return n, nil
}

func TestReadPayload(t *testing.T) {
	src := make([]byte, 3*eagerPayload+17)
	for i := range src {
		src[i] = byte(i * 31)
	}
	for _, n := range []int{0, 1, 4096, eagerPayload, eagerPayload + 1, len(src)} {
		got, err := ReadPayload(bytes.NewReader(src), n, nil, errCut)
		if err != nil || !bytes.Equal(got, src[:n]) {
			t.Fatalf("n=%d: len %d, err %v", n, len(got), err)
		}
		if n > 0 {
			if _, err := ReadPayload(bytes.NewReader(src[:n-1]), n, nil, errCut); err != errCut {
				t.Fatalf("n=%d, one byte short: err %v, want the truncation sentinel", n, err)
			}
		}
	}
	got, err := ReadPayload(&trickle{p: src[:100]}, 100, nil, errCut)
	if err != nil || !bytes.Equal(got, src[:100]) {
		t.Fatalf("trickled payload: len %d, err %v", len(got), err)
	}

	// A caller's buffer is reused when it is large enough, ignored when not.
	buf := make([]byte, 0, 64)
	got, err = ReadPayload(bytes.NewReader(src), 64, buf, errCut)
	if err != nil || &got[0] != &buf[:1][0] {
		t.Fatalf("64 bytes into a 64-byte buffer: reused=%v, err %v", err == nil && &got[0] == &buf[:1][0], err)
	}
	got, err = ReadPayload(bytes.NewReader(src), 65, buf, errCut)
	if err != nil || len(got) != 65 || &got[0] == &buf[:1][0] {
		t.Fatalf("65 bytes into a 64-byte buffer: len %d, err %v", len(got), err)
	}

	// Other read errors pass through untouched.
	boom := errors.New("boom")
	if _, err := ReadPayload(io.MultiReader(bytes.NewReader(src[:10]), errReader{boom}), 20, nil, errCut); err != boom {
		t.Fatalf("read error: %v, want boom", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestReadPayloadHostileHeader: announcing 200 MiB and sending nothing
// must not cost 200 MiB.
func TestReadPayloadHostileHeader(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadPayload(bytes.NewReader(nil), 200<<20, nil, errCut); err != errCut {
		t.Fatalf("err = %v", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("%d bytes allocated for a payload that never arrived", got)
	}
}
