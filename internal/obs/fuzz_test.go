package obs

import (
	"bytes"
	"errors"
	"testing"

	"ipscope/internal/binenc"
)

// FuzzDecode throws arbitrary bytes at the dataset decoder. The
// invariants, matching the codec's documented contract:
//
//   - Decode never panics, however corrupt the input (the corruption
//     sweep in codec_test.go samples this; the fuzzer explores it);
//   - every failure is a typed error (ErrTruncated, *binenc.Error) or an
//     I/O error — never a silent partial dataset;
//   - anything that decodes re-encodes canonically: Write(Decode(x))
//     succeeds, and its output is a fixed point (decoding and
//     re-encoding it reproduces the same bytes), which is the property
//     canonical stores (obs.Write, obs.WriteFile) rest on;
//   - a decode restricted to keepEven's blocks (a Restricter sink, as a
//     shard decodes) never panics and fails only with a typed error,
//     and where the unrestricted decode succeeds it succeeds too and
//     delivers what FilterSink does of the unrestricted events. It may
//     succeed where the unrestricted one fails: a foreign block-stats
//     frame is discarded undecoded, so its corruption goes unseen (the
//     corruptForeignStats seeds).
//
// The seed corpus is the canonical encoding of the codec round-trip
// corpus (sampleData) plus truncated and bit-flipped variants, so the
// fuzzer starts from structurally valid streams rather than rediscovering
// the magic/version header.
func FuzzDecode(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		if err := Write(&buf, sampleData(f, seed)); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2]) // truncated mid-stream
		f.Add(b[:len(b)-1]) // missing end frame
		flipped := bytes.Clone(b)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
		f.Add(corruptForeignStats(f, b, keepEven))
	}
	// A minimal empty-but-well-formed stream (header + meta + end).
	var empty bytes.Buffer
	w := NewWriter(&empty)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestricted(t, data)
		d, err := Decode(bytes.NewReader(data))
		if err != nil {
			var fe *binenc.Error
			if !errors.Is(err, ErrTruncated) && !errors.As(err, &fe) {
				t.Fatalf("Decode failed with untyped error %T: %v", err, err)
			}
			return
		}
		var once bytes.Buffer
		if err := Write(&once, d); err != nil {
			t.Fatalf("re-encoding a decoded dataset failed: %v", err)
		}
		d2, err := Decode(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		var twice bytes.Buffer
		if err := Write(&twice, d2); err != nil {
			t.Fatalf("second re-encoding failed: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("canonical encoding is not a fixed point: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}

// checkRestricted decodes data unrestricted and restricted to keepEven's
// blocks, and compares the two as FuzzDecode documents. Events are
// compared by their frame bytes, which, unlike reflect.DeepEqual, hold a
// NaN equal to itself.
func checkRestricted(t *testing.T, data []byte) {
	var full, got events
	fullErr := StreamDecode(bytes.NewReader(data), &full)
	err := StreamDecode(bytes.NewReader(data), FilterSink(&got, keepEven))
	if err != nil {
		var fe *binenc.Error
		if !errors.Is(err, ErrTruncated) && !errors.As(err, &fe) {
			t.Fatalf("restricted decode failed with untyped error %T: %v", err, err)
		}
		if fullErr == nil {
			t.Fatalf("restricted decode failed (%v) where the unrestricted one succeeded", err)
		}
		return
	}
	if fullErr != nil {
		return
	}
	frames := func(es events) []byte {
		var b []byte
		for _, e := range es {
			var err error
			if b, err = AppendFrame(b, e); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	if !bytes.Equal(frames(got), frames(full.filtered(t, keepEven))) {
		t.Fatal("restricted decode differs from FilterSink over the unrestricted decode")
	}
}
