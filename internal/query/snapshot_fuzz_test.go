package query

import (
	"bytes"
	"errors"
	"testing"

	"ipscope/internal/binenc"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot decoder.
// The invariants, matching the codec's documented contract:
//
//   - DecodeSnapshot never panics, however corrupt the input;
//   - every failure is a typed error (ErrSnapshotTruncated,
//     *binenc.Error) — never a silent partial index;
//   - anything that decodes is a canonical fixed point: re-encoding it
//     reproduces the input bytes exactly, which is the property the
//     inspect tool's -verify check rests on.
//
// The seed corpus is a real encoded snapshot (plain, sharded and
// checkpoint variants) plus truncated and bit-flipped mutants, so the
// fuzzer starts from structurally valid files rather than rediscovering
// the preface.
func FuzzSnapshotDecode(f *testing.F) {
	// A deliberately small world: seed files a few hundred KB keep the
	// mutation engine's throughput useful.
	wcfg := synthnet.Config{Seed: 7, NumASes: 8, MeanBlocksPerAS: 4}
	w := synthnet.Generate(wcfg)
	res := sim.Run(w, sim.TinyConfig())
	d := &res.Data

	idx, err := Build(d, Options{})
	if err != nil {
		f.Fatal(err)
	}
	plain := EncodeSnapshot(idx, nil)
	f.Add(plain)
	f.Add(EncodeSnapshot(idx, &ShardRange{Index: 1, Count: 2, Lo: 0x100, Hi: 0x10000}))

	a := NewApplier(Options{})
	if err := d.WriteTo(a); err != nil {
		f.Fatal(err)
	}
	if _, err := a.Snapshot(); err != nil {
		f.Fatal(err)
	}
	cp, err := a.EncodeCheckpoint(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cp)

	f.Add(plain[:len(plain)/2])
	f.Add(plain[:snapPrefaceLen])
	for _, at := range []int{10, 40, len(plain) / 3, len(plain) - 9} {
		flipped := bytes.Clone(plain)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeSnapshot(data)
		if err != nil {
			var se *binenc.Error
			if !errors.Is(err, ErrSnapshotTruncated) && !errors.As(err, &se) {
				t.Fatalf("DecodeSnapshot failed with untyped error %T: %v", err, err)
			}
			return
		}
		re := l.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded snapshot is not a canonical fixed point: %d vs %d bytes", len(re), len(data))
		}
	})
}
