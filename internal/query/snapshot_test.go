package query

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ipscope/internal/binenc"
	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// TestSnapshotRoundTripViews pins the core invariant at the view layer:
// encode→decode reproduces an Index whose every view — summary, blocks,
// addresses, ASes, prefixes — is byte-identical to the original, over
// all three load paths (in-memory decode, mmap file load, portable file
// load).
func TestSnapshotRoundTripViews(t *testing.T) {
	idx := testIndex(t)
	want := marshalIndex(t, idx)

	data := EncodeSnapshot(idx, nil)
	l, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalIndex(t, l.Index); !bytes.Equal(got, want) {
		t.Fatalf("decoded index views differ (%d vs %d bytes)", len(got), len(want))
	}
	if l.Index.Epoch() != idx.Epoch() {
		t.Errorf("epoch = %d, want %d", l.Index.Epoch(), idx.Epoch())
	}
	if l.Resumable() {
		t.Error("plain snapshot reports resumable")
	}
	if l.Info.Blocks != idx.NumBlocks() || l.Info.Days != idx.DailyLen() {
		t.Errorf("info = %+v, want blocks %d days %d", l.Info, idx.NumBlocks(), idx.DailyLen())
	}

	path := filepath.Join(t.TempDir(), "snap.ipsnap")
	if err := WriteSnapshotFile(path, data); err != nil {
		t.Fatal(err)
	}
	// The nommap case is the decode LoadSnapshotFile falls back to
	// where the file cannot be mapped.
	for _, tc := range []struct {
		name string
		load func() (*Loaded, error)
	}{
		{"mmap", func() (*Loaded, error) { return LoadSnapshotFile(path, LoadOptions{}) }},
		{"workers1", func() (*Loaded, error) { return LoadSnapshotFile(path, LoadOptions{Workers: 1}) }},
		{"nommap", func() (*Loaded, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return DecodeSnapshot(data)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fl, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			if got := marshalIndex(t, fl.Index); !bytes.Equal(got, want) {
				t.Fatalf("loaded index views differ")
			}
		})
	}
}

// TestSnapshotShardRange pins that a snapshot carries its cluster
// partition range through the round trip.
func TestSnapshotShardRange(t *testing.T) {
	idx := testIndex(t)
	shard := &ShardRange{Index: 1, Count: 2, Lo: 0x10000, Hi: 0x20000}
	l, err := DecodeSnapshot(EncodeSnapshot(idx, shard))
	if err != nil {
		t.Fatal(err)
	}
	if l.Info.Shard == nil || *l.Info.Shard != *shard {
		t.Fatalf("shard = %+v, want %+v", l.Info.Shard, shard)
	}
	l2, err := DecodeSnapshot(EncodeSnapshot(idx, nil))
	if err != nil {
		t.Fatal(err)
	}
	if l2.Info.Shard != nil {
		t.Fatalf("unsharded snapshot carries shard %+v", l2.Info.Shard)
	}
}

// TestSnapshotFixedPoint pins the codec discipline: decode∘encode is a
// byte-for-byte fixed point, for a plain snapshot, a sharded one, and
// an Applier checkpoint.
func TestSnapshotFixedPoint(t *testing.T) {
	d := testData(t)
	idx, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][]byte{
		"plain":   EncodeSnapshot(idx, nil),
		"sharded": EncodeSnapshot(idx, &ShardRange{Index: 0, Count: 4, Lo: 0, Hi: 1 << 22}),
	}

	a := NewApplier(Options{})
	if err := d.WriteTo(a); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cp, err := a.EncodeCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	variants["checkpoint"] = cp

	for name, data := range variants {
		t.Run(name, func(t *testing.T) {
			l, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			re := l.Encode()
			if !bytes.Equal(re, data) {
				t.Fatalf("re-encode is not a fixed point (%d vs %d bytes)", len(re), len(data))
			}
		})
	}
}

// TestSnapshotTypedErrors pins the failure contract: truncation reports
// ErrSnapshotTruncated, structural corruption reports *binenc.Error,
// and neither panics.
func TestSnapshotTypedErrors(t *testing.T) {
	data := EncodeSnapshot(testIndex(t), nil)

	for _, n := range []int{0, 4, 12, 31, 40, len(data) / 2, len(data) - 1} {
		if _, err := DecodeSnapshot(data[:n]); !errors.Is(err, ErrSnapshotTruncated) {
			var se *binenc.Error
			if !errors.As(err, &se) {
				t.Errorf("truncation at %d: err = %v, want typed snapshot error", n, err)
			}
		}
	}

	corrupt := func(name string, mutate func(b []byte)) {
		t.Helper()
		b := append([]byte(nil), data...)
		mutate(b)
		_, err := DecodeSnapshot(b)
		var se *binenc.Error
		if err == nil || (!errors.As(err, &se) && !errors.Is(err, ErrSnapshotTruncated)) {
			t.Errorf("%s: err = %v, want typed snapshot error", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] ^= 0xff })
	corrupt("bad version", func(b []byte) { b[8] = 99 })
	corrupt("unknown flags", func(b []byte) { b[10] |= 0x80 })
	corrupt("bad section count", func(b []byte) { b[12] = 0xff })
	corrupt("bad section id", func(b []byte) { b[32] ^= 0xff })
	corrupt("nonzero reserved", func(b []byte) { b[36] = 1 })
	corrupt("shifted offset", func(b []byte) { b[40] ^= 0x10 })

	var se *binenc.Error
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0xAB)); !errors.As(err, &se) {
		t.Errorf("trailing byte: err = %v, want *binenc.Error", err)
	}

	// Declared length longer than the data: truncated.
	longer := append([]byte(nil), data...)
	longer[24]++
	if _, err := DecodeSnapshot(longer); !errors.Is(err, ErrSnapshotTruncated) {
		t.Errorf("short data vs declared length: err = %v, want ErrSnapshotTruncated", err)
	}
}

// TestEncodeCheckpointGuards pins the checkpoint preconditions: no
// checkpoint before the first publish, and none after the state has
// advanced past the published snapshot.
func TestEncodeCheckpointGuards(t *testing.T) {
	d := testData(t)
	a := NewApplier(Options{})
	if _, err := a.EncodeCheckpoint(nil); err == nil {
		t.Error("checkpoint before first snapshot accepted")
	}
	if err := a.Observe(obs.MetaEvent{Meta: d.Meta}); err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(obs.DayEvent{Index: 0, Active: d.Daily[0], TotalHits: d.DailyTotalHits[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EncodeCheckpoint(nil); err != nil {
		t.Errorf("checkpoint right after snapshot: %v", err)
	}
	if err := a.Observe(obs.DayEvent{Index: 1, Active: d.Daily[1], TotalHits: d.DailyTotalHits[1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EncodeCheckpoint(nil); err == nil {
		t.Error("checkpoint after unpublished day accepted")
	}
}

// TestSnapshotResume is the elastic-restart invariant: an Applier
// reconstructed from a checkpoint, fed the remainder of the stream with
// the checkpoint's SkipCounts discarding already-applied frames, must
// publish a snapshot byte-identical (including epoch) to the one the
// uninterrupted Applier publishes — and both must equal Build over the
// full dataset.
func TestSnapshotResume(t *testing.T) {
	type variant struct {
		name string
		cfg  sim.Config
		cut  int
	}
	long := sim.TinyConfig()
	long.Days, long.DailyStart, long.DailyLen = 98, 14, 70
	variants := []variant{
		// Day 13 falls between the fourth and fifth ICMP scan frames: the
		// next scan rebuilds the capture–recapture window from timelines
		// the resume restored.
		{"tiny-mid", sim.TinyConfig(), 13},
		// Before the first scan frame (day 21 of this window): no window
		// in the checkpoint, every one built after the resume.
		{"before-scans", long, 10},
		// Resuming at day 64 of a 70-day window forces the word-boundary
		// repack (words 1 → 2) on the first post-resume publish.
		{"word-boundary", long, 64},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			w := synthnet.Generate(synthnet.TinyConfig())
			var events []obs.Event
			rec := obs.SinkFunc(func(e obs.Event) error { events = append(events, e); return nil })
			res, err := sim.RunTo(w, v.cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			d := &res.Data

			// Uninterrupted applier: publish at the cut (the checkpoint
			// epoch), capture the checkpoint, then run to the end.
			a := NewApplier(Options{})
			trunc := d.TruncateLive(v.cut)
			end := cutStream(events, trunc, v.cut)
			for _, e := range events[:end] {
				if err := a.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Snapshot(); err != nil {
				t.Fatal(err)
			}
			cp, err := a.EncodeCheckpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events[end:] {
				if err := a.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			refSnap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// Restarted applier: decode the checkpoint, resume, and tail
			// the full persisted stream through the frame-level skip.
			l, err := DecodeSnapshot(cp)
			if err != nil {
				t.Fatal(err)
			}
			if !l.Resumable() {
				t.Fatal("checkpoint not resumable")
			}
			b, skipCounts, err := l.ResumeApplier(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want := (obs.SkipCounts{Days: v.cut}); skipCounts.Days != want.Days {
				t.Errorf("skip days = %d, want %d", skipCounts.Days, want.Days)
			}
			if b.Days() != v.cut || b.Epoch() != 1 {
				t.Fatalf("resumed applier days/epoch = %d/%d, want %d/1", b.Days(), b.Epoch(), v.cut)
			}

			path := filepath.Join(t.TempDir(), "full.obs")
			if err := obs.WriteFile(path, d); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// The stream re-delivers the meta frame; a resumed consumer
			// drops it (its applier is already bound to the dataset) —
			// the same wrapper the serving loop uses.
			droppedMeta := false
			sink := obs.SinkFunc(func(e obs.Event) error {
				if _, ok := e.(obs.MetaEvent); ok && !droppedMeta {
					droppedMeta = true
					return nil
				}
				return b.Observe(e)
			})
			if err := obs.StreamDecodeFrom(f, skipCounts, sink); err != nil {
				t.Fatal(err)
			}
			resumedSnap, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			if refSnap.Epoch() != resumedSnap.Epoch() {
				t.Errorf("epochs diverge: %d vs %d", refSnap.Epoch(), resumedSnap.Epoch())
			}
			got, want := marshalIndex(t, resumedSnap), marshalIndex(t, refSnap)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed snapshot differs from uninterrupted applier (%d vs %d bytes)",
					len(got), len(want))
			}

			ref, err := Build(d, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, marshalIndex(t, ref)) {
				t.Fatal("resumed snapshot differs from Build over the full dataset")
			}
		})
	}
}

// TestSnapshotResumeRequiresCheckpoint pins that a plain snapshot (no
// resume section) refuses to resume.
func TestSnapshotResumeRequiresCheckpoint(t *testing.T) {
	l, err := DecodeSnapshot(EncodeSnapshot(testIndex(t), nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ResumeApplier(Options{}); err == nil {
		t.Error("plain snapshot resumed")
	}
}
