package query

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// liveEvents records the emission-order event stream of a 70-day daily
// window: long enough to cross the 64-day timeline word boundary, with
// weekly snapshots and the ICMP campaign inside the window.
func liveEvents(t *testing.T) []obs.Event {
	events, _ := liveRun(t)
	return events
}

// liveRun is liveEvents plus the run's dataset, for Build references.
func liveRun(t *testing.T) ([]obs.Event, *obs.Data) {
	t.Helper()
	cfg := sim.TinyConfig()
	cfg.Days, cfg.DailyStart, cfg.DailyLen = 98, 14, 70
	var events []obs.Event
	rec := obs.SinkFunc(func(e obs.Event) error { events = append(events, e); return nil })
	res, err := sim.RunTo(synthnet.Generate(synthnet.TinyConfig()), cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	return events, &res.Data
}

// driveLive feeds events to a the way the serving loop does — publish
// after every day and once more after the end-of-stream aggregates —
// calling published after each publish with the index of the next
// unapplied event. It returns the last published index.
func driveLive(t *testing.T, a *Applier, events []obs.Event, published func(next int)) *Index {
	t.Helper()
	var last *Index
	publish := func(next int) {
		x, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		last = x
		if published != nil {
			published(next)
		}
	}
	for i, e := range events {
		if err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.(obs.DayEvent); ok {
			publish(i + 1)
		}
	}
	publish(len(events))
	return last
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointFileEqualsEncode pins that the streamed file is byte
// for byte what EncodeCheckpoint returns: at the first epoch, on either
// side of the timeline word-width change (64 → 65 days), at the last
// day and at the end-of-stream epoch (traffic, UA sketches, surfaces),
// with and without a shard range.
func TestCheckpointFileEqualsEncode(t *testing.T) {
	events := liveEvents(t)
	dir := t.TempDir()
	check := map[uint64]bool{1: true, 64: true, 65: true, 70: true, 71: true}
	shards := map[string]*ShardRange{
		"unsharded": nil,
		"sharded":   {Index: 1, Count: 2, Lo: 0x100, Hi: 1 << 24},
	}
	a := NewApplier(Options{})
	driveLive(t, a, events, func(int) {
		if !check[a.Epoch()] {
			return
		}
		delete(check, a.Epoch())
		for name, shard := range shards {
			want, err := a.EncodeCheckpoint(shard)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := a.Checkpoint(shard)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Epoch() != a.Epoch() {
				t.Errorf("capture epoch = %d, want %d", cp.Epoch(), a.Epoch())
			}
			path := filepath.Join(dir, name+".ipsnap")
			n, err := cp.WriteFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, path); !bytes.Equal(got, want) || n != int64(len(want)) {
				t.Errorf("epoch %d %s: streamed file (%d bytes, reported %d) differs from EncodeCheckpoint (%d bytes)",
					a.Epoch(), name, len(got), n, len(want))
			}
		}
	})
	if len(check) != 0 {
		t.Errorf("epochs never published: %v", check)
	}
}

// TestWriteTimelinesPortable pins that the conversion path a big-endian
// host takes emits the same bytes as the little-endian one, for a
// closed index (a byte view) and for a live one two days past the seal
// of word 0 (repacked, its open word transposed from the tails).
func TestWriteTimelinesPortable(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the byte view is only valid on a little-endian host")
	}
	a := NewApplier(Options{})
	for _, e := range liveEvents(t) {
		if err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
		if a.Days() == 66 {
			break
		}
	}
	live, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Index{"closed": testIndex(t), "live": live} {
		var view, converted bytes.Buffer
		writeTimelines(&snapWriter{w: &view}, x, true)
		writeTimelines(&snapWriter{w: &converted}, x, false)
		if view.Len() != 8*len(x.keys)*256*x.words {
			t.Fatalf("%s: timeline section is %d bytes, want %d", name, view.Len(), 8*len(x.keys)*256*x.words)
		}
		if !bytes.Equal(view.Bytes(), converted.Bytes()) {
			t.Errorf("%s: converted timelines differ from the native ones", name)
		}
	}
}

// TestCheckpointImmutable pins what lets the checkpoint file be written
// off the ingest goroutine: a capture taken at epoch E still serializes
// to E's bytes while — and after — the applier goes on applying days, a
// week and an ICMP scan (which mutate the weekly union and the
// capture–recapture window in place), and resuming from the file
// continues to the same final index. Run under -race, the concurrent
// write also proves the capture shares no mutable state. The same holds
// for captures at epochs 63, 64 and 65, on both sides of the seal of
// timeline word 0: a resume at 63 rebuilds a 63-day tail, one at 64
// none, one at 65 the one-day tail of word 1.
func TestCheckpointImmutable(t *testing.T) {
	events := liveEvents(t)
	dir := t.TempDir()

	has := func(evs []obs.Event) (day, week, scan bool) {
		for _, e := range evs {
			switch e.(type) {
			case obs.DayEvent:
				day = true
			case obs.WeekEvent:
				week = true
			case obs.ICMPScanEvent:
				scan = true
			}
		}
		return
	}

	type capture struct {
		name    string
		cp      *Checkpoint
		want    []byte
		rest    []obs.Event
		written chan error
	}
	a := NewApplier(Options{})
	var caps []*capture
	take := func(name string, next int) {
		c := &capture{name: name, rest: events[next:], written: make(chan error, 1)}
		var err error
		if c.want, err = a.EncodeCheckpoint(nil); err != nil {
			t.Fatal(err)
		}
		if c.cp, err = a.Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
		caps = append(caps, c)
		go func() {
			_, err := c.cp.WriteFile(filepath.Join(dir, c.name+"-concurrent.ipsnap"))
			c.written <- err
		}()
	}
	mixed := false
	ref := driveLive(t, a, events, func(next int) {
		if e := a.Epoch(); e == 63 || e == 64 || e == 65 {
			take(fmt.Sprintf("epoch-%d", e), next)
		}
		if mixed || a.weeks == 0 || a.scans == 0 {
			return
		}
		if day, week, scan := has(events[next:]); day && week && scan {
			mixed = true
			take("mixed", next)
		}
	})
	if !mixed {
		t.Fatal("no epoch with weeks, scans and a day, a week and a scan still to come")
	}
	if len(caps) != 4 {
		t.Fatalf("%d captures, want 4", len(caps))
	}
	for _, c := range caps {
		if err := <-c.written; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, filepath.Join(dir, c.name+"-concurrent.ipsnap")), c.want) {
			t.Errorf("%s: file written while the applier advanced differs from the capture epoch's EncodeCheckpoint", c.name)
		}
		late := filepath.Join(dir, c.name+"-late.ipsnap")
		if _, err := c.cp.WriteFile(late); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, late), c.want) {
			t.Errorf("%s: file written after the applier advanced differs from the capture epoch's EncodeCheckpoint", c.name)
		}

		l, err := LoadSnapshotFile(late, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := l.ResumeApplier(Options{})
		if err != nil {
			t.Fatal(err)
		}
		resumed := driveLive(t, b, c.rest, nil)
		if resumed.Epoch() != ref.Epoch() {
			t.Errorf("%s: epochs diverge: resumed %d, uninterrupted %d", c.name, resumed.Epoch(), ref.Epoch())
		}
		if !bytes.Equal(marshalIndex(t, resumed), marshalIndex(t, ref)) {
			t.Errorf("%s: index resumed from the streamed checkpoint differs from the uninterrupted applier's", c.name)
		}
		if !bytes.Equal(EncodeSnapshot(resumed, nil), EncodeSnapshot(ref, nil)) {
			t.Errorf("%s: resumed index encodes differently from the uninterrupted applier's", c.name)
		}
		l.Close()
	}
}

// TestWriteFileAtomicFailure pins that a write failing part-way leaves
// neither the final name nor the temp file.
func TestWriteFileAtomicFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ipsnap")
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for _, name := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s left behind (stat err = %v)", name, err)
		}
	}
}

// TestResumeApplierProportional pins the cost model of a resume: the
// accumulators are restored from the packed timelines in one pass, so
// the allocations follow the number of blocks — an accumulator, its
// timelines and its enrichment strings each — not blocks × days. A
// regression to materializing the daily sets again (one bitmap per
// block and active day) multiplies the count by the window length.
func TestResumeApplierProportional(t *testing.T) {
	d := testData(t)
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
	l, err := DecodeSnapshot(cp)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed appliers are never fed, so resuming twice from one
	// Loaded shares nothing that is written.
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := l.ResumeApplier(Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const perBlock = 8
	if blocks := l.Index.NumBlocks(); allocs > float64(perBlock*blocks) {
		t.Errorf("ResumeApplier made %.0f allocations for %d blocks over %d days, want at most %d per block",
			allocs, blocks, l.Index.days, perBlock)
	}

	// A window the run's geometry cannot hold is a checkpoint error, not
	// a write past the timelines.
	l.meta.Run.DailyLen = l.Index.days - 1
	if _, _, err := l.ResumeApplier(Options{}); err == nil {
		t.Error("checkpoint with more days than its run's daily window resumed")
	}
}
