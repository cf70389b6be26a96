package obs

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipscope/internal/ipv4"
)

// follow decodes the growing dataset at path into sink the way a live
// node does: Tail, then StreamDecodeFrom over it.
func follow(ctx context.Context, path string, skip SkipCounts, sink Sink) error {
	r, err := Tail(ctx, path)
	if err != nil {
		return err
	}
	defer r.Close()
	return StreamDecodeFrom(r, skip, sink)
}

func followMeta() Meta {
	var m Meta
	m.World.Seed = 3
	m.World.NumASes = 5
	m.World.MeanBlocksPerAS = 2
	m.Run = RunConfig{Days: 28, DailyStart: 0, DailyLen: 20, UADays: 7,
		ICMPScanDays: []int{5}, Workers: 1}
	return m
}

func smallSet(base uint32, n int) *ipv4.Set {
	s := ipv4.NewSet()
	for i := 0; i < n; i++ {
		s.Add(ipv4.Addr(base + uint32(i)))
	}
	return s
}

// TestFollowWithPoll is the regression test for the tail reader's poll
// interval, which drops to a few milliseconds after every read that
// returned bytes: 20 strict append→observe ping-pong rounds must
// complete far faster than they possibly could at its 200ms ceiling
// (20 rounds × 200ms ≥ 4s). Each round appends one day frame only after
// the previous one was observed, so every round pays at least one poll
// interval.
func TestFollowWithPoll(t *testing.T) {
	const rounds = 20
	path := filepath.Join(t.TempDir(), "tail.obs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewWriter(f)
	if err := w.Observe(MetaEvent{Meta: followMeta()}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events := make(chan Event, 4)
	done := make(chan error, 1)
	go func() {
		done <- follow(ctx, path, SkipCounts{},
			SinkFunc(func(e Event) error {
				events <- e
				return nil
			}))
	}()

	recv := func() Event {
		t.Helper()
		select {
		case e := <-events:
			return e
		case err := <-done:
			t.Fatalf("follow exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for event")
		}
		return nil
	}

	start := time.Now()
	if _, ok := recv().(MetaEvent); !ok {
		t.Fatal("first event is not the meta event")
	}
	for i := 0; i < rounds; i++ {
		if err := w.Observe(DayEvent{Index: i, Active: smallSet(0x0a000000, 3)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ev, ok := recv().(DayEvent)
		if !ok || ev.Index != i {
			t.Fatalf("round %d: got %#v", i, ev)
		}
	}
	elapsed := time.Since(start)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("follow: %v", err)
	}
	// A 200ms poll would need ≥ 4s for the 20 ping-pong rounds; one
	// that drops back to a few milliseconds after each frame finishes
	// orders of magnitude faster. The bound leaves a wide margin for a
	// loaded CI machine.
	if elapsed >= 3*time.Second {
		t.Fatalf("20 ping-pong rounds took %v; the poll does not drop after a read", elapsed)
	}
}

// TestFollowWithSkip pins the frame-level resume semantics: indexed
// frames below the skip counts are discarded, everything else — the
// meta frame, the indexed tail, and the idempotent replace-semantics
// events — is delivered in order.
func TestFollowWithSkip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skip.obs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	feed := []Event{
		MetaEvent{Meta: followMeta()},
		DayEvent{Index: 0, Active: smallSet(0x0a000000, 2)},
		DayEvent{Index: 1, Active: smallSet(0x0a000100, 2)},
		DayEvent{Index: 2, Active: smallSet(0x0a000200, 2)},
		DayEvent{Index: 3, Active: smallSet(0x0a000300, 2)},
		WeekEvent{Index: 0, Active: smallSet(0x0a000000, 4)},
		WeekEvent{Index: 1, Active: smallSet(0x0a000400, 4)},
		ICMPScanEvent{Index: 0, Responders: smallSet(0x0a000000, 3)},
		BlockStatsEvent{Block: ipv4.Block(0x0a0000), Traffic: &BlockTraffic{}},
		SurfacesEvent{Servers: smallSet(0x0a000800, 2), Routers: smallSet(0x0a000900, 1)},
	}
	for _, e := range feed {
		if err := w.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Event
	err = follow(context.Background(), path, SkipCounts{Days: 3, Weeks: 1, Scans: 1},
		SinkFunc(func(e Event) error { got = append(got, e); return nil }))
	if err != nil {
		t.Fatal(err)
	}

	var days, weeks, scans []int
	var metas, stats, surfaces int
	for _, e := range got {
		switch ev := e.(type) {
		case MetaEvent:
			metas++
		case DayEvent:
			days = append(days, ev.Index)
		case WeekEvent:
			weeks = append(weeks, ev.Index)
		case ICMPScanEvent:
			scans = append(scans, ev.Index)
		case BlockStatsEvent:
			stats++
		case SurfacesEvent:
			surfaces++
		}
	}
	if metas != 1 {
		t.Errorf("meta events = %d, want 1 (always delivered)", metas)
	}
	if len(days) != 1 || days[0] != 3 {
		t.Errorf("day indexes = %v, want [3]", days)
	}
	if len(weeks) != 1 || weeks[0] != 1 {
		t.Errorf("week indexes = %v, want [1]", weeks)
	}
	if len(scans) != 0 {
		t.Errorf("scan indexes = %v, want none", scans)
	}
	if stats != 1 || surfaces != 1 {
		t.Errorf("stats/surfaces = %d/%d, want 1/1 (idempotent events always delivered)", stats, surfaces)
	}
}
