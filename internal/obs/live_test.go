package obs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

type countSink struct {
	n    int
	fail error // returned from Observe once n reaches failAt
	at   int
}

func (c *countSink) Observe(e Event) error {
	c.n++
	if c.fail != nil && c.n >= c.at {
		return c.fail
	}
	return nil
}

func TestTeeFanOut(t *testing.T) {
	d := sampleData(t, 1)
	a, b := &countSink{}, &countSink{}
	tee := Tee(a, b)
	if err := d.WriteTo(tee); err != nil {
		t.Fatal(err)
	}
	if a.n == 0 || a.n != b.n {
		t.Fatalf("sinks saw %d and %d events, want equal and > 0", a.n, b.n)
	}
	if tee.Err() != nil {
		t.Fatalf("healthy tee reports error: %v", tee.Err())
	}
}

func TestTeeDropsFailedSink(t *testing.T) {
	d := sampleData(t, 1)
	boom := errors.New("boom")
	bad := &countSink{fail: boom, at: 3}
	good := &countSink{}
	tee := Tee(bad, good)
	if err := d.WriteTo(tee); err != nil {
		t.Fatalf("tee with one healthy sink should not fail the producer: %v", err)
	}
	if bad.n != 3 {
		t.Errorf("failed sink saw %d events after erroring, want 3", bad.n)
	}
	if good.n <= 3 {
		t.Errorf("healthy sink stalled at %d events", good.n)
	}
	if !errors.Is(tee.Err(), boom) {
		t.Errorf("tee.Err() = %v, want the sink's error", tee.Err())
	}

	// Every sink failed: the producer must be stopped.
	allBad := Tee(&countSink{fail: boom, at: 1})
	if err := d.WriteTo(allBad); !errors.Is(err, boom) {
		t.Errorf("tee with no healthy sinks returned %v, want %v", err, boom)
	}
}

// TestStreamDecodeMatchesDecode pins the refactor: streaming the frames
// through a collecting sink yields the same dataset Decode builds, and
// a sink error aborts the decode.
func TestStreamDecodeMatchesDecode(t *testing.T) {
	d := sampleData(t, 2)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}

	streamed := &Data{}
	if err := StreamDecode(bytes.NewReader(buf.Bytes()), streamed); err != nil {
		t.Fatal(err)
	}
	direct, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualData(t, direct, streamed)

	boom := errors.New("sink says no")
	err = StreamDecode(bytes.NewReader(buf.Bytes()), SinkFunc(func(Event) error { return boom }))
	if !errors.Is(err, boom) {
		t.Errorf("StreamDecode with failing sink returned %v, want %v", err, boom)
	}
}

// TestFollowTailsGrowingFile writes a dataset in two installments and
// asserts a tail delivers the early events before the file is complete,
// then finishes cleanly on the end frame.
func TestFollowTailsGrowingFile(t *testing.T) {
	d := sampleData(t, 3)
	var full bytes.Buffer
	if err := Write(&full, d); err != nil {
		t.Fatal(err)
	}
	b := full.Bytes()
	path := filepath.Join(t.TempDir(), "grow.obs")
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	half := make(chan int, 1) // events seen while the file was half-written
	var total atomic.Int64    // the sink's goroutine counts, the test reads
	done := make(chan error, 1)
	go func() {
		done <- follow(context.Background(), path, SkipCounts{}, SinkFunc(func(Event) error {
			total.Add(1)
			return nil
		}))
	}()

	// Wait until the consumer visibly stalls at the half-file boundary,
	// then append the rest.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("follower never consumed the first half")
		case <-time.After(10 * time.Millisecond):
		}
		if n := total.Load(); n > 0 {
			half <- int(n)
			break
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := <-done; err != nil {
		t.Fatalf("follow: %v", err)
	}
	if got, all := <-half, int(total.Load()); got >= all {
		t.Errorf("no events delivered after the append (%d then %d)", got, all)
	}

	// The streamed events reproduce the dataset.
	replay := &Data{}
	if err := follow(context.Background(), path, SkipCounts{}, replay); err != nil {
		t.Fatal(err)
	}
	requireEqualData(t, d, replay)
}

func TestFollowCancel(t *testing.T) {
	// Cancelling while waiting for a file that never appears.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- follow(ctx, filepath.Join(t.TempDir(), "never.obs"), SkipCounts{}, &Data{})
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("follow on missing file returned %v, want context.Canceled", err)
	}

	// Cancelling while tailing a file that never completes.
	d := sampleData(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stuck.obs")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-1], 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := follow(ctx, path, SkipCounts{}, &Data{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("follow on incomplete file returned %v, want deadline exceeded", err)
	}
}

func TestTruncateLive(t *testing.T) {
	d := sampleData(t, 4) // Days 28, DailyStart 7, DailyLen 14, scans on 9/12/15
	tr := d.TruncateLive(5)

	if got := len(tr.Daily); got != 5 {
		t.Errorf("daily = %d, want 5", got)
	}
	if tr.Meta.Run.DailyLen != 5 {
		t.Errorf("meta dailyLen = %d, want 5", tr.Meta.Run.DailyLen)
	}
	// Last applied absolute day is 7+5-1 = 11: week 0 (closes day 6)
	// has closed, week 1 (closes day 13) has not.
	if got := len(tr.Weekly); got != 1 {
		t.Errorf("weekly = %d, want 1", got)
	}
	// Scans on days 9 and 12? Day 12 > 11, so only the day-9 scan.
	if got := len(tr.ICMPScans); got != 1 || len(tr.Meta.Run.ICMPScanDays) != 1 {
		t.Errorf("scans = %d (meta %d), want 1", got, len(tr.Meta.Run.ICMPScanDays))
	}
	// End-of-stream aggregates have not arrived.
	if len(tr.Traffic) != 0 || len(tr.UA) != 0 || tr.ServerSet.Len() != 0 || tr.RouterSet.Len() != 0 {
		t.Error("stream-prefix state carries end-of-stream aggregates")
	}
	// Ground truth arrives up front and is retained.
	if tr.Routing == nil || len(tr.Restructures) == 0 {
		t.Error("up-front ground truth dropped")
	}
	// The input is untouched and out-of-range cuts are identity.
	if len(d.Daily) != 14 || len(d.Weekly) != 4 {
		t.Error("TruncateLive mutated its input")
	}
	if d.TruncateLive(0) != d || d.TruncateLive(15) != d {
		t.Error("out-of-range cut should return the input")
	}
}
