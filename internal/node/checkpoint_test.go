package node

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// captures returns n checkpoints at epochs 1..n: one per day of a tiny
// live stream, published and captured the way the serving loop does.
func captures(t *testing.T, n int) []*query.Checkpoint {
	t.Helper()
	var cps []*query.Checkpoint
	a := query.NewApplier(query.Options{})
	_, err := sim.RunTo(synthnet.Generate(synthnet.TinyConfig()), sim.TinyConfig(), obs.SinkFunc(func(e obs.Event) error {
		if len(cps) == n {
			return nil
		}
		if err := a.Observe(e); err != nil {
			return err
		}
		if _, ok := e.(obs.DayEvent); !ok {
			return nil
		}
		if _, err := a.Snapshot(); err != nil {
			return err
		}
		cp, err := a.Checkpoint(nil)
		if err != nil {
			return err
		}
		cps = append(cps, cp)
		return nil
	}))
	if err != nil || len(cps) != n {
		t.Fatalf("%d captures of %d: %v", len(cps), n, err)
	}
	return cps
}

// dirNames lists dir, sorted by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// eventLog is an ordered record of what the writer and the submitter
// did, for asserting happens-before without sleeping.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

func (l *eventLog) index(event string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Index(l.events, event)
}

// TestSubmitWaitsForWriteInFlight pins the one-deep hand-off: the first
// Submit returns while its write is still running, the second does not
// return until that write has ended, nothing is dropped, and Close
// waits for the last write.
func TestSubmitWaitsForWriteInFlight(t *testing.T) {
	cps := captures(t, 2)
	var lg eventLog
	started := make(chan uint64)
	release := make(chan struct{})
	w := &CheckpointWriter{Dir: t.TempDir(), Keep: 3}
	w.write = func(cp *query.Checkpoint, _ string) (int64, error) {
		started <- cp.Epoch()
		<-release
		lg.add("write %d ended", cp.Epoch())
		return 0, nil
	}

	w.Submit(cps[0]) // returns with write 1 in flight: it is blocked on release
	if e := <-started; e != 1 {
		t.Fatalf("first write is epoch %d, want 1", e)
	}
	entering := make(chan struct{})
	second := make(chan struct{})
	go func() {
		close(entering)
		w.Submit(cps[1])
		lg.add("submit 2 returned")
		close(second)
	}()
	<-entering
	select {
	case <-second:
		t.Fatal("second Submit returned while the first write was in flight")
	default:
	}
	close(release)
	if e := <-started; e != 2 {
		t.Fatalf("second write is epoch %d, want 2", e)
	}
	<-second
	w.Close()

	end1, sub2, end2 := lg.index("write 1 ended"), lg.index("submit 2 returned"), lg.index("write 2 ended")
	if end1 < 0 || sub2 < 0 || end1 > sub2 {
		t.Errorf("second Submit returned before the first write ended: %v", lg.events)
	}
	if end2 < 0 {
		t.Errorf("Close returned before the last write ended: %v", lg.events)
	}
}

// TestFailedWriteIsSkipped pins that a failed write is not fatal to the
// writer: the epoch gets no file, the next one does, and no temp file
// stays behind either way.
func TestFailedWriteIsSkipped(t *testing.T) {
	cps := captures(t, 2)
	dir := t.TempDir()
	w := &CheckpointWriter{Dir: dir, Keep: 3}
	w.write = func(cp *query.Checkpoint, path string) (int64, error) {
		if cp.Epoch() == 1 {
			return 0, errors.New("disk full")
		}
		return cp.WriteFile(path)
	}
	w.Submit(cps[0])
	w.Submit(cps[1])
	w.Close()

	names := dirNames(t, dir)
	if want := []string{"snap-0000000002.ipsnap"}; !slices.Equal(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
}

// TestWriterKeepsNewest pins one durable, loadable file per submitted
// epoch and retention of the newest Keep.
func TestWriterKeepsNewest(t *testing.T) {
	cps := captures(t, 4)
	dir := t.TempDir()
	w := &CheckpointWriter{Dir: dir, Keep: 2}
	for _, cp := range cps {
		w.Submit(cp)
	}
	w.Close()

	names, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "snap-0000000003.ipsnap"), filepath.Join(dir, "snap-0000000004.ipsnap")}
	if !slices.Equal(names, want) {
		t.Fatalf("checkpoints = %v, want %v", names, want)
	}
	l, err := query.LoadSnapshotFile(names[1], query.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.Resumable() || l.Index.Epoch() != 4 {
		t.Errorf("newest checkpoint: resumable %v, epoch %d; want true, 4", l.Resumable(), l.Index.Epoch())
	}
}

// TestRemoveStaleTemps pins the start-up clean-up: checkpoint temp
// files go, checkpoints and unrelated files stay.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-0000000006.ipsnap", "snap-0000000007.ipsnap.tmp", "notes.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveStaleTemps(dir)
	names := dirNames(t, dir)
	if want := []string{"notes.tmp", "snap-0000000006.ipsnap"}; !slices.Equal(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
}
