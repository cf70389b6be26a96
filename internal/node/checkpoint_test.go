package node

import (
	"encoding/binary"
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

// capture is one epoch as the serving loop hands it to the writer: the
// events applied since the previous one and a capture of the applier.
type capture struct {
	events []obs.Event
	cp     *query.Checkpoint
}

// captures returns n captures at epochs 1..n: one per day of a tiny
// live stream, published and captured the way the serving loop does.
func captures(t testing.TB, n int) []capture {
	t.Helper()
	var cps []capture
	var events []obs.Event
	a := query.NewApplier(query.Options{})
	_, err := sim.RunTo(synthnet.Generate(synthnet.TinyConfig()), sim.TinyConfig(), obs.SinkFunc(func(e obs.Event) error {
		if len(cps) == n {
			return nil
		}
		if err := a.Observe(e); err != nil {
			return err
		}
		events = append(events, e)
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
		cps = append(cps, capture{events, cp})
		events = nil
		return nil
	}))
	if err != nil || len(cps) != n {
		t.Fatalf("%d captures of %d: %v", len(cps), n, err)
	}
	return cps
}

// submit hands c to w; image asks for a whole image whatever the
// journal's size (the writer's "nothing will follow").
func (c capture) submit(w *CheckpointWriter, image bool) {
	w.Submit(c.cp.Epoch(), c.events, image, func() (*query.Checkpoint, error) { return c.cp, nil })
}

// recordEpoch is the epoch an encoded journal record carries.
func recordEpoch(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

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
// Submit returns while its write — an image — is still running, the
// second does not return until that write has ended and then appends a
// record, nothing is dropped, and Close waits for the last write.
func TestSubmitWaitsForWriteInFlight(t *testing.T) {
	cps := captures(t, 2)
	var lg eventLog
	started := make(chan uint64)
	release := make(chan struct{})
	w := &CheckpointWriter{Dir: t.TempDir(), Keep: 3}
	w.write = func(cp *query.Checkpoint, path string) (int64, error) {
		started <- cp.Epoch()
		<-release
		n, err := cp.WriteFile(path)
		lg.add("write %d ended", cp.Epoch())
		return n, err
	}
	w.appendSync = func(f *os.File, rec []byte) error {
		started <- recordEpoch(rec)
		err := writeSync(f, rec)
		lg.add("write %d ended", recordEpoch(rec))
		return err
	}

	cps[0].submit(w, false) // returns with write 1 in flight: it is blocked on release
	if e := <-started; e != 1 {
		t.Fatalf("first write is epoch %d, want 1", e)
	}
	entering := make(chan struct{})
	second := make(chan struct{})
	go func() {
		close(entering)
		cps[1].submit(w, false)
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
	if base, e, err := ResumePoint(w.Dir); err != nil || e != 2 || filepath.Base(base) != "snap-0000000001.ipsnap" {
		t.Errorf("the directory resumes at epoch %d from %s (%v), want 2 from snap-0000000001.ipsnap", e, base, err)
	}
}

// TestFailedWriteIsSkipped pins that a failed write is not fatal to the
// writer and costs the directory nothing it had: a failed image leaves no
// file and the next checkpoint is an image again; a failed append leaves
// the journal's earlier records, and the next checkpoint is a whole image
// instead of a record after the gap. No temp file stays behind.
func TestFailedWriteIsSkipped(t *testing.T) {
	cps := captures(t, 5)
	dir := t.TempDir()
	w := &CheckpointWriter{Dir: dir, Keep: 3}
	w.write = func(cp *query.Checkpoint, path string) (int64, error) {
		if cp.Epoch() == 1 {
			return 0, errors.New("disk full")
		}
		return cp.WriteFile(path)
	}
	w.appendSync = func(f *os.File, rec []byte) error {
		if recordEpoch(rec) == 4 {
			return errors.New("disk full")
		}
		return writeSync(f, rec)
	}
	cps[0].submit(w, false) // image: fails
	cps[1].submit(w, false) // so an image again
	cps[2].submit(w, false) // record
	cps[3].submit(w, false) // record: fails
	cps[4].submit(w, false) // so an image
	w.Close()

	want := []string{"snap-0000000002.ipjournal", "snap-0000000002.ipsnap", "snap-0000000005.ipsnap"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	if j := JournalOf(filepath.Join(dir, "snap-0000000002.ipsnap"), 2); j.Err != nil || j.Tail != nil || j.Epoch() != 3 {
		t.Errorf("the older base's journal ends at epoch %d (%v, %v), want 3: the record before the failed append", j.Epoch(), j.Err, j.Tail)
	}
	if _, e, err := ResumePoint(dir); err != nil || e != 5 {
		t.Errorf("the directory resumes at epoch %d (%v), want 5", e, err)
	}
}

// TestWriterKeepsNewest pins retention: the newest Keep base images stay,
// loadable, and a pruned base takes its journal with it.
func TestWriterKeepsNewest(t *testing.T) {
	cps := captures(t, 6)
	dir := t.TempDir()
	w := &CheckpointWriter{Dir: dir, Keep: 2}
	for i, cp := range cps {
		cp.submit(w, i%2 == 0) // images at 1, 3, 5; records at 2, 4, 6
	}
	w.Close()

	want := []string{"snap-0000000003.ipjournal", "snap-0000000003.ipsnap", "snap-0000000005.ipjournal", "snap-0000000005.ipsnap"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	l, err := query.LoadSnapshotFile(filepath.Join(dir, "snap-0000000005.ipsnap"), query.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.Resumable() || l.Index.Epoch() != 5 {
		t.Errorf("newest base: resumable %v, epoch %d; want true, 5", l.Resumable(), l.Index.Epoch())
	}
	if _, e, err := ResumePoint(dir); err != nil || e != 6 {
		t.Errorf("the directory resumes at epoch %d (%v), want 6", e, err)
	}
}

// TestRemoveStaleTemps pins the start-up clean-up: the temp files of
// images and journals go, and so does a journal whose base is gone;
// checkpoints, their journals and unrelated files stay.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-0000000006.ipsnap", "snap-0000000006.ipjournal", "snap-0000000004.ipjournal",
		"snap-0000000007.ipsnap.tmp", "snap-0000000006.ipjournal.tmp", "notes.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveStale(dir)
	names := dirNames(t, dir)
	if want := []string{"notes.tmp", "snap-0000000006.ipjournal", "snap-0000000006.ipsnap"}; !slices.Equal(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
}
