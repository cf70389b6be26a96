package node

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"ipscope/internal/obs"
	"ipscope/internal/query"
)

// Base images are named so that lexical order is epoch order: the
// zero-padded epoch makes "newest" a plain string sort.
const (
	checkpointPattern = "snap-%010d.ipsnap"
	checkpointGlob    = "snap-*.ipsnap"
	checkpointSuffix  = ".ipsnap"
)

// rebaseDivisor is the one policy of the snapshot directory: the next
// checkpoint is a new base image, not a journal record, once the journal
// since the last base holds 1/rebaseDivisor of that base's bytes. It
// trades bytes written per epoch against records replayed by a restart;
// DESIGN.md "Checkpoint budget" has the table it was chosen from.
const rebaseDivisor = 16

// ListCheckpoints returns the base images in dir, oldest first.
func ListCheckpoints(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, checkpointGlob))
	sort.Strings(names)
	return names, err
}

// RemoveStale deletes what a writer killed mid-write left in dir: the
// temp files of images and journals (nothing ever reads them — a file
// exists only once renamed — so without this they would accumulate at
// 10–30 MB each) and journals whose base was pruned without them. Call
// it at start-up, before any writer runs.
func RemoveStale(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, "snap-*.tmp"))
	journals, _ := filepath.Glob(filepath.Join(dir, journalGlob))
	for _, j := range journals {
		if _, err := os.Stat(basePath(j)); os.IsNotExist(err) {
			stale = append(stale, j)
		}
	}
	for _, name := range stale {
		if err := os.Remove(name); err != nil {
			log.Printf("stale checkpoint file %s: %v", name, err)
			continue
		}
		if filepath.Ext(name) == ".tmp" {
			log.Printf("removed stale checkpoint temp file %s", name)
		} else {
			log.Printf("removed journal %s: its base image is gone", name)
		}
	}
}

// CheckpointWriter is the second stage of the live write path: one
// goroutine that makes submitted epochs durable in Dir while the ingest
// goroutine goes on applying the next day. What it writes for an epoch is
// proportional to what the epoch applied: a record of the applied events
// appended to the journal of the newest base image, and fsynced. A whole
// image is written (temp file, fsync, rename, directory fsync) only when
// there is no base to append to — the first checkpoint, or a write failed
// and left a gap — when the stream has ended, and when the journal has
// reached 1/rebaseDivisor of its base; Dir is then pruned down to the
// newest Keep bases (at least one), each going with its journal.
//
// The hand-off is one deep and never drops: Submit blocks while the
// previous write is in flight, so the two stages run at the pace of the
// slower one and every submitted epoch is fsynced before the next is
// accepted. A failed write is logged, not fatal — the serving path must
// not die because the disk is full — and makes the next checkpoint a
// whole image.
//
// Submit and Close are for the one goroutine that owns the writer.
type CheckpointWriter struct {
	Dir  string
	Keep int

	// The directory as the writer left it, owned by whoever holds the idle
	// token: the base being journaled to (baseBytes 0: none, the next
	// checkpoint must be an image) and its journal's length (0: not
	// created yet).
	base         uint64
	baseBytes    int64
	journalBytes int64
	journal      *os.File // open for append; nil until the first record after a base or a resume
	buf          []byte   // the record being encoded

	// write is (*query.Checkpoint).WriteFile and appendSync a write and an
	// fsync, except in tests.
	write      func(cp *query.Checkpoint, path string) (int64, error)
	appendSync func(f *os.File, rec []byte) error

	ch   chan checkpointJob
	idle chan struct{} // holds one token while no write is in flight
	done chan struct{}
}

// checkpointJob is one epoch to make durable: as an image when cp is
// set, else as a journal record of events.
type checkpointJob struct {
	epoch  uint64
	events []obs.Event
	cp     *query.Checkpoint
}

// Submit makes epoch durable and returns once the writer goroutine has
// taken it. events are the ones applied since the previous Submit; final
// says nothing will follow. capture is called — here, on the caller's
// goroutine, once the previous write has ended — only if this checkpoint
// is to be an image.
func (w *CheckpointWriter) Submit(epoch uint64, events []obs.Event, final bool, capture func() (*query.Checkpoint, error)) {
	if w.ch == nil {
		w.ch = make(chan checkpointJob)
		w.idle = make(chan struct{}, 1)
		w.done = make(chan struct{})
		w.idle <- struct{}{}
		go w.run()
	}
	<-w.idle
	job := checkpointJob{epoch: epoch, events: events}
	if final || w.journalBytes*rebaseDivisor >= w.baseBytes {
		cp, err := capture()
		if err != nil {
			log.Printf("checkpoint epoch %d: %v (continuing without)", epoch, err)
			w.baseBytes = 0 // the journal misses these events: no more records
			w.idle <- struct{}{}
			return
		}
		job.cp = cp
	}
	w.ch <- job
}

// Close waits for the write in flight, if any, and stops the writer
// goroutine. The writer must not be used afterwards.
func (w *CheckpointWriter) Close() {
	if w.ch == nil {
		return
	}
	<-w.idle
	close(w.ch)
	<-w.done
}

func (w *CheckpointWriter) run() {
	defer close(w.done)
	for job := range w.ch {
		var err error
		if job.cp != nil {
			err = w.writeBase(job.cp)
		} else {
			err = w.appendToJournal(job.epoch, job.events)
		}
		if err != nil {
			log.Printf("checkpoint epoch %d: %v (continuing without; the next checkpoint is a whole image)", job.epoch, err)
			w.closeJournal()
			w.baseBytes = 0
		}
		w.idle <- struct{}{}
	}
	w.closeJournal()
}

func (w *CheckpointWriter) closeJournal() {
	if w.journal != nil {
		w.journal.Close() // every record was fsynced as it was appended
		w.journal = nil
	}
}

// writeBase writes cp as Dir/snap-<epoch>.ipsnap and makes it the base
// later records are journaled to.
func (w *CheckpointWriter) writeBase(cp *query.Checkpoint) error {
	write := w.write
	if write == nil {
		write = (*query.Checkpoint).WriteFile
	}
	w.closeJournal()
	w.baseBytes = 0
	name := filepath.Join(w.Dir, fmt.Sprintf(checkpointPattern, cp.Epoch()))
	// A journal already under the new base's name belongs to an image this
	// one replaces (a run that got further before a restart fell back).
	if err := os.Remove(journalPath(name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	n, err := write(cp, name)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	log.Printf("checkpoint %s (%d bytes)", name, n)
	w.base, w.baseBytes, w.journalBytes = cp.Epoch(), n, 0
	w.prune()
	return nil
}

// appendToJournal appends epoch's record to the base's journal — created,
// header first and durably, by the first record — and fsyncs it.
func (w *CheckpointWriter) appendToJournal(epoch uint64, events []obs.Event) error {
	name := journalPath(filepath.Join(w.Dir, fmt.Sprintf(checkpointPattern, w.base)))
	if w.journal == nil {
		if w.journalBytes == 0 {
			hdr := appendJournalHeader(nil, w.base, w.baseBytes)
			if err := query.WriteSnapshotFile(name, hdr); err != nil {
				return err
			}
			w.journalBytes = int64(len(hdr))
		}
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		w.journal = f
	}
	rec, err := appendRecord(w.buf[:0], epoch, events)
	if err != nil {
		return err
	}
	w.buf = rec[:0]
	appendSync := w.appendSync
	if appendSync == nil {
		appendSync = writeSync
	}
	if err := appendSync(w.journal, rec); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	w.journalBytes += int64(len(rec))
	log.Printf("checkpoint %s: epoch %d (%d bytes)", name, epoch, len(rec))
	return nil
}

func writeSync(f *os.File, rec []byte) error {
	if _, err := f.Write(rec); err != nil {
		return err
	}
	return f.Sync()
}

// prune removes the oldest bases beyond Keep, each with its journal —
// never the one being journaled to, whatever its name sorts as.
func (w *CheckpointWriter) prune() {
	names, err := ListCheckpoints(w.Dir)
	if err != nil {
		return
	}
	current := filepath.Join(w.Dir, fmt.Sprintf(checkpointPattern, w.base))
	excess := len(names) - max(w.Keep, 1)
	for _, name := range names {
		if excess <= 0 {
			break
		}
		if name == current {
			continue
		}
		excess--
		if err := os.Remove(name); err != nil {
			log.Printf("prune %s: %v", name, err)
			continue
		}
		if err := os.Remove(journalPath(name)); err != nil && !os.IsNotExist(err) {
			log.Printf("prune %s: %v", journalPath(name), err)
		}
	}
}
