package node

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"ipscope/internal/query"
)

// Checkpoint files are named so that lexical order is epoch order: the
// zero-padded epoch makes "newest" a plain string sort.
const (
	checkpointPattern = "snap-%010d.ipsnap"
	checkpointGlob    = "snap-*.ipsnap"
)

// ListCheckpoints returns the checkpoint files in dir, oldest first.
func ListCheckpoints(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, checkpointGlob))
	sort.Strings(names)
	return names, err
}

// RemoveStaleTemps deletes the temp files a writer killed mid-write
// left in dir. Nothing ever reads them (a checkpoint exists only once
// renamed), so without this they would accumulate at 10–30 MB each.
// Call it at start-up, before any writer runs.
func RemoveStaleTemps(dir string) {
	names, _ := filepath.Glob(filepath.Join(dir, checkpointGlob+".tmp"))
	for _, name := range names {
		if err := os.Remove(name); err != nil {
			log.Printf("stale checkpoint temp file %s: %v", name, err)
			continue
		}
		log.Printf("removed stale checkpoint temp file %s", name)
	}
}

// CheckpointWriter is the second stage of the live write path: one
// goroutine that streams captured checkpoints into Dir, one file per
// submitted epoch, and prunes Dir down to the newest Keep (at least
// one). The ingest goroutine hands a capture over and goes on applying
// the next day while the file is written and fsynced.
//
// The hand-off is one deep and never drops: Submit blocks while the
// previous write is in flight, so the two stages run at the pace of the
// slower one and every submitted epoch gets its file. A failed write is
// logged, not fatal — the serving path must not die because the disk is
// full.
//
// Submit and Close are for the one goroutine that owns the writer.
type CheckpointWriter struct {
	Dir  string
	Keep int

	// write is (*query.Checkpoint).WriteFile except in tests.
	write func(cp *query.Checkpoint, path string) (int64, error)
	ch    chan *query.Checkpoint
	done  chan struct{}
}

// Submit queues cp to be written as Dir/snap-<epoch>.ipsnap and returns
// once the writer goroutine has taken it.
func (w *CheckpointWriter) Submit(cp *query.Checkpoint) {
	if w.ch == nil {
		w.ch = make(chan *query.Checkpoint)
		w.done = make(chan struct{})
		go w.run()
	}
	w.ch <- cp
}

// Close waits for the write in flight, if any, and stops the writer
// goroutine. The writer must not be used afterwards.
func (w *CheckpointWriter) Close() {
	if w.ch == nil {
		return
	}
	close(w.ch)
	<-w.done
}

func (w *CheckpointWriter) run() {
	defer close(w.done)
	write := w.write
	if write == nil {
		write = (*query.Checkpoint).WriteFile
	}
	for cp := range w.ch {
		name := filepath.Join(w.Dir, fmt.Sprintf(checkpointPattern, cp.Epoch()))
		n, err := write(cp, name)
		if err != nil {
			log.Printf("checkpoint %s: %v (continuing without)", name, err)
			continue
		}
		log.Printf("checkpoint %s (%d bytes)", name, n)
		w.prune()
	}
}

// prune removes the oldest checkpoints beyond Keep.
func (w *CheckpointWriter) prune() {
	names, err := ListCheckpoints(w.Dir)
	if err != nil {
		return
	}
	for len(names) > max(w.Keep, 1) {
		if err := os.Remove(names[0]); err != nil {
			log.Printf("prune %s: %v", names[0], err)
		}
		names = names[1:]
	}
}
