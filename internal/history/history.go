// Package history retains a bounded window of recent query.Index
// snapshots keyed by epoch, the substrate for time-travel (?epoch=),
// /v1/delta and /v1/movement queries.
//
// Retention is cheap because snapshots are immutable and the applier's
// publish path shares clean-block structure between consecutive epochs:
// holding N epochs costs roughly one full index plus the dirty slices
// of the other N-1, not N full copies (the memory-boundedness test in
// history_test.go pins this under continuous ingest).
//
// A Window is an immutable value: a publish makes a new one (Add) and
// never touches one a reader holds. A request takes the published
// window once and asks it for everything — the snapshot an epoch names,
// both ends of a delta span, the retained range, the movement series —
// so the answers describe one state however many publishes land while
// it runs. The HTTP handlers and the RPC server both answer from it, so
// the two transports cannot disagree about what is retained.
package history

import (
	"errors"
	"sync/atomic"

	"ipscope/internal/query"
	"ipscope/internal/serve/wire"
)

// DefaultRetain is the retention used when a server does not configure
// one: only the live epoch, matching the pre-history memory profile.
const DefaultRetain = 1

// Window is the retained snapshots in ascending epoch order. The epochs
// are contiguous: publishes arrive with strictly increasing epochs, and
// a non-increasing one (a restart publishing a fresh timeline) resets
// the window to just the new snapshot. The zero Window is empty.
type Window struct {
	snaps []*query.Index // never written after the Window is made
}

// Add returns the window that also retains x, holding at most capacity
// epochs (<=0 means DefaultRetain), and the epochs that fell out of it,
// oldest first, so callers can drop anything keyed by them (response
// cache entries). An epoch at or below the newest retained one resets
// the window: every previously retained epoch is returned as evicted.
func (w Window) Add(x *query.Index, capacity int) (next Window, evicted []uint64) {
	if capacity <= 0 {
		capacity = DefaultRetain
	}
	keep := w.snaps
	if n := len(keep); n > 0 && x.Epoch() <= keep[n-1].Epoch() {
		keep = nil
	} else if n >= capacity {
		keep = keep[n-capacity+1:]
	}
	for _, s := range w.snaps[:len(w.snaps)-len(keep)] {
		evicted = append(evicted, s.Epoch())
	}
	snaps := make([]*query.Index, 0, len(keep)+1)
	return Window{append(append(snaps, keep...), x)}, evicted
}

// Len returns the number of retained epochs.
func (w Window) Len() int { return len(w.snaps) }

// Latest returns the newest retained snapshot (nil when empty).
func (w Window) Latest() *query.Index {
	if len(w.snaps) == 0 {
		return nil
	}
	return w.snaps[len(w.snaps)-1]
}

// Range returns the retained epoch range. ok is false for the empty
// window (a warming server).
func (w Window) Range() (oldest, newest uint64, ok bool) {
	if len(w.snaps) == 0 {
		return 0, 0, false
	}
	return w.snaps[0].Epoch(), w.snaps[len(w.snaps)-1].Epoch(), true
}

// Get returns the retained snapshot for exactly epoch, or a
// *wire.NotRetainedError naming this window's range.
func (w Window) Get(epoch uint64) (*query.Index, error) {
	oldest, newest, ok := w.Range()
	if !ok || epoch < oldest || epoch > newest {
		return nil, &wire.NotRetainedError{Asked: epoch, Oldest: oldest, Newest: newest}
	}
	return w.snaps[epoch-oldest], nil
}

// At is Get under the request convention that epoch 0 names the newest
// snapshot (an RPC frame's zero Epoch, an absent ?epoch=).
func (w Window) At(epoch uint64) (*query.Index, error) {
	if x := w.Latest(); epoch == 0 && x != nil {
		return x, nil
	}
	return w.Get(epoch)
}

// Span returns both ends of a delta span. It probes from first, then to
// — the order the router re-applies against the cluster-wide common
// range, so every tier blames the same epoch.
func (w Window) Span(from, to uint64) (fx, tx *query.Index, err error) {
	if fx, err = w.Get(from); err != nil {
		return nil, nil, err
	}
	if tx, err = w.Get(to); err != nil {
		return nil, nil, err
	}
	return fx, tx, nil
}

// Delta computes the delta partial between two retained epochs: a
// *wire.NotRetainedError when either is not retained, otherwise
// whatever the query layer rejects the span with (from newer than to).
func (w Window) Delta(from, to uint64, maxBlocks int) (query.DeltaPartial, error) {
	fx, tx, err := w.Span(from, to)
	if err != nil {
		return query.DeltaPartial{}, err
	}
	return tx.DeltaPartial(fx, maxBlocks)
}

// Movement derives the per-epoch totals series over the newest `last`
// retained epochs (<=0 or beyond retention: all of them). Churn columns
// are measured against each entry's predecessor in the window; the
// oldest entry of the series has no predecessor only when it is also
// the oldest retained epoch, so re-asking with a larger window never
// changes an entry.
func (w Window) Movement(last int) query.MovementPartial {
	p := query.MovementPartial{}
	if len(w.snaps) == 0 {
		return p
	}
	p.Seed = w.snaps[0].Summary().Seed
	start := 0
	if last > 0 && last < len(w.snaps) {
		start = len(w.snaps) - last
	}
	p.OldestEpoch = w.snaps[start].Epoch()
	p.NewestEpoch = w.snaps[len(w.snaps)-1].Epoch()
	for i := start; i < len(w.snaps); i++ {
		var base *query.Index
		if i > 0 {
			base = w.snaps[i-1]
		}
		p.Entries = append(p.Entries, w.snaps[i].MovementEntryPartial(base))
	}
	return p
}

// Ring is a Window behind one atomic pointer, for a holder with no
// published state of its own to keep the window in: Add publishes the
// next window, every read is a call on the current one. A reader that
// needs two answers to agree takes Window once.
type Ring struct {
	cap int
	win atomic.Pointer[Window]
}

// New creates a ring retaining up to capacity epochs (<=0 means
// DefaultRetain).
func New(capacity int) *Ring {
	r := &Ring{cap: capacity}
	r.win.Store(&Window{})
	return r
}

// Window returns the current window.
func (r *Ring) Window() Window { return *r.win.Load() }

// Add retains x and returns the evicted epochs; see Window.Add.
func (r *Ring) Add(x *query.Index) (evicted []uint64) {
	for {
		cur := r.win.Load()
		next, evicted := cur.Add(x, r.cap)
		if r.win.CompareAndSwap(cur, &next) {
			return evicted
		}
	}
}

// Get returns the retained snapshot for epoch, if any.
func (r *Ring) Get(epoch uint64) (*query.Index, bool) {
	x, err := r.Window().Get(epoch)
	return x, err == nil
}

// Range returns the retained epoch range; see Window.Range.
func (r *Ring) Range() (oldest, newest uint64, ok bool) { return r.Window().Range() }

// Delta is Window.Delta with an unretained epoch reported as ok false
// and no error.
func (r *Ring) Delta(from, to uint64, maxBlocks int) (query.DeltaPartial, bool, error) {
	p, err := r.Window().Delta(from, to, maxBlocks)
	var nr *wire.NotRetainedError
	if errors.As(err, &nr) {
		return p, false, nil
	}
	return p, err == nil, err
}

// Movement is the current window's series; see Window.Movement.
func (r *Ring) Movement(last int) query.MovementPartial { return r.Window().Movement(last) }
