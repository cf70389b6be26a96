package query

import (
	"bufio"
	"fmt"
	"io"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
)

// EncodeCheckpoint serializes the Applier's last published snapshot
// plus the resume state a restarted node needs to keep tailing the obs
// stream from that epoch. It must be called while the Applier state
// still matches the last Snapshot — i.e. before any further event is
// applied — and the bytes are complete when it returns; a caller that
// wants to keep applying while the file is written takes a Checkpoint
// instead.
func (a *Applier) EncodeCheckpoint(shard *ShardRange) ([]byte, error) {
	r, err := a.resumeState()
	if err != nil {
		return nil, err
	}
	return encodeSnapshot(a.prev, shard, r), nil
}

// resumeState gathers the checkpoint's resume section from the live
// Applier. The result aliases the Applier's sets: it is valid only
// until the next event is applied.
func (a *Applier) resumeState() (*resumeState, error) {
	x := a.prev
	if x == nil {
		return nil, fmt.Errorf("query: checkpoint before first snapshot")
	}
	if a.days != x.days || a.weeks != x.partial.Weeks {
		return nil, fmt.Errorf("query: checkpoint state diverged from last snapshot (days %d vs %d)",
			a.days, x.days)
	}
	r := &resumeState{
		weeks:        a.weeks,
		scans:        a.scans,
		surfacesSeen: a.servers != nil || a.routers != nil,
		yearUnion:    a.yearUnion,
		week0:        a.week0,
		weekLast:     a.weekLast,
		uaBlocks:     a.uaBlocks(),
		ua:           make(map[ipv4.Block]*obs.UAStat),
	}
	if a.scans > 0 {
		r.cdnFrom, r.cdnTo, r.cdn = a.cdnFrom, a.cdnTo, a.cdn
	}
	for _, blk := range r.uaBlocks {
		r.ua[blk] = a.accs[blk].ua
	}
	return r, nil
}

// Checkpoint is an immutable capture of an Applier at its last
// published epoch: everything EncodeCheckpoint would serialize, held so
// that another goroutine can write it out while the Applier goes on
// applying events.
type Checkpoint struct {
	x     *Index
	shard *ShardRange
	r     *resumeState
}

// Checkpoint captures the state EncodeCheckpoint would serialize, under
// the same precondition (no event applied since the last Snapshot). The
// capture is cheap next to the encode: the published Index is already
// immutable and event payloads (weekly sets, UA stats) are immutable by
// the Sink contract, so they are shared; only the two sets later events
// mutate in place — the weekly union and the capture–recapture window —
// are cloned.
func (a *Applier) Checkpoint(shard *ShardRange) (*Checkpoint, error) {
	r, err := a.resumeState()
	if err != nil {
		return nil, err
	}
	r.yearUnion = r.yearUnion.Clone()
	if r.cdn != nil {
		r.cdn = r.cdn.Clone()
	}
	if shard != nil {
		cp := *shard
		shard = &cp
	}
	return &Checkpoint{x: a.prev, shard: shard, r: r}, nil
}

// Epoch returns the published epoch the checkpoint was taken at.
func (c *Checkpoint) Epoch() uint64 { return c.x.epoch }

// checkpointWriteBuf batches the per-block timeline writes (2–4 KB
// each) into few system calls.
const checkpointWriteBuf = 256 << 10

// WriteFile streams the checkpoint to path — byte for byte what
// EncodeCheckpoint returned at the capture — with WriteSnapshotFile's
// durability (temp file, fsync, rename) and without assembling the file
// in memory. It returns the file's length.
func (c *Checkpoint) WriteFile(path string) (int64, error) {
	im := layoutSnapshot(c.x, c.shard, c.r)
	err := writeFileAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, checkpointWriteBuf)
		if err := im.writeTo(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, err
	}
	return int64(im.total), nil
}
