// Package node is one serving process's lifecycle as a type tests drive
// in-process: build or load a batch index and bind the listeners — or
// bind them, load the newest checkpoint, resume from it and ingest an
// observation stream (decode → apply → publish → checkpoint) — and shut
// down in order. cmd/ipscope-serve is flags, validation and a signal
// context around it.
package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"slices"
	"time"

	"ipscope/internal/cluster"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// Config is what a node is started with: cmd/ipscope-serve's flags, under
// their names (that command documents each, and rejects the combinations
// that mean nothing).
type Config struct {
	Serve                  serve.Config // Shard stays nil: the node binds it (bindShard)
	Listen, RPCListen      string       // "127.0.0.1:0" picks a port; RPC is optional
	Replica                int
	ShardIndex, ShardCount int // ShardCount < 1 = unsharded; a loaded snapshot brings its own

	// A batch node's source, one of Dataset and SnapshotLoad: built or
	// loaded once and served frozen, at the epoch it carries.
	Dataset, SnapshotLoad string
	SnapshotSave          string

	// A live node's stream, one of Follow and ObsListen (with neither,
	// the caller feeds Ingest).
	Follow, ObsListen string
	SnapshotDir       string
	SnapshotKeep      int
}

func (c Config) batch() bool { return c.Dataset != "" || c.SnapshotLoad != "" }

// drainTimeout bounds how long Shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// DatasetMismatchError is what ingest fails with when a node resumed from
// a checkpoint is fed a stream of another dataset (a stale snapshot
// directory, or the wrong stream): splicing its tail onto the
// checkpointed state would serve an index that describes neither.
// Nothing is applied or published past the checkpointed epoch.
type DatasetMismatchError struct {
	Checkpoint         string // the file resumed from
	Checkpointed, Feed obs.Meta
}

func (e *DatasetMismatchError) Error() string {
	id := func(m obs.Meta) string {
		return fmt.Sprintf("seed %d, %d ASes x %d blocks, %d days", m.World.Seed, m.World.NumASes, m.World.MeanBlocksPerAS, m.Run.Days)
	}
	return fmt.Sprintf("the stream (%s) is not the dataset checkpoint %s was cut from (%s): clear the snapshot directory or feed the checkpointed dataset's stream",
		id(e.Feed), e.Checkpoint, id(e.Checkpointed))
}

// Node is one serving process: a batch node holds a frozen index, a live
// node also the write path. The live state belongs to the one goroutine
// that calls Ingest or Run.
type Node struct {
	cfg    Config
	srv    *serve.Server
	rpcSrv *rpc.Server // nil without RPCListen
	addr   net.Addr
	obsLn  net.Listener  // nil without ObsListen
	drain  time.Duration // drainTimeout; a test shortens it

	applier *query.Applier // nil on a batch node
	sink    obs.Sink       // applies events, shard-filtered in shard mode
	skip    obs.SkipCounts // frames the resumed checkpoint already covers
	ckpt    *CheckpointWriter
	pending []obs.Event // applied since the last checkpointed epoch: its journal record

	shard *query.ShardRange // see bindShard; nil while unsharded or unplanned
	// The checkpoint this node resumed from ("" on a fresh node) and its
	// dataset identity, which the stream's meta frame must match.
	resumedFrom  string
	checkpointed obs.Meta
}

// Start is the one way a node comes up. A batch node builds or loads its
// index and only then binds its listeners, so a connection it accepts is
// one it can answer. A live node binds them first (serving "warming"),
// clears stale checkpoint temp files, resumes from the newest resumable
// checkpoint in SnapshotDir and, with ObsListen, binds the stream
// listener; Run (or Ingest) then feeds it.
func Start(cfg Config) (*Node, error) {
	n, err := load(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.listen(); err != nil {
		return nil, err
	}
	if !cfg.batch() {
		if err := n.startLive(); err != nil {
			n.Shutdown() //nolint:errcheck // the start-up error is the one to report
			return nil, err
		}
	}
	return n, nil
}

// DumpSummary writes the summary of the batch index cfg names to w as
// JSON — what the Start-ed node's /v1/summary carries — honouring
// SnapshotSave and binding no listener.
func DumpSummary(cfg Config, w io.Writer) error {
	if !cfg.batch() {
		return errors.New("node: a summary dump needs a batch source (Dataset or SnapshotLoad)")
	}
	n, err := load(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(n.srv.Index().Summary())
}

// load is Start up to the listeners: the read path and, on a batch node,
// its index — built or loaded, published, saved.
func load(cfg Config) (*Node, error) {
	n := &Node{cfg: cfg, srv: serve.New(nil, cfg.Serve), drain: drainTimeout}
	if !cfg.batch() {
		return n, nil
	}
	start := time.Now()
	build := n.buildDataset
	if cfg.SnapshotLoad != "" {
		build = n.loadSnapshot
	}
	idx, stages, err := build()
	if err != nil {
		return nil, err
	}
	n.srv.Publish(idx)
	if cfg.SnapshotSave != "" {
		data := query.EncodeSnapshot(idx, n.shard)
		if err := query.WriteSnapshotFile(cfg.SnapshotSave, data); err != nil {
			return nil, err
		}
		log.Printf("snapshot saved to %s (%d bytes)", cfg.SnapshotSave, len(data))
	}
	log.Printf("index ready in %v (%s): %d active /24 blocks, %d-day window",
		time.Since(start).Round(time.Millisecond), stages, idx.NumBlocks(), idx.DailyLen())
	return n, nil
}

// buildDataset decodes the dataset file and compiles it. A shard's file
// passes the partition sink a fresh live shard's stream does, so only
// its slice is ever materialized: once the meta frame has planned the
// partition, the decoder copies out only the records of owned blocks
// and discards other blocks' stats frames undecoded (obs.Restricter). The
// two stages it reports are the start-up budget's "decode …, build …".
func (n *Node) buildDataset() (*query.Index, string, error) {
	start := time.Now()
	log.Printf("loading dataset %s...", n.cfg.Dataset)
	f, err := os.Open(n.cfg.Dataset)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	d := &obs.Data{}
	if err := obs.StreamDecode(f, n.partitioned(d)); err != nil {
		return nil, "", fmt.Errorf("dataset %s: %w", n.cfg.Dataset, err)
	}
	decoded := time.Now()
	idx, err := query.Build(d, n.options())
	if err != nil {
		return nil, "", err
	}
	return idx, fmt.Sprintf("decode %v, build %v", decoded.Sub(start).Round(time.Millisecond),
		time.Since(decoded).Round(time.Millisecond)), nil
}

// loadSnapshot skips the build: the file carries the index (hot sections
// mapped in place, for the life of the process) and its partition range.
func (n *Node) loadSnapshot() (*query.Index, string, error) {
	start := time.Now()
	loaded, err := query.LoadSnapshotFile(n.cfg.SnapshotLoad, query.LoadOptions{})
	if err != nil {
		return nil, "", err
	}
	if sh := loaded.Info.Shard; sh != nil {
		n.bindShard(*sh)
	} else if n.cfg.Replica > 0 {
		// An unsharded snapshot is the one-range partition; the replica
		// id still needs a partition identity to live on.
		n.bindShard(query.ShardRange{Index: 0, Count: 1, Lo: 0, Hi: 1 << 24})
	}
	took := time.Since(start).Round(time.Microsecond)
	log.Printf("loaded snapshot %s in %v: epoch %d", n.cfg.SnapshotLoad, took, loaded.Index.Epoch())
	return loaded.Index, fmt.Sprintf("load %v", took), nil
}

// listen brings up the listeners: RPC first — its address reaches
// routers via /v1/cluster/info, so it is advertised before the HTTP
// listener answers — then HTTP.
func (n *Node) listen() error {
	if n.cfg.RPCListen != "" {
		n.rpcSrv = rpc.NewServer(n.srv, rpc.Options{})
		raddr, err := n.rpcSrv.Listen(n.cfg.RPCListen)
		if err != nil {
			return err
		}
		n.srv.SetRPCAddr(raddr.String())
		log.Printf("rpc on %s", raddr)
	}
	addr, err := n.srv.Listen(n.cfg.Listen)
	if err != nil {
		n.Shutdown() //nolint:errcheck // the listen error is the one to report
		return err
	}
	n.addr = addr
	if n.srv.Index() == nil {
		log.Printf("serving on http://%s (warming: no snapshot yet)", addr)
	} else {
		log.Printf("serving on http://%s", addr)
	}
	return nil
}

// options restricts what is built or applied to the node's slice. The
// slice only exists once the source's meta event yields the plan (or a
// checkpoint its saved range); it is bound before the applier or the
// build sees anything else, on the same goroutine.
func (n *Node) options() query.Options {
	if n.cfg.ShardCount < 1 {
		return query.Options{}
	}
	return query.Options{Keep: func(b ipv4.Block) bool { return n.shard == nil || n.shard.Contains(b) }}
}

// partitioned is sink behind a fresh shard's plan hook: the plan is
// computed from the source's meta event, the range bound, and from then
// on sink only sees (and pays for) this slice.
func (n *Node) partitioned(sink obs.Sink) obs.Sink {
	cfg := n.cfg
	if cfg.ShardCount < 1 {
		return sink
	}
	return cluster.PartitionSink(sink, cfg.ShardIndex, cfg.ShardCount, func(lo, hi uint32) {
		n.bindShard(query.ShardRange{Index: cfg.ShardIndex, Count: cfg.ShardCount, Lo: lo, Hi: hi})
	})
}

func (n *Node) startLive() error {
	cfg := n.cfg
	opts := n.options()
	n.sink = obs.SinkFunc(n.apply)
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return err
		}
		RemoveStale(cfg.SnapshotDir) // a writer killed mid-write left them
		n.ckpt = &CheckpointWriter{Dir: cfg.SnapshotDir, Keep: cfg.SnapshotKeep}
		if err := n.resume(opts); err != nil {
			return err
		}
	}
	if n.applier == nil {
		n.applier = query.NewApplier(opts)
		n.sink = n.partitioned(n.sink)
	}
	if cfg.ObsListen != "" {
		ln, err := net.Listen("tcp", cfg.ObsListen)
		if err != nil {
			return err
		}
		n.obsLn = ln
		log.Printf("waiting for an observation stream on %s", ln.Addr())
	}
	return nil
}

// resume brings the node to the newest epoch the snapshot directory
// holds, if any: it loads the newest resumable base image, rebuilds the
// applier at its cut, replays the base's journal into it and publishes
// once, at the last intact record's epoch; the writer goes on appending
// to that journal.
func (n *Node) resume(opts query.Options) error {
	loaded, name, journal, err := loadNewest(n.cfg.SnapshotDir, query.LoadOptions{})
	if loaded == nil {
		return err
	}
	sh, idx, count := loaded.Info.Shard, n.cfg.ShardIndex, n.cfg.ShardCount
	switch {
	case count < 1 && sh != nil:
		return fmt.Errorf("checkpoint %s belongs to shard %d/%d but no -shard-count was given", name, sh.Index, sh.Count)
	case count > 0 && (sh == nil || sh.Index != idx || sh.Count != count):
		return fmt.Errorf("checkpoint %s does not match -shard-index %d -shard-count %d", name, idx, count)
	}
	if sh != nil {
		// The stream's meta frame is checked against the checkpoint's
		// before anything is applied, so the range it would plan is this
		// one: no re-planning on resume.
		n.bindShard(*sh)
		n.sink = obs.FilterSink(n.sink, sh.Contains)
	}
	// The loaded index is complete and immutable: with nothing to replay
	// it is published first, so reads are answered at the checkpointed
	// epoch while ResumeApplier restores the accumulators from its
	// timelines. It may alias the checkpoint's mapping, which stays mapped
	// for the life of the process; pruning may later unlink the file, which
	// is safe — the mapping keeps the inode alive.
	published, replaying := loaded.Index, len(journal.Records) > 0
	if !replaying {
		n.srv.Publish(published)
	}
	n.applier, n.skip, err = loaded.ResumeApplier(opts)
	if err != nil {
		return fmt.Errorf("resume from checkpoint %s: %v", name, err)
	}
	if replaying {
		if published, err = n.replay(journal); err != nil {
			return fmt.Errorf("resume from checkpoint %s: %v", name, err)
		}
		n.srv.Publish(published)
		n.skip = n.applier.Applied()
	}
	repairJournal(journal)
	n.ckpt.base, n.ckpt.baseBytes, n.ckpt.journalBytes = journal.BaseEpoch, journal.BaseBytes, journal.Intact
	n.resumedFrom, n.checkpointed = name, loaded.Meta()
	log.Printf("resumed from snapshot %s: epoch %d, %d days applied, %d active /24 blocks",
		name, published.Epoch(), n.applier.Days(), published.NumBlocks())
	return nil
}

// replay applies the journal's records to the applier resumed from its
// base and snapshots once, at the last record's epoch. A record is
// decoded whole before any of it is applied.
func (n *Node) replay(j *Journal) (*query.Index, error) {
	for _, rec := range j.Records {
		events, err := rec.Events()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", j.Path, err)
		}
		for _, e := range events {
			if err := n.applier.Observe(e); err != nil {
				return nil, fmt.Errorf("%s: record for epoch %d: %v", j.Path, rec.Epoch, err)
			}
		}
	}
	n.applier.SetEpoch(j.Epoch() - 1)
	idx, err := n.applier.Snapshot()
	if err != nil {
		return nil, err
	}
	log.Printf("replayed %d journal records from %s", len(j.Records), j.Path)
	return idx, nil
}

// loadNewest scans dir for base images, newest first, and returns the
// first one that loads cleanly, with its path and its journal as far as
// it is intact. A corrupt or torn image is logged and skipped — an older
// intact checkpoint beats refusing to start.
func loadNewest(dir string, opts query.LoadOptions) (*query.Loaded, string, *Journal, error) {
	names, err := ListCheckpoints(dir)
	if err != nil {
		return nil, "", nil, err
	}
	slices.Reverse(names)
	for _, name := range names {
		loaded, err := query.LoadSnapshotFile(name, opts)
		if err != nil {
			log.Printf("skipping unreadable checkpoint %s: %v", name, err)
			continue
		}
		if !loaded.Resumable() {
			log.Printf("skipping non-resumable snapshot %s (batch -snapshot-save output?)", name)
			loaded.Close()
			continue
		}
		return loaded, name, JournalOf(name, loaded.Index.Epoch()), nil
	}
	return nil, "", nil, nil
}

// repairJournal leaves on disk only what resume used of j, for the
// writer to append to: a torn or checksum-failing tail is cut off, a file
// that is no journal of this base is removed.
func repairJournal(j *Journal) {
	var err error
	switch {
	case j.Err != nil:
		log.Printf("ignoring journal %s: %v", j.Path, j.Err)
		err = os.Remove(j.Path)
	case j.Tail != nil:
		log.Printf("journal %s: dropping %d bytes after epoch %d: %v", j.Path, j.Size-j.Intact, j.Epoch(), j.Tail)
		err = os.Truncate(j.Path, j.Intact)
	}
	if err != nil && !os.IsNotExist(err) {
		log.Printf("journal %s: %v (the next checkpoint is a whole image)", j.Path, err)
		j.BaseBytes = 0 // nothing may be appended after bytes that are no record
	}
}

// ResumePoint reports what a restart on dir would resume from — the
// newest loadable base image — and the epoch its journal brings it to.
// base is "" when dir holds nothing to resume from.
func ResumePoint(dir string) (base string, epoch uint64, err error) {
	loaded, base, journal, err := loadNewest(dir, query.LoadOptions{})
	if loaded == nil {
		return "", 0, err
	}
	defer loaded.Close()
	return base, journal.Epoch(), nil
}

// bindShard is the one place a node's partition identity is set — what
// the applier or the build keeps, what checkpoints and saved snapshots
// embed, and what the server advertises the moment it is known, so a
// live shard's /v1/cluster/info can answer routers before the first
// epoch. resume and loadSnapshot call it with the file's range, the
// partition sink with the planned one.
func (n *Node) bindShard(r query.ShardRange) {
	n.shard = &r
	n.srv.SetShard(wire.ShardInfo{Index: r.Index, Count: r.Count, Lo: r.Lo, Hi: r.Hi, Replica: n.cfg.Replica})
	log.Printf("shard %d/%d replica %d: block range [%d, %d)", r.Index, r.Count, n.cfg.Replica, r.Lo, r.Hi)
}

// Addr is the bound HTTP address.
func (n *Node) Addr() net.Addr { return n.addr }

// Server is the node's read path.
func (n *Node) Server() *serve.Server { return n.srv }

// Ingest decodes one observation stream from r into the node on the
// caller's goroutine: each day is applied, published and handed to the
// checkpoint writer before the next frame is read — when Ingest returns,
// everything it read is served. On a resumed node, frames the checkpoint
// covers are skipped undecoded and the meta frame must match the
// checkpoint's (*DatasetMismatchError). It returns
// nil once the end frame is read and the final epoch published, and what
// obs.StreamDecode fails with otherwise (obs.ErrTruncated for a stream
// that just stops). A node ingests one stream in its life.
func (n *Node) Ingest(r io.Reader) error {
	return n.endStream(obs.StreamDecodeFrom(r, n.skip, head{n}))
}

// endStream ends a stream that decoded with err. A complete stream's
// end-of-stream aggregates (per-block traffic/UA, scan surfaces) arrived
// after its last day, so one final epoch folds them in.
func (n *Node) endStream(err error) error {
	if err != nil {
		return err
	}
	if err := n.publish(true); err != nil {
		return fmt.Errorf("final publish: %v", err)
	}
	log.Printf("stream complete; serving final epoch")
	return nil
}

// head is the sink Ingest hands the stream decoder: observe, and as an
// obs.Restricter the shard filter n.sink starts with (a fresh shard's
// partition sink once planned, a resumed shard's range filter), so the
// decoder restricts the stream itself. Meta events still reach observe;
// every other event observe would only have passed on to n.sink.
type head struct{ n *Node }

func (h head) Observe(e obs.Event) error { return h.n.observe(e) }

func (h head) Restrict() (func(ipv4.Block) bool, obs.Sink) {
	if r, ok := h.n.sink.(obs.Restricter); ok {
		return r.Restrict()
	}
	return nil, nil
}

// observe is the head of the node's sink chain.
func (n *Node) observe(e obs.Event) error {
	if me, ok := e.(obs.MetaEvent); ok && n.resumedFrom != "" {
		// The applier carries the checkpoint's identity already; the
		// frame is re-delivered only to be checked against it.
		if !n.checkpointed.SameDataset(me.Meta) {
			return &DatasetMismatchError{Checkpoint: n.resumedFrom, Checkpointed: n.checkpointed, Feed: me.Meta}
		}
		return nil
	}
	return n.sink.Observe(e)
}

// apply is the tail of the sink chain: the applier, then a publish after
// every day.
func (n *Node) apply(e obs.Event) error {
	if err := n.applier.Observe(e); err != nil {
		return err
	}
	if n.ckpt != nil {
		n.pending = append(n.pending, e)
	}
	if _, ok := e.(obs.DayEvent); ok {
		return n.publish(false)
	}
	return nil
}

// publish snapshots the applier, swaps the epoch in, and hands the
// writer goroutine what makes the epoch durable: the events applied
// since the previous epoch, or, when the writer is due a whole image
// (always at the final epoch: nothing more will arrive), a capture taken
// while the applier still matches the published epoch. The writer writes
// while the next day is applied. Checkpoint failure is logged, not
// fatal: the serving path must not die because the disk is full.
func (n *Node) publish(final bool) error {
	idx, err := n.applier.Snapshot()
	if err != nil {
		return err
	}
	n.srv.Publish(idx)
	log.Printf("published epoch %d: %d days applied, %d active /24 blocks",
		idx.Epoch(), idx.DailyLen(), idx.NumBlocks())
	if n.ckpt != nil {
		n.ckpt.Submit(idx.Epoch(), n.pending, final, func() (*query.Checkpoint, error) {
			return n.applier.Checkpoint(n.shard)
		})
		n.pending = nil
	}
	return nil
}

// Run is the node's life after start-up. A live node ingests its
// configured stream; when that dies after something was published, the
// node keeps serving it — a dead producer must not take the read path
// down. Then, live or batch, Run serves until ctx is cancelled and shuts
// down. It returns an error — having shut down — when the stream failed
// before anything could be served, was not the checkpointed dataset, or
// the shutdown itself failed.
func (n *Node) Run(ctx context.Context) error {
	if n.applier != nil {
		if err := n.runStream(ctx); err != nil {
			n.Shutdown() //nolint:errcheck // the stream error is the one to report
			return err
		}
	}
	<-ctx.Done()
	log.Printf("signal received; draining in-flight requests...")
	if err := n.Shutdown(); err != nil {
		return err
	}
	log.Printf("bye")
	return nil
}

func (n *Node) runStream(ctx context.Context) error {
	r, err := n.openStream(ctx)
	if err == nil {
		// Cancelling ctx mid-stream unblocks the decoder's read:
		// graceful shutdown must not wait on the peer.
		stop := context.AfterFunc(ctx, func() { r.Close() })
		err = n.Ingest(r)
		stop()
		r.Close()
	}
	var mismatch *DatasetMismatchError
	switch {
	case err == nil || ctx.Err() != nil:
		return nil // complete, or interrupted: drain on this signal
	case errors.As(err, &mismatch):
		return err
	case n.applier.Epoch() == 0:
		return fmt.Errorf("live stream failed before any snapshot was published: %v", err)
	}
	log.Printf("live stream failed: %v", err)
	log.Printf("continuing to serve epoch %d until signalled", n.applier.Epoch())
	return nil
}

// openStream opens the node's configured stream: the tail of the Follow
// file, or the one TCP connection the stream listener accepts.
// Cancelling ctx ends the wait for either.
func (n *Node) openStream(ctx context.Context) (io.ReadCloser, error) {
	if n.cfg.Follow != "" {
		log.Printf("following dataset file %s", n.cfg.Follow)
		return obs.Tail(ctx, n.cfg.Follow)
	}
	defer n.obsLn.Close()
	defer context.AfterFunc(ctx, func() { n.obsLn.Close() })()
	conn, err := n.obsLn.Accept()
	if err != nil {
		return nil, err
	}
	log.Printf("stream connected from %s", conn.RemoteAddr())
	return conn, nil
}

// Shutdown is every exit path's tail, called once: wait for the
// checkpoint write in flight (the newest epoch's file must not be lost
// to a signal, nor its temp file left behind), then drain in-flight
// requests, HTTP and RPC — both, whatever the first returns: an HTTP
// drain that times out must not leave the RPC listener and its
// connections open.
func (n *Node) Shutdown() error {
	if n.obsLn != nil {
		n.obsLn.Close()
	}
	if n.ckpt != nil {
		n.ckpt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.drain)
	defer cancel()
	var errs []error
	if err := n.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("shutdown: %v", err))
	}
	if n.rpcSrv != nil {
		if err := n.rpcSrv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("rpc shutdown: %v", err))
		}
	}
	return errors.Join(errs...)
}
