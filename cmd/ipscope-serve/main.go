// Command ipscope-serve is the serving tier of the pipeline: it
// compiles an observation dataset into a query index and answers
// per-address / per-/24 / per-prefix / per-AS questions over an HTTP
// JSON API, without ever paying the batch-report cost on the request
// path.
//
// Batch mode compiles one dataset and serves it frozen; live mode tails
// a growing observation stream through the incremental applier
// (internal/query.Applier), periodically publishing new epoch-stamped
// snapshots while serving — so "ipscope-gen -connect ADDR | this
// process" forms an end-to-end live pipeline whose /v1/healthz epoch
// advances as simulated days complete.
//
//	-dataset FILE     serve a stored observation dataset (ipscope-gen
//	                  -dataset FILE produces one); without it (and
//	                  without a live flag) a world is simulated
//	                  in-process from -seed/-ases/... flags
//	-follow FILE      live: tail FILE as a producer appends to it,
//	                  publishing snapshots as days arrive
//	-obs-listen ADDR  live: accept one TCP observation stream
//	                  (the peer runs "ipscope-gen -connect ADDR")
//	-publish-every N  live: publish a new epoch every N applied days
//	                  (default 1)
//	-snapshot-save FILE
//	                  batch: after the build, persist the index as an
//	                  on-disk snapshot (atomic rename; the shard range is
//	                  embedded when -shard-count is in effect)
//	-snapshot-load FILE
//	                  batch: skip the build entirely and serve a saved
//	                  snapshot — hot sections map zero-copy, so cold
//	                  start is milliseconds instead of a full rebuild;
//	                  a sharded snapshot restores its own partition range
//	-snapshot-dir DIR live: checkpoint the applier into DIR as epochs
//	                  publish, and on startup resume from the newest
//	                  readable checkpoint (served at once), tailing the
//	                  stream from the cut instead of replaying it from
//	                  the beginning. Files are written beside ingest
//	                  (temp file, fsync, rename): epoch E's lands while
//	                  day E+1 is applied, at most one write behind;
//	                  stale *.ipsnap.tmp files of a killed writer are
//	                  removed at startup, and a signal waits for the
//	                  write in flight
//	-snapshot-every N live: checkpoint every N published epochs
//	                  (default 1); every selected epoch gets its file —
//	                  ingest waits for the writer rather than skip one
//	-snapshot-keep N  live: retain only the newest N checkpoints
//	                  (default 3)
//	-follow-poll DUR  live: -follow poll interval (default 200ms; tests
//	                  and smoke scripts lower it)
//	-listen ADDR      bind address (default 127.0.0.1:8090; :0 picks an
//	                  ephemeral port, printed on startup)
//	-rpc-listen ADDR  also serve the binary RPC protocol (internal/rpc)
//	                  on ADDR and advertise it in /v1/cluster/info, so a
//	                  router running -transport=rpc upgrades its
//	                  connection to this shard
//	-cache N          response cache capacity (0 = default, -1 = off)
//	-retain-epochs N  keep the last N published epochs addressable:
//	                  ?epoch=E time travel on every lookup endpoint,
//	                  /v1/delta?from=&to= between two retained epochs,
//	                  /v1/movement?last=N per-epoch series (0 = retain
//	                  only the live epoch)
//	-access-log FILE  structured JSON access log ("-" = stderr)
//	-workers N        index build fan-out (<=0 = GOMAXPROCS; the index
//	                  is identical for any value)
//	-shard-count N    cluster: restrict this server to its slice of an
//	                  N-way block partition (see cmd/ipscope-router)
//	-shard-index I    cluster: which slice (0-based) this shard owns
//	-replica R        cluster: this process's replica id (0-based) for
//	                  its range, for fleets where several processes
//	                  serve the same slice behind a router running
//	                  -replicas. Identity only: builds are
//	                  deterministic, so every replica of a range serves
//	                  a bit-identical index — the id just labels the
//	                  process in healthz/cluster-info
//	-selfcheck        start on an ephemeral port, probe every endpoint
//	                  over real HTTP, verify responses against the
//	                  index, then exit (CI smoke mode)
//	-dump-summary     print the index summary as JSON and exit without
//	                  serving (CI smoke mode: compare a live server's
//	                  /v1/summary against the batch build)
//	-pprof ADDR       expose net/http/pprof on a side listener (off by
//	                  default; profile loadgen runs without exposing
//	                  pprof on the serving port)
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests drain before the process exits.
//
// Endpoints: /v1/addr/{ip}, /v1/block/{prefix24}, /v1/prefix/{cidr},
// /v1/as/{asn}, /v1/summary, /v1/delta, /v1/movement, /v1/healthz.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"ipscope/internal/cluster"
	"ipscope/internal/ipv4"
	"ipscope/internal/node"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-serve: ")

	dataset := flag.String("dataset", "", "serve a stored observation dataset")
	follow := flag.String("follow", "", "live: tail a growing dataset file")
	obsListen := flag.String("obs-listen", "", "live: accept one TCP observation stream on this address")
	publishEvery := flag.Int("publish-every", 1, "live: publish a new epoch every N applied days")
	snapSave := flag.String("snapshot-save", "", "batch: persist the built index as a snapshot file")
	snapLoad := flag.String("snapshot-load", "", "batch: serve a saved snapshot instead of building")
	snapDir := flag.String("snapshot-dir", "", "live: checkpoint directory (resume from newest on startup)")
	snapEvery := flag.Int("snapshot-every", 1, "live: checkpoint every N published epochs")
	snapKeep := flag.Int("snapshot-keep", 3, "live: retain only the newest N checkpoints")
	followPoll := flag.Duration("follow-poll", 0, "live: -follow poll interval (0 = default 200ms)")
	listen := flag.String("listen", "127.0.0.1:8090", "HTTP listen address")
	rpcListen := flag.String("rpc-listen", "", "also serve the binary RPC protocol on this address")
	cacheSize := flag.Int("cache", 0, "response cache capacity (0 = default, negative = disabled)")
	retainEpochs := flag.Int("retain-epochs", 0, "retain the last N epochs for ?epoch=//v1/delta//v1/movement (0 = live epoch only)")
	accessLog := flag.String("access-log", "", `structured access log file ("-" = stderr)`)
	workers := flag.Int("workers", 0, "index build workers (<=0 = GOMAXPROCS)")
	shardIndex := flag.Int("shard-index", 0, "cluster: this shard's index (with -shard-count)")
	shardCount := flag.Int("shard-count", 0, "cluster: total shards; >0 restricts this server to its block partition")
	replica := flag.Int("replica", 0, "cluster: this process's replica id for its range (identity only; replicas serve bit-identical indexes)")
	selfcheck := flag.Bool("selfcheck", false, "probe every endpoint over HTTP and exit")
	dumpSummary := flag.Bool("dump-summary", false, "print the index summary as JSON and exit")
	seed := flag.Uint64("seed", 1, "world seed (no -dataset)")
	ases := flag.Int("ases", 300, "number of autonomous systems (no -dataset)")
	blocksPerAS := flag.Int("blocks-per-as", 12, "mean /24 blocks per AS (no -dataset)")
	days := flag.Int("days", 364, "simulated days (no -dataset)")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on a side listener (empty = off)")
	flag.Parse()

	startPprof(*pprofAddr)

	live := *follow != "" || *obsListen != ""
	if *follow != "" && *obsListen != "" {
		log.Fatal("use either -follow or -obs-listen, not both")
	}
	if live && (*dataset != "" || *selfcheck || *dumpSummary) {
		log.Fatal("live modes (-follow/-obs-listen) exclude -dataset, -selfcheck and -dump-summary")
	}
	if *selfcheck && *dumpSummary {
		log.Fatal("use either -selfcheck or -dump-summary, not both")
	}
	if *shardCount > 0 && (*shardIndex < 0 || *shardIndex >= *shardCount) {
		log.Fatalf("-shard-index %d outside 0..%d", *shardIndex, *shardCount-1)
	}
	if *replica < 0 {
		log.Fatalf("-replica %d must be >= 0", *replica)
	}
	if *replica > 0 && *shardCount == 0 && *snapLoad == "" {
		log.Fatal("-replica requires a partition identity: -shard-count (use -shard-count 1 for a single-range fleet) or -snapshot-load")
	}
	if live && (*snapSave != "" || *snapLoad != "") {
		log.Fatal("-snapshot-save/-snapshot-load are batch flags; live modes use -snapshot-dir")
	}
	if !live && *snapDir != "" {
		log.Fatal("-snapshot-dir requires a live mode (-follow or -obs-listen)")
	}
	if *snapLoad != "" && *dataset != "" {
		log.Fatal("use either -snapshot-load or -dataset, not both")
	}
	if *snapLoad != "" && *shardCount > 0 {
		log.Fatal("-snapshot-load restores the partition range saved in the snapshot; drop -shard-count")
	}
	if *followPoll != 0 && *follow == "" {
		log.Fatal("-follow-poll only applies to -follow")
	}

	cfg := serve.Config{CacheSize: *cacheSize, RetainEpochs: *retainEpochs}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.AccessLog = f
	}

	if live {
		runLive(cfg, *listen, *rpcListen, liveOptions{
			follow:       *follow,
			obsListen:    *obsListen,
			publishEvery: *publishEvery,
			workers:      *workers,
			shardIndex:   *shardIndex,
			shardCount:   *shardCount,
			replica:      *replica,
			snapshotDir:  *snapDir,
			snapEvery:    *snapEvery,
			snapKeep:     *snapKeep,
			followPoll:   *followPoll,
		})
		return
	}

	start := time.Now()
	var idx *query.Index
	if *snapLoad != "" {
		loaded, err := query.LoadSnapshotFile(*snapLoad, query.LoadOptions{Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		idx = loaded.Index
		if sh := loaded.Info.Shard; sh != nil {
			cfg.Shard = &wire.ShardInfo{Index: sh.Index, Count: sh.Count, Lo: sh.Lo, Hi: sh.Hi, Replica: *replica}
			log.Printf("shard %d/%d replica %d: serving block range [%d, %d)", sh.Index, sh.Count, *replica, sh.Lo, sh.Hi)
		} else if *replica > 0 {
			// An unsharded snapshot is the one-range partition; the
			// replica id still needs a partition identity to live on.
			cfg.Shard = &wire.ShardInfo{Index: 0, Count: 1, Lo: 0, Hi: 1 << 24, Replica: *replica}
		}
		log.Printf("loaded snapshot %s in %v: epoch %d",
			*snapLoad, time.Since(start).Round(time.Microsecond), idx.Epoch())
	} else {
		idx = buildIndex(&cfg, *dataset, *seed, *ases, *blocksPerAS, *days, *workers, *shardIndex, *shardCount, *replica)
	}
	if *snapSave != "" {
		data := query.EncodeSnapshot(idx, shardRangeOf(cfg.Shard))
		if err := query.WriteSnapshotFile(*snapSave, data); err != nil {
			log.Fatal(err)
		}
		log.Printf("snapshot saved to %s (%d bytes)", *snapSave, len(data))
	}
	if *dumpSummary {
		if err := json.NewEncoder(os.Stdout).Encode(idx.Summary()); err != nil {
			log.Fatal(err)
		}
		return
	}
	log.Printf("index ready in %v: %d active /24 blocks, %d-day window",
		time.Since(start).Round(time.Millisecond), idx.NumBlocks(), idx.DailyLen())

	srv := serve.New(idx, cfg)
	rpcSrv := startRPC(srv, *rpcListen)

	bind := *listen
	if *selfcheck {
		bind = "127.0.0.1:0"
	}
	addr, err := srv.Listen(bind)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s", addr)

	if *selfcheck {
		err := runSelfcheck(idx, "http://"+addr.String(), srv.Shard())
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := srv.Shutdown(sctx); err == nil {
			err = serr
		}
		if rpcSrv != nil {
			if serr := rpcSrv.Shutdown(sctx); err == nil {
				err = serr
			}
		}
		if err != nil {
			log.Fatalf("selfcheck: %v", err)
		}
		hits, misses, _ := srv.CacheStats()
		log.Printf("selfcheck passed (cache: %d hits, %d misses)", hits, misses)
		return
	}

	waitAndShutdown(srv, rpcSrv)
}

// startPprof exposes net/http/pprof on a side listener when addr is
// non-empty, so loadgen runs can be profiled without touching the
// serving mux. Off by default.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pprof listen: %v", err)
	}
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go http.Serve(ln, nil) // pprof registers on http.DefaultServeMux
}

// shardRangeOf translates the server's advertised partition into the
// snapshot codec's shard range (nil when unsharded).
func shardRangeOf(sh *wire.ShardInfo) *query.ShardRange {
	if sh == nil {
		return nil
	}
	return &query.ShardRange{Index: sh.Index, Count: sh.Count, Lo: sh.Lo, Hi: sh.Hi}
}

// buildIndex compiles the batch-mode index from a stored dataset or an
// in-process simulation, restricting to the owned slice in shard mode
// (and recording the partition range in cfg for /v1/cluster/info).
func buildIndex(cfg *serve.Config, dataset string, seed uint64, ases, blocksPerAS, days, workers, shardIndex, shardCount, replica int) *query.Index {
	var src obs.Source
	if dataset != "" {
		log.Printf("loading dataset %s...", dataset)
		src = obs.FileSource(dataset)
	} else {
		log.Printf("no -dataset: generating world (%d ASes) and simulating %d days...", ases, days)
		w := synthnet.Generate(synthnet.Config{Seed: seed, NumASes: ases, MeanBlocksPerAS: blocksPerAS})
		scfg := sim.DefaultConfig()
		scfg.Days = days
		res := sim.Run(w, scfg)
		src = &res.Data
	}
	buildOpts := query.Options{Workers: workers}
	if shardCount > 0 {
		// Shard mode: derive the partition plan from the dataset's own
		// meta and restrict both the dataset and the world-proportional
		// build work to this shard's slice, so the index (and its
		// memory) only covers the owned block range.
		d, err := src.Observations()
		if err != nil {
			log.Fatal(err)
		}
		plan, err := cluster.PlanShards(synthnet.Generate(d.Meta.World), shardCount)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := plan.Range(shardIndex)
		cfg.Shard = &wire.ShardInfo{Index: shardIndex, Count: shardCount, Lo: lo, Hi: hi, Replica: replica}
		src = obs.FilterSource(d, plan.Keep(shardIndex))
		buildOpts.Keep = plan.Keep(shardIndex)
		log.Printf("shard %d/%d replica %d: serving block range [%d, %d)", shardIndex, shardCount, replica, lo, hi)
	}
	idx, err := query.Build(src, buildOpts)
	if err != nil {
		log.Fatal(err)
	}
	return idx
}

// startRPC binds the binary RPC listener when -rpc-listen is set; the
// advertised address reaches routers via /v1/cluster/info, so it is
// published before the HTTP listener comes up.
func startRPC(srv *serve.Server, addr string) *rpc.Server {
	if addr == "" {
		return nil
	}
	rs := rpc.NewServer(srv, rpc.Options{})
	raddr, err := rs.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetRPCAddr(raddr.String())
	log.Printf("rpc on %s", raddr)
	return rs
}

// waitAndShutdown blocks until SIGINT/SIGTERM, then drains in-flight
// requests.
func waitAndShutdown(srv *serve.Server, rpcSrv *rpc.Server) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("signal received; draining in-flight requests...")
	drain(srv, rpcSrv)
}

// drain stops the server (HTTP and, if bound, RPC), letting in-flight
// requests finish.
func drain(srv *serve.Server, rpcSrv *rpc.Server) {
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if rpcSrv != nil {
		if err := rpcSrv.Shutdown(sctx); err != nil {
			log.Fatalf("rpc shutdown: %v", err)
		}
	}
	log.Printf("bye")
}

// liveOptions bundles the live-mode knobs: stream source, publish
// cadence, partition slice and snapshot checkpointing.
type liveOptions struct {
	follow, obsListen      string
	publishEvery, workers  int
	shardIndex, shardCount int
	replica                int
	snapshotDir            string
	snapEvery, snapKeep    int
	followPoll             time.Duration
}

// runLive serves a growing observation stream: events flow through the
// incremental applier, and every publish interval the server atomically
// swaps in a freshly published epoch — lookups keep being answered from
// the previous snapshot in the meantime, and the HTTP endpoint is up
// (warming) before the first day arrives.
//
// With -snapshot-dir, every Nth published epoch is also checkpointed to
// disk (atomic rename, bounded retention) by a writer goroutine while
// the next day is applied, and startup resumes from the
// newest readable checkpoint: the saved index is published immediately
// and the stream is tailed from the cut — already-applied frames are
// discarded at the frame level, so restart cost is O(snapshot sections),
// not O(replayed days).
func runLive(cfg serve.Config, listen, rpcListen string, o liveOptions) {
	if o.publishEvery < 1 {
		o.publishEvery = 1
	}
	if o.snapEvery < 1 {
		o.snapEvery = 1
	}
	srv := serve.New(nil, cfg)
	rpcSrv := startRPC(srv, rpcListen)
	addr, err := srv.Listen(listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s (warming: no snapshot yet)", addr)

	// One signal context covers the whole lifetime — stream, final
	// publish and drain — so a signal landing at any point (including
	// during the drain itself) is absorbed instead of killing the
	// process mid-flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// In shard mode the slice predicate only exists once the stream's
	// meta event yields the partition plan (or, on resume, the range
	// saved in the checkpoint); keep is bound then, before the meta
	// event reaches the applier (same goroutine).
	var keep func(b ipv4.Block) bool
	applierOpts := query.Options{Workers: o.workers}
	if o.shardCount > 0 {
		applierOpts.Keep = func(b ipv4.Block) bool { return keep == nil || keep(b) }
	}

	var (
		applier   *query.Applier
		skip      obs.SkipCounts
		resumed   bool
		snapShard *query.ShardRange
		ckpt      *node.CheckpointWriter // nil without -snapshot-dir
	)
	if o.snapshotDir != "" {
		if err := os.MkdirAll(o.snapshotDir, 0o755); err != nil {
			log.Fatal(err)
		}
		node.RemoveStaleTemps(o.snapshotDir) // a writer killed mid-write left them
		ckpt = &node.CheckpointWriter{Dir: o.snapshotDir, Keep: o.snapKeep}
		if loaded, name := loadNewestSnapshot(o.snapshotDir, query.LoadOptions{Workers: o.workers}); loaded != nil {
			sh := loaded.Info.Shard
			switch {
			case o.shardCount == 0 && sh != nil:
				log.Fatalf("checkpoint %s belongs to shard %d/%d but no -shard-count was given", name, sh.Index, sh.Count)
			case o.shardCount > 0 && (sh == nil || sh.Index != o.shardIndex || sh.Count != o.shardCount):
				log.Fatalf("checkpoint %s does not match -shard-index %d -shard-count %d", name, o.shardIndex, o.shardCount)
			}
			if sh != nil {
				lo, hi := sh.Lo, sh.Hi
				keep = func(b ipv4.Block) bool { return uint32(b) >= lo && uint32(b) < hi }
				srv.SetShard(wire.ShardInfo{Index: sh.Index, Count: sh.Count, Lo: lo, Hi: hi, Replica: o.replica})
				snapShard = &query.ShardRange{Index: sh.Index, Count: sh.Count, Lo: lo, Hi: hi}
				log.Printf("shard %d/%d replica %d: applying block range [%d, %d)", sh.Index, sh.Count, o.replica, lo, hi)
			}
			// The loaded index is complete and immutable: publish it
			// first, so reads are answered at the checkpointed epoch
			// while ResumeApplier rebuilds the staging state only the
			// next day needs. It may alias the checkpoint's mapping; it
			// stays mapped for the life of the process. Pruning may
			// later unlink the file, which is safe: the mapping keeps
			// the inode alive.
			srv.Publish(loaded.Index)
			ap, sk, err := loaded.ResumeApplier(applierOpts)
			if err != nil {
				log.Fatalf("resume from checkpoint %s: %v", name, err)
			}
			applier, skip, resumed = ap, sk, true
			log.Printf("resumed from snapshot %s: epoch %d, %d days applied, %d active /24 blocks",
				name, loaded.Index.Epoch(), ap.Days(), loaded.Index.NumBlocks())
		}
	}
	if applier == nil {
		applier = query.NewApplier(applierOpts)
	}
	lastPublished := applier.Days()
	publish := func() error {
		idx, err := applier.Snapshot()
		if err != nil {
			return err
		}
		srv.Publish(idx)
		lastPublished = applier.Days()
		log.Printf("published epoch %d: %d days applied, %d active /24 blocks",
			idx.Epoch(), idx.DailyLen(), idx.NumBlocks())
		if ckpt != nil && idx.Epoch()%uint64(o.snapEvery) == 0 {
			// Capture now, while the applier still matches the published
			// epoch; the writer goroutine streams the file out while the
			// next day is applied. Checkpoint failure is logged, not
			// fatal: the serving path must not die because the disk is
			// full.
			cp, err := applier.Checkpoint(snapShard)
			if err != nil {
				log.Printf("checkpoint epoch %d: %v (continuing without)", idx.Epoch(), err)
			} else {
				ckpt.Submit(cp)
			}
		}
		return nil
	}
	// shutdown is every exit path's tail: wait for the checkpoint in
	// flight (the newest epoch's file must not be lost to a signal, nor
	// its temp file left behind), then drain.
	shutdown := func() {
		log.Printf("signal received; draining in-flight requests...")
		if ckpt != nil {
			ckpt.Close()
		}
		drain(srv, rpcSrv)
	}
	var sink obs.Sink = obs.SinkFunc(func(e obs.Event) error {
		if _, ok := e.(obs.MetaEvent); ok && resumed {
			// The applier already carries the dataset identity from the
			// checkpoint; the re-delivered meta frame only re-arms the
			// partition sink below.
			resumed = false
			return nil
		}
		if err := applier.Observe(e); err != nil {
			return err
		}
		if _, ok := e.(obs.DayEvent); ok && applier.Days()-lastPublished >= o.publishEvery {
			return publish()
		}
		return nil
	})
	if o.shardCount > 0 {
		// Live shard mode: the partition plan is computed from the
		// stream's meta event; from then on the applier only sees (and
		// pays for) this shard's slice. The owned range is published to
		// the server the moment it is known, so /v1/cluster/info can
		// answer routers before the first epoch.
		sink = cluster.PartitionSink(sink, o.shardIndex, o.shardCount, func(lo, hi uint32) {
			keep = func(b ipv4.Block) bool { return uint32(b) >= lo && uint32(b) < hi }
			srv.SetShard(wire.ShardInfo{Index: o.shardIndex, Count: o.shardCount, Lo: lo, Hi: hi, Replica: o.replica})
			snapShard = &query.ShardRange{Index: o.shardIndex, Count: o.shardCount, Lo: lo, Hi: hi}
			log.Printf("shard %d/%d replica %d: applying block range [%d, %d)", o.shardIndex, o.shardCount, o.replica, lo, hi)
		})
	}

	var streamErr error
	if o.follow != "" {
		log.Printf("following dataset file %s", o.follow)
		streamErr = obs.FollowWith(ctx, o.follow, obs.FollowOptions{Poll: o.followPoll, Skip: skip}, sink)
	} else {
		streamErr = acceptStream(ctx, o.obsListen, skip, sink)
	}
	if ctx.Err() != nil {
		// Interrupted while streaming: drain and exit on this signal.
		shutdown()
		return
	}
	switch {
	case streamErr != nil && applier.Epoch() == 0:
		// The stream died before anything could be served.
		log.Fatalf("live stream failed before any snapshot was published: %v", streamErr)
	case streamErr != nil:
		// A dead producer must not take the read path down with it: keep
		// serving the last published epoch until the operator decides.
		log.Printf("live stream failed: %v", streamErr)
		log.Printf("continuing to serve epoch %d until signalled", applier.Epoch())
	default:
		// The stream completed: the end-of-stream aggregates (per-block
		// traffic/UA, scan surfaces) arrived after the last day, so one
		// final epoch folds them in; the server keeps serving it until
		// signalled.
		if err := publish(); err != nil {
			log.Fatalf("final publish: %v", err)
		}
		log.Printf("stream complete; serving final epoch")
	}
	<-ctx.Done()
	shutdown()
}

// loadNewestSnapshot scans dir for checkpoints, newest first, and
// returns the first one that loads cleanly (with its path). A corrupt
// or torn file is logged and skipped — an older intact checkpoint
// beats refusing to start.
func loadNewestSnapshot(dir string, opts query.LoadOptions) (*query.Loaded, string) {
	names, err := node.ListCheckpoints(dir)
	if err != nil {
		log.Fatal(err)
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
		return loaded, name
	}
	return nil, ""
}

// acceptStream accepts one TCP connection and decodes its observation
// stream into sink. A signal while waiting in Accept closes the
// listener so the wait ends cleanly.
func acceptStream(ctx context.Context, obsListen string, skip obs.SkipCounts, sink obs.Sink) error {
	ln, err := net.Listen("tcp", obsListen)
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	log.Printf("waiting for an observation stream on %s", ln.Addr())
	conn, err := ln.Accept()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer conn.Close()
	// A signal mid-stream must unblock the decoder's read, not just the
	// accept loop, or graceful shutdown would wait on the peer.
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	log.Printf("stream connected from %s", conn.RemoteAddr())
	return obs.StreamDecodeFrom(conn, skip, sink)
}

// runSelfcheck probes every endpoint over real HTTP and verifies the
// JSON responses against the index the server was built from — the
// same source of truth the batch report uses (the serve test suite
// proves that identity), so CI can assert the full pipeline without
// parsing report text. It is partition-aware: probe targets come from
// the index itself (so a shard only probes blocks it owns), and in
// shard mode the cluster plane is verified too — the advertised range
// must contain every indexed block and the mergeable summary partial
// must finalize to the served summary.
func runSelfcheck(idx *query.Index, base string, shard wire.ShardInfo) error {
	getJSON := func(path string, out any) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return json.Unmarshal(body, out)
	}

	if idx.NumBlocks() == 0 {
		return fmt.Errorf("index has no blocks")
	}
	blk := idx.Blocks()[idx.NumBlocks()/2]
	want, _ := idx.Block(blk)

	var gotBlock query.BlockView
	if err := getJSON("/v1/block/"+blk.String(), &gotBlock); err != nil {
		return err
	}
	if gotBlock != want {
		return fmt.Errorf("/v1/block/%v = %+v, index says %+v", blk, gotBlock, want)
	}

	var gotAddr query.AddrView
	addr := blk.Addr(0)
	if err := getJSON("/v1/addr/"+addr.String(), &gotAddr); err != nil {
		return err
	}
	if wantAddr := idx.Addr(addr); gotAddr != wantAddr {
		return fmt.Errorf("/v1/addr/%v = %+v, index says %+v", addr, gotAddr, wantAddr)
	}

	var gotPrefix query.PrefixView
	p := ipv4.MustNewPrefix(blk.First(), 20)
	if err := getJSON("/v1/prefix/"+p.String(), &gotPrefix); err != nil {
		return err
	}
	if gotPrefix.ActiveBlocks == 0 {
		return fmt.Errorf("/v1/prefix/%v reports no active blocks", p)
	}

	var gotAS query.ASView
	if err := getJSON(fmt.Sprintf("/v1/as/AS%d", want.AS), &gotAS); err != nil {
		return err
	}
	if gotAS.ActiveBlocks == 0 {
		return fmt.Errorf("/v1/as/AS%d reports no active blocks", want.AS)
	}

	var gotSummary query.Summary
	if err := getJSON("/v1/summary", &gotSummary); err != nil {
		return err
	}
	if gotSummary != idx.Summary() {
		return fmt.Errorf("/v1/summary = %+v, index says %+v", gotSummary, idx.Summary())
	}

	var health map[string]any
	if err := getJSON("/v1/healthz", &health); err != nil {
		return err
	}
	if health["status"] != "ok" {
		return fmt.Errorf("/v1/healthz = %v", health)
	}

	// Cluster plane: the advertised partition must cover every indexed
	// block, and the mergeable partial must finalize to the summary the
	// server answers with.
	var info wire.ShardInfo
	if err := getJSON("/v1/cluster/info", &info); err != nil {
		return err
	}
	if info != shard {
		return fmt.Errorf("/v1/cluster/info = %+v, server says %+v", info, shard)
	}
	for _, b := range idx.Blocks() {
		if !shard.Contains(b) {
			return fmt.Errorf("indexed block %v outside advertised range [%d, %d)", b, shard.Lo, shard.Hi)
		}
	}
	var partial query.SummaryPartial
	if err := getJSON("/v1/cluster/summary", &partial); err != nil {
		return err
	}
	if got := partial.Finalize(); got != idx.Summary() {
		return fmt.Errorf("/v1/cluster/summary finalizes to %+v, index says %+v", got, idx.Summary())
	}

	// Second pass over one endpoint must be served from cache.
	if err := getJSON("/v1/block/"+blk.String(), &gotBlock); err != nil {
		return err
	}
	return nil
}
