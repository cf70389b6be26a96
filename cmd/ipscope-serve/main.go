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
	"syscall"
	"time"

	"ipscope/internal/cluster"
	"ipscope/internal/ipv4"
	"ipscope/internal/node"
	"ipscope/internal/obs"
	"ipscope/internal/query"
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

	cfg := node.Config{
		Serve:     serve.Config{CacheSize: *cacheSize, RetainEpochs: *retainEpochs},
		Listen:    *listen,
		RPCListen: *rpcListen,
		Replica:   *replica,
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.Serve.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.Serve.AccessLog = f
	}

	if live {
		cfg.Follow, cfg.ObsListen, cfg.FollowPoll = *follow, *obsListen, *followPoll
		cfg.PublishEvery, cfg.Workers = *publishEvery, *workers
		cfg.ShardIndex, cfg.ShardCount = *shardIndex, *shardCount
		cfg.SnapshotDir, cfg.SnapshotEvery, cfg.SnapshotKeep = *snapDir, *snapEvery, *snapKeep
		n, err := node.Start(cfg)
		if err != nil {
			log.Fatal(err)
		}
		run(n)
		return
	}

	start := time.Now()
	var idx *query.Index
	var shard *query.ShardRange
	var stages string // the start-up budget, as the "index ready" line reports it
	if *snapLoad != "" {
		loaded, err := query.LoadSnapshotFile(*snapLoad, query.LoadOptions{Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		idx, shard = loaded.Index, loaded.Info.Shard
		if shard != nil {
			log.Printf("shard %d/%d replica %d: serving block range [%d, %d)", shard.Index, shard.Count, *replica, shard.Lo, shard.Hi)
		} else if *replica > 0 {
			// An unsharded snapshot is the one-range partition; the
			// replica id still needs a partition identity to live on.
			shard = &query.ShardRange{Index: 0, Count: 1, Lo: 0, Hi: 1 << 24}
		}
		took := time.Since(start).Round(time.Microsecond)
		log.Printf("loaded snapshot %s in %v: epoch %d", *snapLoad, took, idx.Epoch())
		stages = fmt.Sprintf("load %v", took)
	} else {
		idx, shard, stages = buildIndex(*dataset, *seed, *ases, *blocksPerAS, *days, *workers, *shardIndex, *shardCount, *replica)
	}
	if *snapSave != "" {
		data := query.EncodeSnapshot(idx, shard)
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
	log.Printf("index ready in %v (%s): %d active /24 blocks, %d-day window",
		time.Since(start).Round(time.Millisecond), stages, idx.NumBlocks(), idx.DailyLen())

	if *selfcheck {
		cfg.Listen = "127.0.0.1:0"
	}
	n, err := node.Serve(cfg, idx, shard)
	if err != nil {
		log.Fatal(err)
	}
	if *selfcheck {
		err := runSelfcheck(idx, "http://"+n.Addr().String(), n.Server().Shard())
		if serr := n.Shutdown(); err == nil {
			err = serr
		}
		if err != nil {
			log.Fatalf("selfcheck: %v", err)
		}
		hits, misses, _ := n.Server().CacheStats()
		log.Printf("selfcheck passed (cache: %d hits, %d misses)", hits, misses)
		return
	}
	run(n)
}

// run gives the node the rest of the process's life. One signal context
// covers all of it — stream, final publish and drain — so a signal
// landing at any point (including during the drain itself) is absorbed
// instead of killing the process mid-flight.
func run(n *node.Node) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := n.Run(ctx); err != nil {
		log.Fatal(err)
	}
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

// buildIndex compiles the batch-mode index from a stored dataset or an
// in-process simulation, restricted in shard mode to the owned slice,
// whose range it returns. The observations are materialized exactly once
// here, sharded or not, so the two stages it reports — "decode …, build
// …" ("simulate" without -dataset) — are the same two on every path.
func buildIndex(dataset string, seed uint64, ases, blocksPerAS, days, workers, shardIndex, shardCount, replica int) (*query.Index, *query.ShardRange, string) {
	start := time.Now()
	var d *obs.Data
	stage := "decode"
	if dataset != "" {
		log.Printf("loading dataset %s...", dataset)
		var err error
		if d, err = obs.FileSource(dataset).Observations(); err != nil {
			log.Fatal(err)
		}
	} else {
		log.Printf("no -dataset: generating world (%d ASes) and simulating %d days...", ases, days)
		w := synthnet.Generate(synthnet.Config{Seed: seed, NumASes: ases, MeanBlocksPerAS: blocksPerAS})
		scfg := sim.DefaultConfig()
		scfg.Days = days
		res := sim.Run(w, scfg)
		d, stage = &res.Data, "simulate"
	}
	decoded := time.Now()
	var src obs.Source = d
	buildOpts := query.Options{Workers: workers}
	var shard *query.ShardRange
	if shardCount > 0 {
		// Shard mode: derive the partition plan from the dataset's own
		// meta and restrict both the dataset and the world-proportional
		// build work to this shard's slice, so the index (and its
		// memory) only covers the owned block range.
		plan, err := cluster.PlanForMeta(d.Meta.World, shardCount)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := plan.Range(shardIndex)
		shard = &query.ShardRange{Index: shardIndex, Count: shardCount, Lo: lo, Hi: hi}
		src = obs.FilterSource(d, plan.Keep(shardIndex))
		buildOpts.Keep = plan.Keep(shardIndex)
		log.Printf("shard %d/%d replica %d: serving block range [%d, %d)", shardIndex, shardCount, replica, lo, hi)
	}
	idx, err := query.Build(src, buildOpts)
	if err != nil {
		log.Fatal(err)
	}
	stages := fmt.Sprintf("%s %v, build %v", stage,
		decoded.Sub(start).Round(time.Millisecond), time.Since(decoded).Round(time.Millisecond))
	return idx, shard, stages
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
