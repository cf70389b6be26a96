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
// advances as simulated days complete. Either way the process is
// internal/node's Start and Run; this file is the flags, the
// combinations of them that are refused, and the signal context.
//
// Exactly one of the four sources is given:
//
//	-dataset FILE     batch: build the index of a stored observation
//	                  dataset (ipscope-gen -dataset FILE produces one)
//	                  and serve it; the listeners are bound once it is
//	                  built
//	-snapshot-load FILE
//	                  batch: skip the build entirely and serve a saved
//	                  snapshot — hot sections map zero-copy, so cold
//	                  start is milliseconds instead of a full rebuild;
//	                  a sharded snapshot restores its own partition range
//	-follow FILE      live: tail FILE as a producer appends to it,
//	                  publishing a snapshot as each day arrives
//	-obs-listen ADDR  live: accept one TCP observation stream
//	                  (the peer runs "ipscope-gen -connect ADDR")
//	-snapshot-save FILE
//	                  batch: after the build, persist the index as an
//	                  on-disk snapshot (atomic rename; the shard range is
//	                  embedded when -shard-count is in effect)
//	-snapshot-dir DIR live: make every published epoch durable in DIR
//	                  (ingest waits for the writer rather than skip
//	                  one), and on startup resume from what it holds
//	                  (the newest readable base image plus its journal,
//	                  served at the last durable epoch), tailing the
//	                  stream from the cut instead of replaying it from
//	                  the beginning. A base image snap-<B>.ipsnap is the
//	                  whole applier (temp file, fsync, rename); beside
//	                  it snap-<B>.ipjournal takes one fsynced record per
//	                  later epoch — the events that epoch applied —
//	                  until it holds 1/16 of the image's bytes, and the
//	                  next epoch (and always the stream's last) is a new
//	                  image. Written beside ingest: epoch E lands while
//	                  day E+1 is applied, at most one write behind;
//	                  stale snap-*.tmp files of a killed writer are
//	                  removed at startup, and a signal waits for the
//	                  write in flight. ipscope-snapshot DIR lists it
//	-snapshot-keep N  live: retain only the newest N base images, each
//	                  with its journal (default 3; at least 1)
//	-listen ADDR      bind address (default 127.0.0.1:8090; :0 picks an
//	                  ephemeral port, printed on startup)
//	-rpc-listen ADDR  also serve the binary RPC protocol (internal/rpc)
//	                  on ADDR and advertise it in /v1/cluster/info, so a
//	                  router running -transport=rpc upgrades its
//	                  connection to this shard
//	-retain-epochs N  keep the last N published epochs addressable:
//	                  ?epoch=E time travel on every lookup endpoint,
//	                  /v1/delta?from=&to= between two retained epochs,
//	                  /v1/movement?last=N per-epoch series (0 = retain
//	                  only the live epoch; negative is refused)
//	-access-log FILE  structured JSON access log ("-" = stderr)
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
//	-dump-summary     batch: print the index summary as JSON and exit
//	                  without binding a listener (CI smoke mode: compare
//	                  a live server's /v1/summary against the batch
//	                  build)
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
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener
	"os"
	"os/signal"
	"syscall"

	"ipscope/internal/node"
)

// options is argv, parsed and checked: the node's configuration, and what
// main acts on itself.
type options struct {
	node        node.Config
	accessLog   string // opened into node.Serve.AccessLog
	pprof       string
	dumpSummary bool
}

// parse declares the flags on fs, parses args and refuses the
// combinations that mean nothing.
func parse(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	c := &o.node
	fs.StringVar(&c.Dataset, "dataset", "", "batch: build and serve a stored observation dataset")
	fs.StringVar(&c.SnapshotLoad, "snapshot-load", "", "batch: serve a saved snapshot instead of building")
	fs.StringVar(&c.Follow, "follow", "", "live: tail a growing dataset file")
	fs.StringVar(&c.ObsListen, "obs-listen", "", "live: accept one TCP observation stream on this address")
	fs.StringVar(&c.SnapshotSave, "snapshot-save", "", "batch: persist the index as a snapshot file")
	fs.StringVar(&c.SnapshotDir, "snapshot-dir", "", "live: checkpoint directory: base images and their journals (resume from the newest on startup)")
	fs.IntVar(&c.SnapshotKeep, "snapshot-keep", 3, "live: retain only the newest N base images, each with its journal")
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:8090", "HTTP listen address")
	fs.StringVar(&c.RPCListen, "rpc-listen", "", "also serve the binary RPC protocol on this address")
	fs.IntVar(&c.Serve.RetainEpochs, "retain-epochs", 0, "retain the last N epochs for ?epoch=//v1/delta//v1/movement (0 = live epoch only)")
	fs.StringVar(&o.accessLog, "access-log", "", `structured access log file ("-" = stderr)`)
	fs.IntVar(&c.ShardIndex, "shard-index", 0, "cluster: this shard's index (with -shard-count)")
	fs.IntVar(&c.ShardCount, "shard-count", 0, "cluster: total shards; >0 restricts this server to its block partition")
	fs.IntVar(&c.Replica, "replica", 0, "cluster: this process's replica id for its range (identity only; replicas serve bit-identical indexes)")
	fs.BoolVar(&o.dumpSummary, "dump-summary", false, "batch: print the index summary as JSON and exit")
	fs.StringVar(&o.pprof, "pprof", "", "expose net/http/pprof on a side listener (empty = off)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	sources := 0
	for _, s := range []string{c.Dataset, c.SnapshotLoad, c.Follow, c.ObsListen} {
		if s != "" {
			sources++
		}
	}
	batch := c.Dataset != "" || c.SnapshotLoad != ""
	switch {
	case sources != 1:
		return o, errors.New("give exactly one of -dataset, -snapshot-load, -follow, -obs-listen")
	case !batch && (o.dumpSummary || c.SnapshotSave != ""):
		return o, errors.New("-dump-summary and -snapshot-save are batch flags (-dataset, -snapshot-load); live modes use -snapshot-dir")
	case batch && c.SnapshotDir != "":
		return o, errors.New("-snapshot-dir requires a live mode (-follow or -obs-listen)")
	case c.SnapshotLoad != "" && c.ShardCount > 0:
		return o, errors.New("-snapshot-load restores the partition range saved in the snapshot; drop -shard-count")
	case c.ShardCount <= 0 && c.ShardIndex != 0:
		return o, fmt.Errorf("-shard-index %d requires -shard-count", c.ShardIndex)
	case c.ShardCount > 0 && (c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount):
		return o, fmt.Errorf("-shard-index %d outside 0..%d", c.ShardIndex, c.ShardCount-1)
	case c.Replica < 0:
		return o, fmt.Errorf("-replica %d must be >= 0", c.Replica)
	case c.Replica > 0 && c.ShardCount <= 0 && c.SnapshotLoad == "":
		return o, errors.New("-replica requires a partition identity: -shard-count (use -shard-count 1 for a single-range fleet) or -snapshot-load")
	case c.SnapshotKeep < 1:
		return o, fmt.Errorf("-snapshot-keep %d must be >= 1", c.SnapshotKeep)
	case c.Serve.RetainEpochs < 0:
		return o, fmt.Errorf("-retain-epochs %d must be >= 0", c.Serve.RetainEpochs)
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-serve: ")

	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	startPprof(o.pprof)
	switch o.accessLog {
	case "":
	case "-":
		o.node.Serve.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(o.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		o.node.Serve.AccessLog = f
	}

	if o.dumpSummary {
		if err := node.DumpSummary(o.node, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	n, err := node.Start(o.node)
	if err != nil {
		log.Fatal(err)
	}
	// One signal context covers the rest of the process's life — stream,
	// final publish and drain — so a signal landing at any point
	// (including during the drain itself) is absorbed instead of killing
	// the process mid-flight.
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
