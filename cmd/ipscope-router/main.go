// Command ipscope-router is the scatter-gather front of a sharded
// serving cluster: it speaks the same /v1/* API as a single
// ipscope-serve node, but answers from a fleet of block-partitioned
// shards (ipscope-serve -shard-index I -shard-count N), optionally
// replicated (-replicas R: R processes per range, each started with a
// distinct -replica id).
//
// At startup the router reads every process's /v1/cluster/info
// (retrying while shards compile their slices), groups replicas by
// owned range, validates that the ranges tile the whole /24 space
// exactly once with R processes each, and then routes:
//
//   - live reads (no query string) of /v1/addr, /v1/block, /v1/prefix,
//     /v1/as and /v1/summary are answered from the router's response
//     cache when it holds them (X-Cache: hit) — the node's own cache
//     and read path, keyed by the epoch the router has observed the
//     consulted ranges serving; bytes are exact, and a cached answer
//     trails a shard's publish by at most -probe-every;
//   - /v1/addr and /v1/block otherwise proxy to a healthy replica of
//     the range owning the block — retrying the next replica on
//     failure; the response carries the answering replica's epoch and
//     ETag plus X-Shard/X-Replica headers;
//   - /v1/summary, /v1/as, /v1/prefix, /v1/delta and /v1/movement fan
//     out one fetch per covering range with bounded concurrency,
//     failing over within each range mid-gather, and fold the
//     mergeable partials — the merged answer is byte-identical
//     (modulo epoch metadata) to a single node over the unsharded
//     dataset, whichever replicas answered, because every replica of
//     a range serves a bit-identical index;
//   - /v1/healthz probes every replica (including ones in backoff —
//     the operator's active re-admission path), reports per-process
//     shardStates and per-range rangeStates, and aggregates: 200 "ok"
//     while every range has at least one serving replica, 503
//     "degraded" only when some range has none.
//
// Health is tracked per replica: request failures mark a replica down
// passively, a background prober re-checks it, and exponential
// backoff gates re-admission. With -replicas 2 the fleet keeps
// answering every request with one replica of each range dead; a dead
// range (all replicas down) degrades only its own blocks while every
// other range keeps answering.
//
//	-shards URLS   comma-separated process base URLs, any order
//	               (required; ranges are discovered; with -replicas R
//	               the URLs must form R complete copies of the
//	               partition)
//	-replicas R    replication factor (default 1, at least 1): how many
//	               of the -shards processes serve each range
//	-listen ADDR   bind address (default 127.0.0.1:8095)
//	-transport T   shard transport: "http" (JSON over the public API,
//	               the default) or "rpc" (persistent pipelined binary
//	               connections to shards started with -rpc-listen;
//	               shards advertising no RPC endpoint fall back to
//	               HTTP individually)
//	-info-timeout  how long to wait for shards at startup (default 30s)
//	-probe-every D background health probe cadence (default 1s), also
//	               the bound on how far a cached answer can trail a
//	               publish; negative disables background probing and,
//	               with it, the response cache
//	-pprof ADDR    expose net/http/pprof on a side listener (off by
//	               default)
//
// A refused flag combination prints the usage and exits 2.
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
	"strings"
	"syscall"
	"time"

	"ipscope/internal/cluster"
)

// options is argv, parsed and checked.
type options struct {
	urls   []string
	router cluster.RouterOptions
	listen string
	pprof  string
}

// parse declares the flags on fs, parses args and refuses a router with
// no shards or a replication factor below 1.
func parse(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	shards := fs.String("shards", "", "comma-separated shard base URLs (required)")
	fs.IntVar(&o.router.Replicas, "replicas", 1, "replication factor: processes per block range")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8095", "HTTP listen address")
	fs.StringVar(&o.router.Transport, "transport", cluster.TransportHTTP, `shard transport: "http" or "rpc"`)
	fs.DurationVar(&o.router.InfoTimeout, "info-timeout", cluster.DefaultInfoTimeout, "startup partition discovery timeout")
	fs.DurationVar(&o.router.ProbeInterval, "probe-every", cluster.DefaultProbeInterval, "background health probe cadence (negative = off, and no response cache)")
	fs.StringVar(&o.pprof, "pprof", "", "expose net/http/pprof on a side listener (empty = off)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			o.urls = append(o.urls, strings.TrimSuffix(u, "/"))
		}
	}
	switch {
	case len(o.urls) == 0:
		return o, errors.New("-shards is empty: pass -shards http://host1:port,http://host2:port,...")
	case o.router.Replicas < 1:
		return o, fmt.Errorf("-replicas %d must be >= 1", o.router.Replicas)
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-router: ")

	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	if o.pprof != "" {
		ln, err := net.Listen("tcp", o.pprof)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
		go http.Serve(ln, nil) // pprof registers on http.DefaultServeMux
	}

	log.Printf("discovering partition behind %d process(es)...", len(o.urls))
	router, err := cluster.NewRouter(o.urls, o.router)
	if err != nil {
		log.Fatal(err)
	}

	addr, err := router.Listen(o.listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d range(s) x %d replica(s) on http://%s", router.NumShards(), router.NumReplicas(), addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("signal received; draining in-flight requests...")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.Shutdown(sctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	router.Close()
	log.Printf("bye")
}
