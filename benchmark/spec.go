package main

import "time"

// The benchmark's contract: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository
// root repeats exactly this (spec_test.go holds the two together);
// later issues cite these names and never edit them.

// workload is one fleet + traffic mix.
type workload struct {
	Name string
	Why  string
}

// The four workloads, in the order "all" runs them.
var workloads = []workload{
	{"hot-read", "2048 fixed URLs under zipf on one node: all cache hits, so only serve's hit path, net/http and the socket write work; render, cluster and rpc are bypassed"},
	{"cold-read", "uniform keys over ~900k addrs, /24s, prefixes and ASNs on one node: 6 in 7 requests miss, render, encode and evict; a render or cache-insert change shows here, not on hot-read"},
	{"routed-read", "zipf blend via ipscope-router over 2 ranges x 2 replicas (rpc transport): routing, replica pick, scatter-gather merge and the rpc round trip dominate; shard caches are bypassed"},
	{"live-ingest", "one node ingests the 112-day stream (paced, then flooded), publishing and checkpointing each day, while a 500 req/s open-loop reader races epoch turnover; then kill -9 and resume"},
}

// metric is one named measurement.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
}

// The end-to-end metrics. Every workload reports every one of them; see
// README.md for what each means on a batch (-dataset) fleet versus the
// live (-obs-listen) fleet.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"read_rps", "1/s", "higher", 0.25},
	{"point_p50_ms", "ms", "lower", 0.25},
	{"agg_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_read", "us", "lower", 0.25},
	{"ingest_days_per_s", "days/s", "higher", 0.25},
	{"publish_lag_p50_ms", "ms", "lower", 0.25},
	{"resume_s", "s", "lower", 0.25},
	{"cpu_ms_per_day", "ms", "lower", 0.25},
}

// The per-layer metrics, layer = this repository's package name. Times
// are medians over the traced in-process calls; the serve.cache_*,
// cluster.*_share and node.* rows are read from outside the live
// processes of the workload's fleet.
var perLayer = []metric{
	{"obs.decode_day_ms", "ms", "lower", 0},
	{"obs.decode_aux_us", "us", "lower", 0},
	{"obs.decode_mb_per_s", "MB/s", "higher", 0},
	{"obs.skip_day_us", "us", "lower", 0},
	{"obs.encode_day_ms", "ms", "lower", 0},
	{"obs.frames", "count", "lower", 0},
	{"obs.bytes", "bytes", "lower", 0},

	{"query.apply_day_ms", "ms", "lower", 0},
	{"query.apply_aux_us", "us", "lower", 0},
	{"query.snapshot_ms", "ms", "lower", 0},
	{"query.build_ms", "ms", "lower", 0},
	{"query.addr_us", "us", "lower", 0},
	{"query.block_us", "us", "lower", 0},
	{"query.prefix_us", "us", "lower", 0},
	{"query.as_us", "us", "lower", 0},
	{"query.delta_ms", "ms", "lower", 0},
	{"query.checkpoint_encode_ms", "ms", "lower", 0},
	{"query.snapshot_write_ms", "ms", "lower", 0},
	{"query.snapshot_load_ms", "ms", "lower", 0},
	{"query.resume_applier_ms", "ms", "lower", 0},
	{"query.checkpoint_bytes", "bytes", "lower", 0},
	{"query.merge_summary_us", "us", "lower", 0},
	{"query.merge_as_us", "us", "lower", 0},
	{"query.merge_prefix_us", "us", "lower", 0},
	{"query.partial_wire_encode_us", "us", "lower", 0},
	{"query.partial_wire_decode_us", "us", "lower", 0},

	{"history.add_us", "us", "lower", 0},
	{"history.get_ns", "ns", "lower", 0},
	{"history.delta_ms", "ms", "lower", 0},
	{"history.movement_us", "us", "lower", 0},

	{"serve.publish_ms", "ms", "lower", 0},
	{"serve.hit_us", "us", "lower", 0},
	{"serve.hit_allocs", "count", "lower", 0},
	{"serve.miss_addr_us", "us", "lower", 0},
	{"serve.miss_block_us", "us", "lower", 0},
	{"serve.miss_prefix_us", "us", "lower", 0},
	{"serve.miss_as_us", "us", "lower", 0},
	{"serve.miss_summary_us", "us", "lower", 0},
	{"serve.wire_encode_addr_us", "us", "lower", 0},
	{"serve.wire_encode_summary_us", "us", "lower", 0},
	{"serve.http_hit_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.cache_size", "count", "higher", 0},

	{"rpc.addr_roundtrip_us", "us", "lower", 0},
	{"rpc.summary_roundtrip_us", "us", "lower", 0},
	{"rpc.bulk16_us_per_addr", "us", "lower", 0},
	{"rpc.encode_summary_us", "us", "lower", 0},
	{"rpc.decode_summary_us", "us", "lower", 0},
	{"rpc.summary_frame_bytes", "bytes", "lower", 0},

	{"cluster.rpc_point_us", "us", "lower", 0},
	{"cluster.rpc_summary_ms", "ms", "lower", 0},
	{"cluster.rpc_prefix_us", "us", "lower", 0},
	{"cluster.rpc_as_us", "us", "lower", 0},
	{"cluster.http_point_us", "us", "lower", 0},
	{"cluster.http_summary_ms", "ms", "lower", 0},
	{"cluster.http_prefix_us", "us", "lower", 0},
	{"cluster.http_as_us", "us", "lower", 0},
	{"cluster.partition_day_us", "us", "lower", 0},
	{"cluster.busiest_range_share", "ratio", "lower", 0},
	{"cluster.router_cpu_share", "ratio", "lower", 0},

	{"node.rss_peak_mb", "MB", "lower", 0},
	{"node.start_to_ready_s", "s", "lower", 0},
	{"node.checkpoint_files", "count", "lower", 0},
	{"node.reader_late_ms", "ms", "lower", 0},
	{"node.publish_lag_p90_ms", "ms", "lower", 0},
	{"node.point_p95_ms", "ms", "lower", 0},
	{"node.agg_p95_ms", "ms", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
}

// Frozen workload shape. Changing any of these changes what the
// numbers mean, so they are constants, not flags; every results file
// records them.
const (
	// worldSeed is ipscope-gen's -seed for the one world every run is
	// measured on; --seed draws the request sequences over it. A world per
	// seed made the seed the largest term in routed-read's run-to-run
	// spread (agg_p50_ms: 17 % across ten seeds' worlds, 2 % across ten
	// runs on one), because what a prefix, AS or summary request costs
	// depends on the world it is asked of.
	worldSeed = 3
	// readConns is the read workloads' closed loop: one client on one
	// connection, so a request's latency is its own path and never a
	// queue.
	readConns = 1
	// warmConns is what the untimed warm-up passes and the oracle sweep
	// use: on the whole machine two clients keep both CPUs awake, and a
	// pass takes a third of the time one client needs.
	warmConns = 2
	// hotURLs is hot-read's fixed URL universe; it fits serve's
	// 4096-entry default cache.
	hotURLs = 2048
	// seqLen is the closed-loop request sequence length per workload. A
	// run that outruns it wraps; at 131072 a repeat is 32 cache
	// capacities away, so cold-read still misses.
	seqLen = 1 << 17
	// warmOps is the untimed warm-up pass (on hot-read it follows one
	// request per distinct URL).
	warmOps = 4096
	// verifyOps bounds the post-run oracle sweep: the distinct URLs
	// among the first verifyOps requests of the sequence.
	verifyOps = 4096
	// sampleEvery keeps one response body in sampleEvery inside the
	// timed part for the oracle.
	sampleEvery = 64
	// setups is how many times a read fleet is brought up per run, and
	// restarts how many times its first process is killed and resumed;
	// the set-up and resume metrics are medians over them. A routed
	// set-up starts five processes and takes 3 s, so a run affords fewer.
	setups         = 5
	restarts       = 5
	routedSetups   = 4
	routedRestarts = 3

	// The timed part of a read workload is cut into cycles: refSlice
	// against the reference server, then fleetSlice against the fleet
	// (see reference.go). A metric is the median over the cycles of
	// fleet/reference, times the reference's nominal value below.
	refSlice   = 50 * time.Millisecond
	fleetSlice = 150 * time.Millisecond
	// The reference server's nominal figures: what it measures on the
	// box the benchmark was written on when that box is in its usual
	// state. They only set the scale of the reported numbers.
	refP50ms = 0.040
	refP95ms = 0.075
	refRPS   = 22000.0
	refCPUus = 20.0
	// computeReference's nominal time.
	refComputeMs = 80.0

	// live-ingest: days [0,warmDays) are flooded as warm-up, days
	// [warmDays,pacedEnd) are paced open-loop, the rest are flooded.
	warmDays = 16
	pacedEnd = 64
	// pacedDaysPerSec is well below the flood rate of the commit that
	// introduced the benchmark (17 to 24 days/s as the host's speed
	// moves), so that the paced phase measures service time, not a queue,
	// also when the host is at its slowest.
	pacedDaysPerSec = 8.0
	// readerRPS is the open-loop reader's request rate.
	readerRPS = 500.0
	// retainEpochs is the live node's -retain-epochs; pinned reads keep
	// pinMargin epochs away from the eviction edge.
	retainEpochs = 8
	pinMargin    = 2
	// ingestPassSeconds is roughly what one live-ingest pass measures
	// (set-up 0.8 s, paced phase 6 s, flood 2 to 3 s, resume 0.5 s);
	// --seconds / ingestPassSeconds sets the number of passes.
	ingestPassSeconds = 9.0

	requestTimeoutSeconds = 5
)
