package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ipscope/internal/bgp"
	"ipscope/internal/cluster"
	"ipscope/internal/history"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// How many calls of each kind the traced run times. Medians settle
// well before these counts; they are sized so the whole traced run
// stays within a few seconds of CPU.
const (
	nLookups    = 2000 // index lookups, handler hits, rpc and routed point lookups
	nAggregate  = 400  // prefix / AS renders and routed aggregates
	nSummary    = 60   // summary renders and fan-outs (milliseconds each)
	nBuilds     = 3
	getsPerSpan = 1000 // history.get is nanoseconds: timed in blocks
	bulkSize    = 16
)

// runTraced is the --trace 1 run of one workload. A short leg against
// the workload's real fleet reads the per-layer metrics that only live
// processes have (cache counters, CPU shares, RSS, lateness); everything
// else is an in-process, single-goroutine replay of the same dataset
// bytes and request sequences with a span around every call into a
// layer. End-to-end numbers never come from this mode.
func runTraced(e *env, ds *dataset, name string) (*result, map[string]float64, error) {
	var res *result
	var err error
	if name == "live-ingest" {
		res, err = runIngest(e, ds, plan{passes: 1})
	} else {
		res, err = runRead(e, ds, name, shortPlan())
	}
	if err != nil {
		return nil, nil, err
	}
	t := &tracer{e: e, ds: ds, tr: newRecorder(), m: map[string]float64{}, res: res,
		seqHot:  genSequence("hot-read", e.seed, ds.keys, seqLen),
		seqCold: genSequence("cold-read", e.seed, ds.keys, seqLen),
		seqRtd:  genSequence("routed-read", e.seed, ds.keys, seqLen),
	}
	for k, v := range res.Aux {
		t.m[k] = v
	}
	for _, step := range []func() error{t.ingest, t.index, t.serving, t.rpcLayer, t.clusterLayer} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	t.tr.finish()
	if err := t.tr.write(filepath.Join(e.out, "trace.json")); err != nil {
		return nil, nil, err
	}
	t.reduce()
	res.Info["spans"] = float64(len(t.tr.spans))
	res.Attempted += len(t.tr.spans)
	if res.Failed > 0 && len(res.Problems) == 0 {
		res.problem("%d traced calls failed", res.Failed)
	}
	t.budget(name)
	return res, t.m, nil
}

// tracer carries the traced run's state between its steps.
type tracer struct {
	e   *env
	ds  *dataset
	tr  *recorder
	m   map[string]float64 // per-layer metrics
	res *result

	ring    *history.Ring  // the replay's last retainEpochs snapshots
	shards  []*query.Index // the two range indexes
	hot     *serve.Server  // batch index, default cache
	seqHot  *sequence
	seqCold *sequence
	seqRtd  *sequence
}

// check records a failed traced call; the run goes on so the other
// layers still report.
func (t *tracer) check(what string, err error) {
	if err != nil {
		t.res.Failed++
		if len(t.res.Problems) < 5 {
			t.res.problem("%s: %v", what, err)
		}
	}
}

// timed runs fn inside a root span.
func (t *tracer) timed(name string, fn func()) {
	sp := t.tr.begin(name, noSpan)
	fn()
	t.tr.end(sp)
}

// nullWriter is the discard http.ResponseWriter the handler spans
// write to: it keeps one header map for its whole life so the handler
// under test is all that allocates.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// requests builds the first n requests of the given classes once each,
// outside any span.
func requests(seq *sequence, n int, classes ...class) []*http.Request {
	want := map[class]bool{}
	for _, c := range classes {
		want[c] = true
	}
	var out []*http.Request
	for _, r := range seq.reqs {
		if len(out) == n {
			break
		}
		if want[r.class] {
			out = append(out, httptest.NewRequest(http.MethodGet, r.path, nil))
		}
	}
	return out
}

// serveAll times h on every request, one root span each.
func (t *tracer) serveAll(span string, h http.Handler, reqs []*http.Request) {
	w := &nullWriter{h: http.Header{}}
	for _, r := range reqs {
		sp := t.tr.begin(span, noSpan)
		h.ServeHTTP(w, r)
		t.tr.end(sp)
	}
}

// ingest replays the dataset through decode -> apply -> snapshot ->
// publish -> checkpoint exactly as cmd/ipscope-serve's live mode wires
// them (publish and checkpoint every day), and then resumes from the
// last checkpoint.
func (t *tracer) ingest() error {
	frames, err := t.ds.frames(t.tr)
	if err != nil {
		return err
	}
	t.m["obs.frames"] = float64(len(frames))
	t.m["obs.bytes"] = float64(len(t.ds.raw))

	dir := filepath.Join(t.e.out, "ckpt", "trace")
	defer os.RemoveAll(dir)
	before := len(t.tr.spans)
	traced, ring, last, err := replay(t.ds, t.tr, dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	spans := len(t.tr.spans) - before
	t.ring = ring
	if st, err := os.Stat(last); err == nil {
		t.m["query.checkpoint_bytes"] = float64(st.Size())
	}

	// resume: load the newest checkpoint, rebuild the applier, skip the
	// stream's already-applied days at the frame level. The skipped
	// stream is the header, the meta frame and the day frames alone, so
	// the span is the skip path and nothing else.
	var days bytes.Buffer
	for i, f := range frames {
		if i == 0 || f.day >= 0 || i == len(frames)-1 {
			days.Write(f.bytes)
		}
	}
	root := t.tr.begin("resume", noSpan)
	sp := t.tr.begin("query.snapshot_load", root)
	loaded, err := query.LoadSnapshotFile(last, query.LoadOptions{})
	t.tr.end(sp)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	defer loaded.Close()
	sp = t.tr.begin("query.resume_applier", root)
	_, skip, err := loaded.ResumeApplier(query.Options{})
	t.tr.end(sp)
	if err != nil {
		return fmt.Errorf("resume applier: %w", err)
	}
	delivered := 0
	sp = t.tr.begin("obs.skip", root)
	err = obs.StreamDecodeFrom(&days, skip, obs.SinkFunc(func(ev obs.Event) error {
		if _, ok := ev.(obs.DayEvent); ok {
			delivered++
		}
		return nil
	}))
	t.tr.end(sp)
	t.tr.end(root)
	t.check("skip decode", err)
	if delivered != 0 {
		t.check("skip decode", fmt.Errorf("%d day frames were decoded instead of skipped", delivered))
	}

	// What tracing cost the replay: the spans it recorded times the
	// measured cost of recording one, as a share of the replay. (An
	// untraced repeat of the replay cannot resolve it: two replays of the
	// same commit differ by +-8 %, and the second of a pair is
	// systematically slower, for an effect of a few thousandths of a
	// per cent.)
	t.m["trace.overhead_pct"] = 100 * float64(spans) * spanCost().Seconds() / traced.Seconds()
	return nil
}

// spanCost measures what recording one span costs: two clock reads and
// an append.
func spanCost() time.Duration {
	const n = 1 << 16
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", noSpan))
	}
	return time.Since(start) / n
}

// replay runs the whole stream through the live write path and returns
// its wall time, the ring of retained snapshots and the newest
// checkpoint file.
func replay(ds *dataset, tr *recorder, dir string) (time.Duration, *history.Ring, string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, nil, "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, "", err
	}
	srv := serve.New(nil, serve.Config{RetainEpochs: retainEpochs})
	// serve.Publish adds to its own ring internally; this second ring
	// makes history.Add visible as a span of its own and feeds the
	// history.* lookups later.
	ring := history.New(retainEpochs)
	ap := query.NewApplier(query.Options{})
	var files []string
	publish := func(parent spanID) error {
		sp := tr.begin("query.snapshot", parent)
		idx, err := ap.Snapshot()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("serve.publish", parent)
		srv.Publish(idx)
		tr.end(sp)
		sp = tr.begin("history.add", parent)
		ring.Add(idx)
		tr.end(sp)
		sp = tr.begin("query.checkpoint_encode", parent)
		data, err := ap.EncodeCheckpoint(nil)
		tr.end(sp)
		if err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf(snapPattern, idx.Epoch()))
		sp = tr.begin("query.snapshot_write", parent)
		err = query.WriteSnapshotFile(name, data)
		tr.end(sp)
		if err != nil {
			return err
		}
		files = append(files, name)
		for len(files) > 3 { // cmd/ipscope-serve's -snapshot-keep default
			os.Remove(files[0]) //nolint:errcheck // pruning, as the server does
			files = files[1:]
		}
		return nil
	}

	start := time.Now()
	// The decoder owns the time between one sink call returning and
	// the next one starting.
	decodeFrom := time.Now()
	sink := obs.SinkFunc(func(ev obs.Event) error {
		arrived := time.Now()
		_, isDay := ev.(obs.DayEvent)
		kind := "aux"
		if isDay {
			kind = "day"
		}
		root := tr.open("ingest."+kind, noSpan, decodeFrom)
		tr.add("obs.decode_"+kind, root, decodeFrom, arrived)
		sp := tr.begin("query.apply_"+kind, root)
		err := ap.Observe(ev)
		tr.end(sp)
		if err == nil && isDay {
			err = publish(root)
		}
		tr.end(root)
		decodeFrom = time.Now()
		return err
	})
	if err := obs.StreamDecode(bytes.NewReader(ds.raw), sink); err != nil {
		return 0, nil, "", err
	}
	root := tr.begin("ingest.final", noSpan)
	err := publish(root)
	tr.end(root)
	if err != nil {
		return 0, nil, "", err
	}
	return time.Since(start), ring, files[len(files)-1], nil
}

// index times query.Build, the Index lookups on uniform keys, deltas
// over the replay's retained epochs, the history ring, and the merge
// and partial-codec functions the router's gather uses.
func (t *tracer) index() error {
	for i := 0; i < nBuilds; i++ {
		var err error
		t.timed("query.build", func() { _, err = query.Build(t.ds.data, query.Options{}) })
		if err != nil {
			return err
		}
	}
	idx := t.ds.idx

	// Uniform keys, drawn with a fixed stride over the world's blocks,
	// covering prefixes and ASNs (never-active blocks included).
	k := t.ds.keys
	stride := func(i, n int) int { return i * 7919 % n }
	addrs := make([]ipv4.Addr, nLookups)
	blocks := make([]ipv4.Block, nLookups)
	for i := range addrs {
		blocks[i] = k.blocks[stride(i, len(k.blocks))]
		addrs[i] = blocks[i].Addr(byte(i))
	}
	prefixes := make([]ipv4.Prefix, nAggregate)
	asns := make([]uint32, nAggregate)
	for i := range prefixes {
		prefixes[i] = k.covering[stride(i, len(k.covering))]
		asns[i] = k.asns[stride(i, len(k.asns))]
	}
	for _, a := range addrs {
		t.timed("query.addr", func() { idx.Addr(a) })
	}
	for _, b := range blocks {
		t.timed("query.block", func() { idx.Block(b) })
	}
	for _, p := range prefixes {
		t.timed("query.prefix", func() {
			_, err := idx.Prefix(p, wire.DefaultPrefixBlockList)
			t.check("Index.Prefix", err)
		})
	}
	for _, n := range asns {
		t.timed("query.as", func() { idx.AS(bgp.ASN(n)) })
	}

	// Consecutive retained epochs of the replay.
	oldest, newest, _ := t.ring.Range()
	for e := oldest + 1; e <= newest; e++ {
		from, _ := t.ring.Get(e - 1)
		to, _ := t.ring.Get(e)
		t.timed("query.delta", func() {
			_, err := to.Delta(from, query.DefaultDeltaBlockList)
			t.check("Index.Delta", err)
		})
		t.timed("history.delta", func() {
			_, _, err := t.ring.Delta(e-1, e, query.DefaultDeltaBlockList)
			t.check("Ring.Delta", err)
		})
	}
	for i := 0; i < nSummary; i++ {
		t.timed("history.get_block", func() {
			for j := 0; j < getsPerSpan; j++ {
				t.ring.Get(oldest + uint64(j)%(newest-oldest+1))
			}
		})
		t.timed("history.movement", func() { t.ring.Movement(0) })
	}

	// The two range indexes the routed fleet serves, and the folds the
	// router runs over their partials.
	for g := 0; g < routedRanges; g++ {
		x, err := query.Build(cluster.PartitionSource(t.ds.data, g, routedRanges), query.Options{})
		if err != nil {
			return fmt.Errorf("range %d build: %w", g, err)
		}
		t.shards = append(t.shards, x)
	}
	sums := []query.SummaryPartial{t.shards[0].SummaryPartial(), t.shards[1].SummaryPartial()}
	for i := 0; i < nAggregate; i++ {
		t.timed("query.merge_summary", func() {
			merged, err := query.MergeSummaryPartials(sums)
			t.check("MergeSummaryPartials", err)
			merged.Finalize()
		})
		var buf []byte
		t.timed("query.partial_wire_encode", func() { buf = query.AppendSummaryPartialWire(nil, &sums[0]) })
		t.timed("query.partial_wire_decode", func() {
			_, _, err := query.DecodeSummaryPartialWire(buf)
			t.check("DecodeSummaryPartialWire", err)
		})
	}
	for _, n := range asns {
		parts := []query.ASPartial{t.shards[0].ASPartial(bgp.ASN(n)), t.shards[1].ASPartial(bgp.ASN(n))}
		t.timed("query.merge_as", func() { query.MergeASPartials(parts) })
	}
	for _, p := range prefixes {
		var parts []query.PrefixPartial
		for _, x := range t.shards {
			pp, err := x.PrefixPartial(p, wire.DefaultPrefixBlockList)
			t.check("PrefixPartial", err)
			parts = append(parts, pp)
		}
		t.timed("query.merge_prefix", func() {
			_, err := query.MergePrefixPartials(parts, wire.DefaultPrefixBlockList)
			t.check("MergePrefixPartials", err)
		})
	}
	return nil
}

// serving times the handler on cached keys (hot-read's sequence), on an
// uncached server per class (cold-read's), wire.Encode alone, and a hit
// over one loopback connection.
func (t *tracer) serving() error {
	idx := t.ds.idx
	t.hot = serve.New(idx, serve.Config{})
	h := t.hot.Handler()
	warm := make([]*http.Request, len(t.seqHot.universe))
	for i, r := range t.seqHot.universe {
		warm[i] = httptest.NewRequest(http.MethodGet, r.path, nil)
	}
	w := &nullWriter{h: http.Header{}}
	for _, r := range warm {
		h.ServeHTTP(w, r)
	}
	hits := requests(t.seqHot, nLookups, clAddr, clBlock, clPrefix, clAS, clSummary, clMovement)
	t.serveAll("serve.hit", h, hits)

	// Allocations per cached request, counted the way
	// testing.AllocsPerRun does.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range hits {
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	t.m["serve.hit_allocs"] = float64((after.Mallocs - before.Mallocs) / uint64(len(hits)))

	uncached := serve.New(idx, serve.Config{CacheSize: -1}).Handler()
	t.serveAll("serve.miss_addr", uncached, requests(t.seqCold, nLookups, clAddr))
	t.serveAll("serve.miss_block", uncached, requests(t.seqCold, nLookups, clBlock))
	t.serveAll("serve.miss_prefix", uncached, requests(t.seqCold, nAggregate, clPrefix))
	t.serveAll("serve.miss_as", uncached, requests(t.seqCold, nAggregate, clAS))
	summary := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
	for i := 0; i < nSummary; i++ {
		t.serveAll("serve.miss_summary", uncached, []*http.Request{summary})
	}

	view := idx.Addr(t.ds.keys.blocks[0].Addr(1))
	sum := idx.Summary()
	for i := 0; i < nLookups; i++ {
		t.timed("serve.wire_encode_addr", func() { wire.Encode(http.StatusOK, view, idx.Epoch()) })
	}
	for i := 0; i < nAggregate; i++ {
		t.timed("serve.wire_encode_summary", func() { wire.Encode(http.StatusOK, sum, idx.Epoch()) })
	}

	addr, err := t.hot.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer t.hot.Shutdown(context.Background()) //nolint:errcheck // in-process listener, end of its use
	c := newClient(1)
	defer c.CloseIdleConnections()
	base := "http://" + addr.String()
	for i, r := range t.seqHot.reqs[:nLookups+100] {
		name := "serve.http_hit"
		if i < 100 {
			name = "serve.http_warm" // connection set-up, not reduced
		}
		t.timed(name, func() {
			resp, err := c.Get(base + r.path)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			t.check("http hit", err)
		})
	}
	return nil
}

// rpcLayer times rpc.Client against rpc.Server over one loopback
// connection, and the summary frame's codec alone.
func (t *tracer) rpcLayer() error {
	rs := rpc.NewServer(t.hot, rpc.Options{})
	raddr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer rs.Shutdown(context.Background()) //nolint:errcheck // in-process listener, end of its use
	cl := rpc.NewClient(raddr.String(), rpc.ClientOptions{PoolSize: 1})
	defer cl.Close()
	ctx := context.Background()
	blocks := t.ds.keys.blocks
	addrAt := func(i int) uint32 { return uint32(blocks[i%len(blocks)].Addr(byte(i))) }
	for i := 0; i < nLookups; i++ {
		t.timed("rpc.addr_roundtrip", func() {
			_, _, err := cl.Addr(ctx, addrAt(i), 0)
			t.check("rpc Addr", err)
		})
	}
	for i := 0; i < nAggregate; i++ {
		t.timed("rpc.summary_roundtrip", func() {
			_, _, err := cl.Summary(ctx, 0)
			t.check("rpc Summary", err)
		})
		bulk := make([]uint32, bulkSize)
		for j := range bulk {
			bulk[j] = addrAt(i*bulkSize + j)
		}
		t.timed("rpc.bulk16", func() {
			_, _, err := cl.BulkAddr(ctx, bulk)
			t.check("rpc BulkAddr", err)
		})
	}
	msg := rpc.SummaryResp{Epoch: t.ds.idx.Epoch(), Partial: t.ds.idx.SummaryPartial()}
	payload := rpc.EncodePayload(msg)
	t.m["rpc.summary_frame_bytes"] = float64(len(payload))
	for i := 0; i < nAggregate; i++ {
		t.timed("rpc.encode_summary", func() { rpc.EncodePayload(msg) })
		t.timed("rpc.decode_summary", func() {
			_, err := rpc.DecodePayload(msg.Kind(), payload)
			t.check("rpc DecodePayload", err)
		})
	}
	return nil
}

// clusterLayer times Router.Handler() in-process over 2 ranges x 2
// replicas of in-process shards reached over loopback, once per shard
// transport, and the partition sink a live shard ingests through.
func (t *tracer) clusterLayer() error {
	plan, err := cluster.PlanShards(t.ds.world, routedRanges)
	if err != nil {
		return err
	}
	var urls []string
	for p := 0; p < routedRanges*routedReplicas; p++ {
		g, r := cluster.Placement(p, routedRanges)
		lo, hi := plan.Range(g)
		srv := serve.New(t.shards[g], serve.Config{Shard: &wire.ShardInfo{Index: g, Count: routedRanges, Lo: lo, Hi: hi, Replica: r}})
		rs := rpc.NewServer(srv, rpc.Options{})
		raddr, err := rs.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer rs.Shutdown(context.Background()) //nolint:errcheck // in-process listener, end of its use
		srv.SetRPCAddr(raddr.String())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Shutdown(context.Background()) //nolint:errcheck // in-process listener, end of its use
		urls = append(urls, "http://"+addr.String())
	}
	points := requests(t.seqRtd, nLookups, clAddr, clBlock)
	prefixes := requests(t.seqRtd, nAggregate, clPrefix)
	ases := requests(t.seqRtd, nAggregate, clAS)
	summaries := requests(t.seqRtd, nSummary, clSummary)
	for _, transport := range []string{cluster.TransportRPC, cluster.TransportHTTP} {
		rt, err := cluster.NewRouter(urls, cluster.RouterOptions{Transport: transport, Replicas: routedReplicas, ProbeInterval: -1})
		if err != nil {
			return fmt.Errorf("%s router: %w", transport, err)
		}
		h := rt.Handler()
		t.serveAll("cluster.warm", h, points[:100]) // shard connections, not reduced
		t.serveAll("cluster."+transport+"_point", h, points)
		t.serveAll("cluster."+transport+"_prefix", h, prefixes)
		t.serveAll("cluster."+transport+"_as", h, ases)
		t.serveAll("cluster."+transport+"_summary", h, summaries)
		rt.Close()
	}

	part := cluster.PartitionSink(obs.SinkFunc(func(obs.Event) error { return nil }), 0, routedRanges, nil)
	for _, ev := range t.ds.events {
		if _, ok := ev.(obs.DayEvent); ok {
			t.timed("cluster.partition_day", func() { t.check("PartitionSink", part.Observe(ev)) })
		} else {
			t.check("PartitionSink", part.Observe(ev))
		}
	}
	return nil
}

// reduce turns spans into the per-layer metrics: the median duration
// of each span name, in the metric's unit.
func (t *tracer) reduce() {
	const us, msec = 1e3, 1e6
	for _, r := range []struct {
		metric, span string
		div          float64
	}{
		{"obs.decode_day_ms", "obs.decode_day", msec},
		{"obs.decode_aux_us", "obs.decode_aux", us},
		{"obs.encode_day_ms", "obs.encode_day", msec},
		{"obs.skip_day_us", "obs.skip", us * float64(t.ds.days)},
		{"query.apply_day_ms", "query.apply_day", msec},
		{"query.apply_aux_us", "query.apply_aux", us},
		{"query.snapshot_ms", "query.snapshot", msec},
		{"query.build_ms", "query.build", msec},
		{"query.addr_us", "query.addr", us},
		{"query.block_us", "query.block", us},
		{"query.prefix_us", "query.prefix", us},
		{"query.as_us", "query.as", us},
		{"query.delta_ms", "query.delta", msec},
		{"query.checkpoint_encode_ms", "query.checkpoint_encode", msec},
		{"query.snapshot_write_ms", "query.snapshot_write", msec},
		{"query.snapshot_load_ms", "query.snapshot_load", msec},
		{"query.resume_applier_ms", "query.resume_applier", msec},
		{"query.merge_summary_us", "query.merge_summary", us},
		{"query.merge_as_us", "query.merge_as", us},
		{"query.merge_prefix_us", "query.merge_prefix", us},
		{"query.partial_wire_encode_us", "query.partial_wire_encode", us},
		{"query.partial_wire_decode_us", "query.partial_wire_decode", us},
		{"history.add_us", "history.add", us},
		{"history.get_ns", "history.get_block", getsPerSpan},
		{"history.delta_ms", "history.delta", msec},
		{"history.movement_us", "history.movement", us},
		{"serve.publish_ms", "serve.publish", msec},
		{"serve.hit_us", "serve.hit", us},
		{"serve.miss_addr_us", "serve.miss_addr", us},
		{"serve.miss_block_us", "serve.miss_block", us},
		{"serve.miss_prefix_us", "serve.miss_prefix", us},
		{"serve.miss_as_us", "serve.miss_as", us},
		{"serve.miss_summary_us", "serve.miss_summary", us},
		{"serve.wire_encode_addr_us", "serve.wire_encode_addr", us},
		{"serve.wire_encode_summary_us", "serve.wire_encode_summary", us},
		{"serve.http_hit_us", "serve.http_hit", us},
		{"rpc.addr_roundtrip_us", "rpc.addr_roundtrip", us},
		{"rpc.summary_roundtrip_us", "rpc.summary_roundtrip", us},
		{"rpc.bulk16_us_per_addr", "rpc.bulk16", us * bulkSize},
		{"rpc.encode_summary_us", "rpc.encode_summary", us},
		{"rpc.decode_summary_us", "rpc.decode_summary", us},
		{"cluster.rpc_point_us", "cluster.rpc_point", us},
		{"cluster.rpc_summary_ms", "cluster.rpc_summary", msec},
		{"cluster.rpc_prefix_us", "cluster.rpc_prefix", us},
		{"cluster.rpc_as_us", "cluster.rpc_as", us},
		{"cluster.http_point_us", "cluster.http_point", us},
		{"cluster.http_summary_ms", "cluster.http_summary", msec},
		{"cluster.http_prefix_us", "cluster.http_prefix", us},
		{"cluster.http_as_us", "cluster.http_as", us},
		{"cluster.partition_day_us", "cluster.partition_day", us},
	} {
		t.m[r.metric] = median(t.tr.durations(r.span)) / r.div
	}
	var decodeNS float64
	for _, name := range []string{"obs.decode_day", "obs.decode_aux"} {
		for _, d := range t.tr.durations(name) {
			decodeNS += d
		}
	}
	t.m["obs.decode_mb_per_s"] = float64(len(t.ds.raw)) / 1e6 / (decodeNS / 1e9)
}

// budget prints the interaction the README predicts: the per-layer
// times on the workload's blocking path against the end-to-end median
// from the workload's last untraced run with this seed — its raw value,
// since the traced times are as measured too.
func (t *tracer) budget(name string) {
	m := t.m
	transport := m["serve.http_hit_us"] - m["serve.hit_us"] // net/http + socket share of one hop
	var layers float64
	var parts, against string
	switch name {
	case "hot-read":
		layers, parts, against = m["serve.hit_us"]+transport, "serve.hit + transport", "raw_point_p50_ms"
	case "cold-read":
		layers = (55*m["serve.miss_addr_us"]+25*m["serve.miss_block_us"])/80 + transport
		parts, against = "serve.miss_{addr,block} by blend + transport", "raw_point_p50_ms"
	case "routed-read":
		layers, parts, against = m["cluster.rpc_point_us"]+transport, "cluster.rpc_point + transport", "raw_point_p50_ms"
	default:
		layers = 1000 * (m["obs.decode_day_ms"] + m["query.apply_day_ms"] + m["query.snapshot_ms"] + m["serve.publish_ms"])
		parts, against = "obs.decode_day + query.apply_day + query.snapshot + serve.publish", "raw_publish_lag_p50_ms"
	}
	e2e := loadE2E(t.e, name)
	if e2e == nil {
		fmt.Printf("\n   budget: %s = %.1f us; no untraced %s results for seed %d under out/ to hold it against (run --trace 0 first)\n",
			parts, layers, name, t.e.seed)
		return
	}
	fmt.Printf("\n   budget: %s = %.1f us against %s = %.1f us: %.0f%% explained\n",
		parts, layers, against, 1000*e2e.Info[against], 100*layers/(1000*e2e.Info[against]))
}
