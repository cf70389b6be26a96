package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

var (
	dataOnce sync.Once
	data     *obs.Data
	world    *synthnet.World
	events   []obs.Event
)

// clusterTestData simulates one shared dataset for the package (the
// simulation dominates test cost; every test reads it immutably). The
// emission-order event stream is recorded alongside so history tests
// can replay partial ingests.
func clusterTestData(t testing.TB) (*obs.Data, *synthnet.World) {
	t.Helper()
	dataOnce.Do(func() {
		world = synthnet.Generate(synthnet.TinyConfig())
		rec := obs.SinkFunc(func(e obs.Event) error {
			events = append(events, e)
			return nil
		})
		res, err := sim.RunTo(world, sim.TinyConfig(), rec)
		if err != nil {
			panic(err)
		}
		data = &res.Data
	})
	return data, world
}

func TestPlanPartition(t *testing.T) {
	_, w := clusterTestData(t)
	for _, n := range []int{1, 2, 3, 4, 7} {
		plan, err := PlanShards(w, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(plan.bounds) - 1; got != n {
			t.Fatalf("plan has %d ranges, want %d", got, n)
		}
		// Ranges must tile [0, 1<<24) in order.
		next := uint32(0)
		for i := 0; i < n; i++ {
			lo, hi := plan.Range(i)
			if lo != next || hi < lo {
				t.Fatalf("shard %d/%d range [%d, %d) does not continue from %d", i, n, lo, hi, next)
			}
			next = hi
		}
		if next != 1<<24 {
			t.Fatalf("%d-shard partition covers up to %d, want %d", n, next, uint32(1<<24))
		}
		// Owner agrees with the ranges, and every world block lands on
		// exactly the shard whose range spans it.
		for _, b := range w.Blocks {
			i := plan.Owner(b.Block)
			lo, hi := plan.Range(i)
			if uint32(b.Block) < lo || uint32(b.Block) >= hi {
				t.Fatalf("Owner(%v) = %d, outside [%d, %d)", b.Block, i, lo, hi)
			}
			if !plan.Keep(i)(b.Block) {
				t.Fatalf("Keep(%d) rejects owned block %v", i, b.Block)
			}
		}
		// Boundary blocks of the whole space are owned.
		if got := plan.Owner(0); got != 0 {
			t.Fatalf("Owner(0) = %d, want 0", got)
		}
		if got := plan.Owner(ipv4.Block(1<<24 - 1)); got != n-1 {
			t.Fatalf("Owner(last) = %d, want %d", got, n-1)
		}
		// Determinism: a replan is identical.
		again, _ := PlanShards(w, n)
		for i := 0; i < n; i++ {
			alo, ahi := again.Range(i)
			lo, hi := plan.Range(i)
			if alo != lo || ahi != hi {
				t.Fatalf("replan changed shard %d range", i)
			}
		}
	}
	if _, err := PlanShards(w, 0); err == nil {
		t.Fatal("PlanShards(w, 0) should fail")
	}
}

func TestPartitionSinkBeforeMeta(t *testing.T) {
	sink := PartitionSink(&obs.Data{}, 0, 2, nil)
	if err := sink.Observe(obs.DayEvent{Index: 0, Active: ipv4.NewSet()}); err == nil {
		t.Fatal("day event before meta should fail")
	}
}

// epochField strips the epoch splice so routed and single-node bodies
// can be compared modulo snapshot metadata.
var epochField = regexp.MustCompile(`"epoch":\d+,?`)

func normalize(body []byte) string {
	return epochField.ReplaceAllString(string(body), "")
}

func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, normalize(body)
}

// probePaths derives a request set from the single-node index that
// exercises every endpoint: all active blocks, address timelines,
// every AS (including zero-activity and unknown ones), prefixes of
// many widths (guaranteed to span shard boundaries), and malformed
// inputs whose error bodies must also match.
func probePaths(x *query.Index) []string {
	blocks := x.Blocks()
	paths := []string{
		"/v1/summary",
		"/v1/as/AS999999",
		"/v1/as/banana",
		"/v1/addr/not-an-ip",
		"/v1/block/1.2.3.0/23",
		"/v1/prefix/0.0.0.0/4",
		"/v1/prefix/banana",
		"/v1/prefix/0.0.0.0/8",
	}
	for _, blk := range blocks {
		paths = append(paths, "/v1/block/"+blk.String())
	}
	for i := 0; i < len(blocks); i += 5 {
		blk := blocks[i]
		paths = append(paths,
			"/v1/addr/"+blk.Addr(0).String(),
			"/v1/addr/"+blk.Addr(137).String())
	}
	// An inactive block: the smallest block number not indexed.
	inactive := ipv4.Block(0)
	for _, blk := range blocks {
		if blk != inactive {
			break
		}
		inactive++
	}
	paths = append(paths,
		"/v1/block/"+inactive.String(),
		"/v1/addr/"+inactive.Addr(9).String())
	for _, asn := range x.ASNs() {
		paths = append(paths, fmt.Sprintf("/v1/as/AS%d", asn))
	}
	for i := 0; i < len(blocks); i += 7 {
		first := blocks[i].First()
		for _, bits := range []int{9, 12, 16, 20, 24} {
			paths = append(paths, "/v1/prefix/"+ipv4.MustNewPrefix(first, bits).String())
		}
	}
	return paths
}

// testShard is one shard under test: its HTTP server plus, when the
// shard was built withRPC, its binary RPC listener.
type testShard struct {
	http *httptest.Server
	rpc  *rpc.Server
}

// Close kills the shard — both listeners — as a router would observe a
// dead node.
func (s *testShard) Close() {
	s.http.Close()
	if s.rpc != nil {
		s.rpc.Shutdown(context.Background())
	}
}

// buildShards compiles each shard's slice of the dataset — via the
// batch build over a partition-filtered source, or via the incremental
// applier fed the partition-filtered live stream — and serves each on
// its own HTTP server. withRPC(i) additionally binds shard i's binary
// RPC listener and advertises it in /v1/cluster/info.
func buildShards(t *testing.T, d *obs.Data, plan Plan, n int, incremental bool, withRPC func(i int) bool) ([]*testShard, []string) {
	t.Helper()
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		// Keep restricts world-proportional build work to the slice,
		// exactly as a production shard runs — the equivalence must
		// hold with it in place.
		opts := query.Options{Keep: plan.Keep(i)}
		var idx *query.Index
		var err error
		if incremental {
			a := query.NewApplier(opts)
			if err := d.WriteTo(PartitionSink(a, i, n, nil)); err != nil {
				t.Fatalf("shard %d/%d stream: %v", i, n, err)
			}
			idx, err = a.Snapshot()
		} else {
			idx, err = query.Build(PartitionSource(d, i, n), opts)
		}
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		lo, hi := plan.Range(i)
		srv := serve.New(idx, serve.Config{
			Shard: &wire.ShardInfo{Index: i, Count: n, Lo: lo, Hi: hi},
		})
		sh := &testShard{}
		if withRPC != nil && withRPC(i) {
			sh.rpc = rpc.NewServer(srv, rpc.Options{})
			addr, err := sh.rpc.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("shard %d/%d rpc listen: %v", i, n, err)
			}
			srv.SetRPCAddr(addr.String())
		}
		sh.http = httptest.NewServer(srv.Handler())
		shards[i] = sh
		urls[i] = sh.http.URL
	}
	return shards, urls
}

// allRPC is the withRPC predicate giving every shard an RPC listener.
func allRPC(int) bool { return true }

// TestClusterEquivalence is the tentpole invariant: for 1, 2 and 4
// shards — built both by the batch path and the incremental applier —
// every routed /v1/* response (status and body) is byte-identical,
// modulo the epoch metadata, to the single-node answer over the same
// dataset.
func TestClusterEquivalence(t *testing.T) {
	d, w := clusterTestData(t)
	full, err := query.Build(d, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(serve.New(full, serve.Config{}).Handler())
	defer single.Close()

	paths := probePaths(full)
	type answer struct {
		status int
		body   string
	}
	want := make(map[string]answer, len(paths))
	for _, p := range paths {
		status, body := get(t, single.URL, p)
		want[p] = answer{status, body}
	}

	for _, n := range []int{1, 2, 4} {
		plan, err := PlanShards(w, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name        string
			incremental bool
		}{{"build", false}, {"applier", true}} {
			for _, transport := range []string{TransportHTTP, TransportRPC} {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", n, mode.name, transport), func(t *testing.T) {
					shards, urls := buildShards(t, d, plan, n, mode.incremental, allRPC)
					defer func() {
						for _, s := range shards {
							s.Close()
						}
					}()
					router, err := NewRouter(urls, RouterOptions{Transport: transport})
					if err != nil {
						t.Fatal(err)
					}
					defer router.Close()
					rts := httptest.NewServer(router.Handler())
					defer rts.Close()

					mismatches := 0
					for _, p := range paths {
						status, body := get(t, rts.URL, p)
						if status != want[p].status || body != want[p].body {
							mismatches++
							if mismatches <= 3 {
								t.Errorf("%s:\n routed: %d %s\n single: %d %s",
									p, status, body, want[p].status, want[p].body)
							}
						}
					}
					if mismatches > 0 {
						t.Fatalf("%d of %d probes differ from single-node", mismatches, len(paths))
					}
				})
			}
		}
	}
}

// TestRouterTransportFallback pins the mixed-fleet contract: under
// -transport=rpc a shard that advertises no RPC endpoint is reached
// over HTTP instead, and routed answers stay byte-identical to
// single-node. The per-shard transport is visible in /v1/healthz.
func TestRouterTransportFallback(t *testing.T) {
	d, w := clusterTestData(t)
	full, err := query.Build(d, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(serve.New(full, serve.Config{}).Handler())
	defer single.Close()

	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only shard 0 speaks RPC; shard 1 is an HTTP-only node.
	shards, urls := buildShards(t, d, plan, 2, false, func(i int) bool { return i == 0 })
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()
	router, err := NewRouter(urls, RouterOptions{Transport: TransportRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	for _, p := range probePaths(full) {
		wantStatus, wantBody := get(t, single.URL, p)
		status, body := get(t, rts.URL, p)
		if status != wantStatus || body != wantBody {
			t.Fatalf("%s:\n routed: %d %s\n single: %d %s", p, status, body, wantStatus, wantBody)
		}
	}

	_, health := get(t, rts.URL, "/v1/healthz")
	for _, want := range []string{`"transport":"rpc"`, `"transport":"http"`} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(health) {
			t.Fatalf("healthz %q does not report %s", health, want)
		}
	}
}

// TestRouterDegradedMode pins the failure contract, identically for
// both transports: with one shard down, lookups owned by the dead
// shard answer 503, lookups owned by live shards keep answering 200,
// fan-out aggregates answer 503, and /v1/healthz reports degraded with
// status 503. The default router caches; TestRouterDegradedModeUncached
// holds the same contract with the cache off.
func TestRouterDegradedMode(t *testing.T) { testRouterDegradedMode(t, 0) }

func TestRouterDegradedModeUncached(t *testing.T) { testRouterDegradedMode(t, -1) }

func testRouterDegradedMode(t *testing.T, probe time.Duration) {
	d, w := clusterTestData(t)
	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}

	// One active block owned by each shard.
	full, err := query.Build(d, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blk0, blk1 ipv4.Block
	found0, found1 := false, false
	for _, blk := range full.Blocks() {
		if plan.Owner(blk) == 0 && !found0 {
			blk0, found0 = blk, true
		}
		if plan.Owner(blk) == 1 && !found1 {
			blk1, found1 = blk, true
		}
	}
	if !found0 || !found1 {
		t.Fatal("test world leaves a shard without active blocks")
	}

	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			shards, urls := buildShards(t, d, plan, 2, false, allRPC)
			defer shards[0].Close()

			router, err := NewRouter(urls, RouterOptions{Transport: transport, ProbeInterval: probe})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			rts := httptest.NewServer(router.Handler())
			defer rts.Close()

			shards[1].Close() // kill shard 1: both listeners

			if status, _ := get(t, rts.URL, "/v1/block/"+blk1.String()); status != http.StatusServiceUnavailable {
				t.Fatalf("dead shard's block answered %d, want 503", status)
			}
			if status, _ := get(t, rts.URL, "/v1/block/"+blk0.String()); status != http.StatusOK {
				t.Fatalf("live shard's block answered %d, want 200", status)
			}
			if status, _ := get(t, rts.URL, "/v1/summary"); status != http.StatusServiceUnavailable {
				t.Fatalf("summary with a dead shard answered %d, want 503", status)
			}
			status, body := get(t, rts.URL, "/v1/healthz")
			if status != http.StatusServiceUnavailable {
				t.Fatalf("healthz answered %d, want 503", status)
			}
			if want := `"status":"degraded"`; !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(body) {
				t.Fatalf("healthz body %q does not report degraded", body)
			}
		})
	}
}

// --- replication -----------------------------------------------------

// TestPlacement pins the round-robin offset placement: process p of a
// ranges×R fleet serves range p%ranges as replica p/ranges, so the
// first `ranges` processes are the primary copy of every range and an
// R=1 fleet is exactly the pre-replication layout.
func TestPlacement(t *testing.T) {
	cases := []struct{ proc, ranges, g, replica int }{
		{0, 2, 0, 0}, {1, 2, 1, 0}, {2, 2, 0, 1}, {3, 2, 1, 1},
		{4, 2, 0, 2}, {0, 1, 0, 0}, {1, 1, 0, 1}, {5, 3, 2, 1},
	}
	for _, c := range cases {
		g, r := Placement(c.proc, c.ranges)
		if g != c.g || r != c.replica {
			t.Errorf("Placement(%d, %d) = (%d, %d), want (%d, %d)", c.proc, c.ranges, g, r, c.g, c.replica)
		}
	}
}

// revivableShard is one replica process under chaos testing: unlike
// httptest.Server it remembers its concrete listen addresses, so Kill
// followed by Revive brings the same process identity back at the
// same URLs — exactly what a supervisor restarting a replica does.
// The serve.Server (and its published index) survives the kill; only
// the listeners die.
type revivableShard struct {
	t       *testing.T
	srv     *serve.Server
	addr    string // concrete host:port, fixed after the first Start
	rpcAddr string

	mu      sync.Mutex
	httpSrv *http.Server
	rpcSrv  *rpc.Server
}

func newRevivableShard(t *testing.T, idx *query.Index, info wire.ShardInfo) *revivableShard {
	t.Helper()
	rs := &revivableShard{t: t, srv: serve.New(idx, serve.Config{Shard: &info})}
	// Bind RPC first so the advertised rpcAddr is in /v1/cluster/info
	// before any router discovers the shard.
	rpcSrv := rpc.NewServer(rs.srv, rpc.Options{})
	raddr, err := rpcSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("rpc listen: %v", err)
	}
	rs.rpcAddr = raddr.String()
	rs.rpcSrv = rpcSrv
	rs.srv.SetRPCAddr(rs.rpcAddr)

	ln := rs.listen("127.0.0.1:0")
	rs.addr = ln.Addr().String()
	rs.serveHTTP(ln)
	return rs
}

func (rs *revivableShard) URL() string { return "http://" + rs.addr }

// listen binds addr, retrying briefly: a Revive can race the kernel
// releasing the previous listener's port.
func (rs *revivableShard) listen(addr string) net.Listener {
	rs.t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	rs.t.Fatalf("listen %s: %v", addr, lastErr)
	return nil
}

func (rs *revivableShard) serveHTTP(ln net.Listener) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.httpSrv = &http.Server{Handler: rs.srv.Handler()}
	go rs.httpSrv.Serve(ln) //nolint:errcheck // closed on Kill
}

// Kill hard-closes both listeners and every established connection,
// as kill -9 on the process would.
func (rs *revivableShard) Kill() {
	rs.mu.Lock()
	httpSrv, rpcSrv := rs.httpSrv, rs.rpcSrv
	rs.httpSrv, rs.rpcSrv = nil, nil
	rs.mu.Unlock()
	if httpSrv != nil {
		httpSrv.Close()
	}
	if rpcSrv != nil {
		rpcSrv.Shutdown(context.Background())
	}
}

// Revive restarts both listeners on the original addresses.
func (rs *revivableShard) Revive() {
	rs.t.Helper()
	rpcSrv := rpc.NewServer(rs.srv, rpc.Options{})
	if _, err := rpcSrv.Listen(rs.rpcAddr); err != nil {
		rs.t.Fatalf("rpc revive %s: %v", rs.rpcAddr, err)
	}
	rs.mu.Lock()
	rs.rpcSrv = rpcSrv
	rs.mu.Unlock()
	rs.serveHTTP(rs.listen(rs.addr))
}

// buildReplicatedFleet builds each range's slice once (replicas are
// bit-identical by determinism, so they share the immutable index)
// and serves it from `replicas` processes per range. URLs come back
// in Placement order: all replica-0 processes, then all replica-1s.
func buildReplicatedFleet(t *testing.T, d *obs.Data, plan Plan, ranges, replicas int) ([][]*revivableShard, []string) {
	t.Helper()
	fleet := make([][]*revivableShard, ranges)
	for g := 0; g < ranges; g++ {
		idx, err := query.Build(PartitionSource(d, g, ranges), query.Options{Keep: plan.Keep(g)})
		if err != nil {
			t.Fatalf("range %d/%d: %v", g, ranges, err)
		}
		lo, hi := plan.Range(g)
		fleet[g] = make([]*revivableShard, replicas)
		for r := 0; r < replicas; r++ {
			fleet[g][r] = newRevivableShard(t, idx, wire.ShardInfo{
				Index: g, Count: ranges, Lo: lo, Hi: hi, Replica: r,
			})
		}
	}
	var urls []string
	for r := 0; r < replicas; r++ {
		for g := 0; g < ranges; g++ {
			urls = append(urls, fleet[g][r].URL())
		}
	}
	return fleet, urls
}

// TestRouterReplicaValidation pins the fleet-shape errors: URL counts
// that do not divide by R, and fleets whose discovered ranges do not
// match the declared replication factor.
func TestRouterReplicaValidation(t *testing.T) {
	d, w := clusterTestData(t)
	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, urls := buildShards(t, d, plan, 2, false, nil)
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()

	// 2 URLs cannot form an R=2 fleet of 2 ranges... but they CAN form
	// a 1-range R=2 fleet — except these two processes serve different
	// ranges, which discovery must reject (their info reports a 2-way
	// partition while the router expects 1 range).
	if _, err := NewRouter(urls, RouterOptions{Replicas: 2, InfoTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("R=2 over two distinct-range shards should fail discovery")
	}

	// 3 URLs do not divide into 2 replicas per range.
	if _, err := NewRouter(append([]string{urls[0]}, urls...), RouterOptions{Replicas: 2, InfoTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("3 URLs with -replicas 2 should fail")
	}

	// Duplicating every URL forms a legitimate R=2 fleet: the same
	// process standing in for both replicas of its range.
	rt, err := NewRouter(append(append([]string{}, urls...), urls...), RouterOptions{Replicas: 2})
	if err != nil {
		t.Fatalf("duplicated R=2 fleet: %v", err)
	}
	if rt.NumShards() != 2 || rt.NumReplicas() != 2 {
		t.Fatalf("fleet shape = %d ranges x %d replicas, want 2x2", rt.NumShards(), rt.NumReplicas())
	}
	rt.Close()
}

// routerHealth fetches and decodes the router's /v1/healthz.
func routerHealth(t *testing.T, base string) (int, wire.RouterHealth) {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h wire.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return resp.StatusCode, h
}

// TestReplicaFailover is the replication tentpole invariant, run over
// both transports: with an R=2 fleet and one replica of every range
// killed mid-traffic, every /v1/* probe keeps answering byte-identical
// to single-node (the fleet stays "ok": surviving replicas are exact
// by determinism); killed-then-restarted replicas are re-admitted (an
// operator /v1/healthz actively probes replicas in backoff) and then
// carry the fleet alone when their siblings die.
//
// Background probing off: every health transition is driven by request
// traffic or /v1/healthz, so the state machine's moves are
// deterministic — and every request runs the failover path, because a
// router without a prober does not cache. TestReplicaFailoverCached
// replays the scenario on a caching router (prober armed, never due):
// the answers must not change.
func TestReplicaFailover(t *testing.T) { testReplicaFailover(t, -1) }

func TestReplicaFailoverCached(t *testing.T) { testReplicaFailover(t, time.Hour) }

func testReplicaFailover(t *testing.T, probe time.Duration) {
	d, w := clusterTestData(t)
	full, err := query.Build(d, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(serve.New(full, serve.Config{}).Handler())
	defer single.Close()

	paths := probePaths(full)
	type answer struct {
		status int
		body   string
	}
	want := make(map[string]answer, len(paths))
	for _, p := range paths {
		status, body := get(t, single.URL, p)
		want[p] = answer{status, body}
	}
	compareAll := func(t *testing.T, base, phase string) {
		t.Helper()
		mismatches := 0
		for _, p := range paths {
			status, body := get(t, base, p)
			if status != want[p].status || body != want[p].body {
				mismatches++
				if mismatches <= 3 {
					t.Errorf("%s %s:\n routed: %d %s\n single: %d %s",
						phase, p, status, body, want[p].status, want[p].body)
				}
			}
		}
		if mismatches > 0 {
			t.Fatalf("%s: %d of %d probes differ from single-node", phase, mismatches, len(paths))
		}
	}

	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			fleet, urls := buildReplicatedFleet(t, d, plan, 2, 2)
			defer func() {
				for _, rg := range fleet {
					for _, rs := range rg {
						rs.Kill()
					}
				}
			}()
			router, err := NewRouter(urls, RouterOptions{Transport: transport, Replicas: 2, ProbeInterval: probe})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			rts := httptest.NewServer(router.Handler())
			defer rts.Close()

			// Phase 1: full fleet answers byte-identical to single-node.
			compareAll(t, rts.URL, "full fleet")

			// Phase 2: kill one replica of each range — a different
			// replica id per range, so both positions fail over. Every
			// probe must keep answering identically: the router retries
			// point lookups on the surviving replica and fails
			// aggregates over mid-gather.
			fleet[0][0].Kill()
			fleet[1][1].Kill()
			compareAll(t, rts.URL, "one replica of each range dead")

			// The fleet is NOT degraded: every range still has a healthy
			// replica. rangeStates says partial, shardStates pins which
			// replicas are unreachable.
			status, h := routerHealth(t, rts.URL)
			if status != http.StatusOK || h.Status != "ok" {
				t.Fatalf("healthz with survivors = %d %q, want 200 ok", status, h.Status)
			}
			if len(h.Ranges) != 2 || len(h.Shards) != 4 {
				t.Fatalf("healthz reports %d ranges / %d replicas, want 2 / 4", len(h.Ranges), len(h.Shards))
			}
			for _, rh := range h.Ranges {
				if rh.Status != "partial" || rh.Healthy != 1 || rh.Replicas != 2 {
					t.Fatalf("range %d state = %+v, want partial 1/2", rh.Shard, rh)
				}
			}
			unreachable := 0
			for _, sh := range h.Shards {
				if sh.Status == "unreachable" {
					unreachable++
				}
			}
			if unreachable != 2 {
				t.Fatalf("healthz reports %d unreachable replicas, want 2", unreachable)
			}

			// Phase 3: restart the killed replicas at their original
			// addresses and re-admit them via the operator probe —
			// /v1/healthz probes even replicas in backoff.
			fleet[0][0].Revive()
			fleet[1][1].Revive()
			deadline := time.Now().Add(10 * time.Second)
			for {
				status, h = routerHealth(t, rts.URL)
				healthy := true
				for _, rh := range h.Ranges {
					if rh.Status != "ok" {
						healthy = false
					}
				}
				if status == http.StatusOK && h.Status == "ok" && healthy {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("revived replicas not re-admitted: healthz = %d %+v", status, h)
				}
				time.Sleep(20 * time.Millisecond)
			}

			// Phase 4: the re-admitted replicas carry the fleet alone.
			fleet[0][1].Kill()
			fleet[1][0].Kill()
			compareAll(t, rts.URL, "re-admitted replicas alone")
		})
	}
}
