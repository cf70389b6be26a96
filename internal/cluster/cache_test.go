package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ipscope/internal/ipv4"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// These tests drive the router's response cache deterministically: the
// router is built with a prober that is armed (so it caches) but never
// due, and the view of the fleet's epochs moves only when a test sends
// traffic or calls rt.probeOnce().
const proberNeverDue = time.Hour

// fetched is one response with the headers the cache contract names.
type fetched struct {
	status int
	body   string
	hdr    http.Header
}

func fetch(t *testing.T, base, path, ifNoneMatch string) fetched {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return fetched{status: resp.StatusCode, body: string(body), hdr: resp.Header}
}

func (f fetched) xcache() string { return f.hdr.Get("X-Cache") }

// cacheHolds reports whether the router's cache has path under epoch.
func cacheHolds(rt *Router, epoch uint64, path string) bool {
	_, ok := rt.cache.Get([]byte(strconv.FormatUint(epoch, 10) + ":" + path))
	return ok
}

func cacheSize(rt *Router) int {
	_, _, size := rt.cache.Stats()
	return size
}

// epochCuts are the daily cuts the epoch fleet can publish: epoch k+1
// serves the dataset as of day epochCuts[k].
var epochCuts = []int{13, 28}

// epochFleet is an n-range fleet whose shards publish on command, plus
// one single-node oracle per epoch. Range and oracle indexes are batch
// builds stamped with the same epoch numbers, so a routed answer must
// equal its epoch's oracle answer byte for byte, epoch stamp included.
type epochFleet struct {
	srvs   []*serve.Server
	shards []*testShard
	urls   []string
	idx    [][]*query.Index   // idx[k][i]: range i at epoch k+1
	oracle []*httptest.Server // oracle[k]: the whole dataset at epoch k+1
}

func newEpochFleet(t *testing.T, n int) *epochFleet {
	t.Helper()
	d, w := clusterTestData(t)
	plan, err := PlanShards(w, n)
	if err != nil {
		t.Fatal(err)
	}
	f := &epochFleet{}
	for k, cut := range epochCuts {
		epoch := uint64(k + 1)
		dk := d.TruncateLive(cut)
		full, err := query.Build(dk, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f.oracle = append(f.oracle, httptest.NewServer(serve.New(full.AtEpoch(epoch), serve.Config{}).Handler()))
		row := make([]*query.Index, n)
		for i := range row {
			x, err := query.Build(PartitionSource(dk, i, n), query.Options{Keep: plan.Keep(i)})
			if err != nil {
				t.Fatal(err)
			}
			row[i] = x.AtEpoch(epoch)
		}
		f.idx = append(f.idx, row)
	}
	for i := 0; i < n; i++ {
		lo, hi := plan.Range(i)
		srv := serve.New(f.idx[0][i], serve.Config{Shard: &wire.ShardInfo{Index: i, Count: n, Lo: lo, Hi: hi}})
		sh := &testShard{rpc: rpc.NewServer(srv, rpc.Options{})}
		addr, err := sh.rpc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetRPCAddr(addr.String())
		sh.http = httptest.NewServer(srv.Handler())
		f.srvs = append(f.srvs, srv)
		f.shards = append(f.shards, sh)
		f.urls = append(f.urls, sh.http.URL)
	}
	return f
}

// publish moves range i to epoch k+1.
func (f *epochFleet) publish(i, k int) { f.srvs[i].Publish(f.idx[k][i]) }

func (f *epochFleet) Close() {
	for _, s := range f.shards {
		s.Close()
	}
	for _, o := range f.oracle {
		o.Close()
	}
}

// activeBlock returns a block of range i that is active at every epoch.
func (f *epochFleet) activeBlock(t *testing.T, i int) ipv4.Block {
	t.Helper()
	blocks := f.idx[0][i].Blocks()
	if len(blocks) == 0 {
		t.Fatalf("range %d has no active block at epoch 1", i)
	}
	return blocks[0]
}

var bodyEpoch = regexp.MustCompile(`^\{"epoch":(\d+)`)

// whole checks the response is one epoch's answer through and through:
// the ETag names the epoch the body is stamped with, and status and
// bytes equal that epoch's single-node answer. It returns the epoch.
func (f *epochFleet) whole(path string, got fetched) (uint64, error) {
	m := bodyEpoch.FindStringSubmatch(got.body)
	if m == nil {
		return 0, fmt.Errorf("%s: body carries no epoch stamp: %d %s", path, got.status, got.body)
	}
	epoch, _ := strconv.ParseUint(m[1], 10, 64)
	if epoch < 1 || int(epoch) > len(f.oracle) {
		return 0, fmt.Errorf("%s: stamped with epoch %d, which nobody published", path, epoch)
	}
	if etag := got.hdr.Get("ETag"); etag != wire.ETagFor(epoch) {
		return 0, fmt.Errorf("%s: body stamped epoch %d served with ETag %s", path, epoch, etag)
	}
	resp, err := http.Get(f.oracle[epoch-1].URL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	want, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if got.status != resp.StatusCode || got.body != string(want) {
		return 0, fmt.Errorf("%s at epoch %d:\n routed: %d %s\n single: %d %s", path, epoch, got.status, got.body, resp.StatusCode, want)
	}
	return epoch, nil
}

func (f *epochFleet) checkWhole(t *testing.T, path string, got fetched) uint64 {
	t.Helper()
	epoch, err := f.whole(path, got)
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

// expect fetches path and asserts the cache verdict and the epoch of a
// whole answer.
func (f *epochFleet) expect(t *testing.T, base, path, xcache string, epoch uint64) {
	t.Helper()
	got := fetch(t, base, path, "")
	if got.xcache() != xcache {
		t.Fatalf("%s: X-Cache %q, want %q", path, got.xcache(), xcache)
	}
	if e := f.checkWhole(t, path, got); e != epoch {
		t.Fatalf("%s: answered at epoch %d, want %d", path, e, epoch)
	}
}

// TestRouterCacheWarmEqualsCold runs TestClusterEquivalence's probe set
// through a caching router twice: the cold pass must equal single-node,
// the warm pass must equal the cold one byte for byte — body, status,
// ETag — with every storable answer now a hit, and a conditional GET
// must answer 304 wherever the single node does.
func TestRouterCacheWarmEqualsCold(t *testing.T) {
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
	var paths []string // the probe set, each path once: a repeat would be a hit already on the cold pass
	seen := map[string]bool{}
	for _, p := range probePaths(full) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}

	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			shards, urls := buildShards(t, d, plan, 2, false, allRPC)
			defer func() {
				for _, s := range shards {
					s.Close()
				}
			}()
			rt, err := NewRouter(urls, RouterOptions{Transport: transport, ProbeInterval: proberNeverDue})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()

			cold := make(map[string]fetched, len(paths))
			for _, p := range paths {
				want := fetch(t, single.URL, p, "")
				got := fetch(t, rts.URL, p, "")
				if got.status != want.status || normalize([]byte(got.body)) != normalize([]byte(want.body)) {
					t.Fatalf("cold %s:\n routed: %d %s\n single: %d %s", p, got.status, got.body, want.status, want.body)
				}
				if got.hdr.Get("ETag") != want.hdr.Get("ETag") {
					t.Fatalf("cold %s: ETag %q, single node %q", p, got.hdr.Get("ETag"), want.hdr.Get("ETag"))
				}
				if got.xcache() == "hit" {
					t.Fatalf("cold %s was a hit", p)
				}
				cold[p] = got
			}
			hits := 0
			for _, p := range paths {
				got, was := fetch(t, rts.URL, p, ""), cold[p]
				if got.status != was.status || got.body != was.body || got.hdr.Get("ETag") != was.hdr.Get("ETag") {
					t.Fatalf("warm %s differs from cold:\n warm: %d %s %s\n cold: %d %s %s", p,
						got.status, got.hdr.Get("ETag"), got.body, was.status, was.hdr.Get("ETag"), was.body)
				}
				storable := was.status == http.StatusOK || was.status == http.StatusNotFound
				if storable != (got.xcache() == "hit") {
					t.Fatalf("warm %s (status %d): X-Cache %q", p, got.status, got.xcache())
				}
				if storable {
					hits++
					if got.hdr.Get("X-Replica") != "" {
						t.Fatalf("warm %s: a hit names replica %q, but no replica answered", p, got.hdr.Get("X-Replica"))
					}
				}
				if point := strings.HasPrefix(p, "/v1/addr/") || strings.HasPrefix(p, "/v1/block/"); point && storable &&
					got.hdr.Get("X-Shard") != was.hdr.Get("X-Shard") {
					t.Fatalf("warm %s: X-Shard %q, cold %q", p, got.hdr.Get("X-Shard"), was.hdr.Get("X-Shard"))
				}
			}
			if h, _, size := rt.cache.Stats(); int(h) != hits || size != hits {
				t.Fatalf("cache counted %d hits over %d entries, want %d of each", h, size, hits)
			}
			for _, p := range paths {
				etag := cold[p].hdr.Get("ETag")
				want := fetch(t, single.URL, p, etag)
				got := fetch(t, rts.URL, p, etag)
				if got.status != want.status || got.body != want.body || got.hdr.Get("ETag") != want.hdr.Get("ETag") {
					t.Fatalf("conditional %s: routed %d %q, single %d %q", p, got.status, got.body, want.status, want.body)
				}
				if want.status != http.StatusNotModified {
					t.Fatalf("conditional %s: single node answered %d, want 304", p, want.status)
				}
			}
		})
	}
}

// TestRouterCacheEpochTurnover walks a two-range fleet through a
// publish that reaches one range before the other. Throughout, every
// point answer and every stored aggregate is one epoch's answer whole
// (checkWhole); while the ranges disagree aggregates bypass the cache
// and are not inserted, the moved range's points re-key, and once both
// ranges have moved the old epoch is evicted.
func TestRouterCacheEpochTurnover(t *testing.T) {
	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			f := newEpochFleet(t, 2)
			defer f.Close()
			rt, err := NewRouter(f.urls, RouterOptions{Transport: transport, ProbeInterval: proberNeverDue})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()

			b0, b1 := f.activeBlock(t, 0), f.activeBlock(t, 1)
			local := func(b ipv4.Block) []string { // reads that consult b's range only
				return []string{
					"/v1/block/" + b.String(),
					"/v1/addr/" + b.Addr(0).String(),
					"/v1/prefix/" + b.String(),
				}
			}
			range0, range1 := local(b0), local(b1)
			aggs := []string{"/v1/summary", fmt.Sprintf("/v1/as/AS%d", f.idx[0][0].ASNs()[0]), "/v1/as/AS999999"}
			all := append(append(append([]string{}, range0...), range1...), aggs...)
			each := func(paths []string, xcache string, epoch uint64) {
				t.Helper()
				for _, p := range paths {
					f.expect(t, rts.URL, p, xcache, epoch)
				}
			}

			// Both ranges at epoch 1: cold, then warm.
			each(all, "miss", 1)
			each(all, "hit", 1)

			// Range 0 publishes epoch 2 and nothing has told the router:
			// it keeps serving epoch 1 — behind, but whole.
			f.publish(0, 1)
			each(all, "hit", 1)

			// A key nobody asked before goes to the shard and discovers
			// the publish: answered at epoch 2, whole, and stored nowhere
			// — it was keyed under epoch 1.
			fresh := "/v1/addr/" + b0.Addr(9).String()
			f.expect(t, rts.URL, fresh, "miss", 2)
			if cacheHolds(rt, 1, fresh) || cacheHolds(rt, 2, fresh) {
				t.Fatal("an answer at another epoch than its key was stored")
			}
			f.expect(t, rts.URL, fresh, "miss", 2) // keyed under 2 now
			f.expect(t, rts.URL, fresh, "hit", 2)

			// The ranges disagree: aggregates bypass and are not inserted.
			size := cacheSize(rt)
			for pass := 0; pass < 2; pass++ {
				for _, p := range aggs {
					got := fetch(t, rts.URL, p, "")
					if got.xcache() != "miss" || got.hdr.Get("ETag") != wire.ETagFor(1) {
						t.Fatalf("mid-turnover %s: X-Cache %q ETag %q, want a miss stamped with the lower epoch",
							p, got.xcache(), got.hdr.Get("ETag"))
					}
					if cacheHolds(rt, 2, p) {
						t.Fatalf("mid-turnover %s was stored", p)
					}
				}
			}
			if cacheSize(rt) != size {
				t.Fatalf("cache grew from %d to %d entries on bypassed aggregates", size, cacheSize(rt))
			}
			// Range 0's reads re-key under epoch 2; range 1's have not moved.
			each(range0, "miss", 2)
			each(range0, "hit", 2)
			each(range1, "hit", 1)

			// Range 1 publishes and the prober notices: both ranges key
			// epoch 2 and epoch 1 is evicted.
			f.publish(1, 1)
			rt.probeOnce()
			for _, p := range all {
				if cacheHolds(rt, 1, p) {
					t.Fatalf("%s is still cached under the evicted epoch 1", p)
				}
			}
			each(range0, "hit", 2)
			each(range1, "miss", 2)
			each(aggs, "miss", 2)
			each(all, "hit", 2)
			for _, p := range all {
				if got := fetch(t, rts.URL, p, wire.ETagFor(2)); got.status != http.StatusNotModified || got.body != "" {
					t.Fatalf("conditional %s at the live epoch: %d %q, want 304", p, got.status, got.body)
				}
				f.expect(t, rts.URL, p, "hit", 2) // a stale validator gets the body
			}
		})
	}
}

// TestRouterCacheTurnoverUnderLoad replays the staggered publish while
// readers hammer the router from several goroutines (it exists for
// -race: the view, the tag memo, the eviction mark and the cache are all
// reached concurrently). Every point answer must be whole whenever it
// was served, and once the view has settled every reader sees epoch 2.
func TestRouterCacheTurnoverUnderLoad(t *testing.T) {
	f := newEpochFleet(t, 2)
	defer f.Close()
	rt, err := NewRouter(f.urls, RouterOptions{Transport: TransportRPC, ProbeInterval: proberNeverDue})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	var points []string
	for i := 0; i < 2; i++ {
		b := f.activeBlock(t, i)
		points = append(points, "/v1/block/"+b.String(), "/v1/addr/"+b.Addr(0).String(), "/v1/prefix/"+b.String())
	}
	aggs := []string{"/v1/summary", "/v1/as/AS999999"}

	read := func(path string) (fetched, error) {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			return fetched{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return fetched{status: resp.StatusCode, body: string(body), hdr: resp.Header}, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := points[i%len(points)]
				got, err := read(p)
				if err == nil {
					_, err = f.whole(p, got)
				}
				if err != nil {
					t.Error(err)
					return
				}
				// A merge across the publish is stamped with its lowest
				// part and not whole by design; its stamp and ETag must
				// still agree.
				p = aggs[i%len(aggs)]
				got, err = read(p)
				if err != nil {
					t.Error(err)
					return
				}
				if m := bodyEpoch.FindStringSubmatch(got.body); m == nil || got.hdr.Get("ETag") != `"ips-e`+m[1]+`"` {
					t.Errorf("%s: ETag %s on body %.40s", p, got.hdr.Get("ETag"), got.body)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 2; i++ {
		f.publish(i, 1)
		rt.probeOnce()
	}
	close(stop)
	wg.Wait()
	for _, p := range append(points, aggs...) {
		got := fetch(t, rts.URL, p, "")
		if e := f.checkWhole(t, p, got); e != 2 {
			t.Fatalf("%s: epoch %d after both ranges published, want 2", p, e)
		}
	}
}

// TestRouterCacheHitsOutliveReplicas pins that a hit is served whatever
// the replicas' health — the bytes are exact — while a miss keeps the
// degraded contract: with a whole range dead, what was cached keeps
// answering 200 and what was not answers 503; and that a failed gather,
// a warming 503 and a not-retained 404 are never stored.
func TestRouterCacheHitsOutliveReplicas(t *testing.T) {
	d, w := clusterTestData(t)
	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			fleet, urls := buildReplicatedFleet(t, d, plan, 2, 1)
			defer func() {
				for _, rg := range fleet {
					rg[0].Kill()
				}
			}()
			rt, err := NewRouter(urls, RouterOptions{Transport: transport, ProbeInterval: proberNeverDue})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()

			blocks := fleet[1][0].srv.Index().Blocks()
			cachedBlk, coldBlk := "/v1/block/"+blocks[0].String(), "/v1/block/"+blocks[1].String()
			warm := map[string]fetched{}
			for _, p := range []string{cachedBlk, "/v1/summary"} {
				warm[p] = fetch(t, rts.URL, p, "")
				if warm[p].status != http.StatusOK {
					t.Fatalf("%s: status %d", p, warm[p].status)
				}
			}
			size := cacheSize(rt)
			unchanged := func(what string) {
				t.Helper()
				if n := cacheSize(rt); n != size {
					t.Fatalf("%s: cache went from %d to %d entries", what, size, n)
				}
			}
			hitsStill := func(what string) {
				t.Helper()
				for p, was := range warm {
					got := fetch(t, rts.URL, p, "")
					if got.status != was.status || got.body != was.body || got.xcache() != "hit" {
						t.Fatalf("%s: cached %s answered %d (X-Cache %q), want the cached 200", what, p, got.status, got.xcache())
					}
				}
			}
			missIs := func(what, path string, status int) fetched {
				t.Helper()
				var got fetched
				for pass := 0; pass < 2; pass++ { // twice: the first must not have been stored
					got = fetch(t, rts.URL, path, "")
					if got.status != status || got.xcache() != "miss" {
						t.Fatalf("%s: %s answered %d (X-Cache %q), want an uncached %d", what, path, got.status, got.xcache(), status)
					}
				}
				unchanged(what)
				return got
			}

			// A not-retained 404 carries a query string: bypassed, not stored.
			missIs("not retained", cachedBlk+"?epoch=99", http.StatusNotFound)
			missIs("not retained", "/v1/summary?epoch=99", http.StatusNotFound)

			// Range 1's only process restarts and is warming: the router
			// has seen the range at epoch 1, so these reads are keyed —
			// and the warming 503 must be declined.
			warming := serve.New(nil, serve.Config{Shard: func() *wire.ShardInfo { si := fleet[1][0].srv.Shard(); return &si }()})
			live := fleet[1][0].srv
			fleet[1][0].Kill()
			fleet[1][0].srv = warming
			warming.SetRPCAddr(fleet[1][0].rpcAddr)
			fleet[1][0].Revive()
			hitsStill("range warming")
			got := missIs("range warming", coldBlk, http.StatusServiceUnavailable)
			if got.body != string(wire.WarmingBody()) || got.hdr.Get("Retry-After") == "" || got.hdr.Get("ETag") != "" {
				t.Fatalf("warming relay: %q Retry-After %q ETag %q", got.body, got.hdr.Get("Retry-After"), got.hdr.Get("ETag"))
			}
			missIs("range warming", "/v1/as/AS999999", http.StatusServiceUnavailable) // a failed gather

			// The whole range dies.
			fleet[1][0].Kill()
			hitsStill("range dead")
			missIs("range dead", coldBlk, http.StatusServiceUnavailable)
			missIs("range dead", "/v1/as/AS999999", http.StatusServiceUnavailable)
			if status, h := routerHealth(t, rts.URL); status != http.StatusServiceUnavailable || h.Status != "degraded" {
				t.Fatalf("healthz with a dead range = %d %q, want 503 degraded", status, h.Status)
			}

			// Back with its data: the uncached block answers, and is stored.
			fleet[1][0].srv = live
			fleet[1][0].Revive()
			if got := fetch(t, rts.URL, coldBlk, ""); got.status != http.StatusOK || got.xcache() != "miss" {
				t.Fatalf("revived range: %d (X-Cache %q)", got.status, got.xcache())
			}
			if got := fetch(t, rts.URL, coldBlk, ""); got.status != http.StatusOK || got.xcache() != "hit" {
				t.Fatalf("revived range, second read: %d (X-Cache %q)", got.status, got.xcache())
			}
			_, h := routerHealth(t, rts.URL)
			if hits, misses, n := rt.cache.Stats(); h.CacheHits != hits || h.CacheMisses != misses || h.CacheSize != n || n != size+1 {
				t.Fatalf("healthz cache counters %d/%d/%d, cache says %d/%d/%d (want size %d)",
					h.CacheHits, h.CacheMisses, h.CacheSize, hits, misses, n, size+1)
			}
		})
	}
}

// TestRouterEpochViewSeeded pins the view's two feeds that need no
// prober: discovery seeds it (an error raised before any shard traffic
// is stamped with the fleet's epoch, not 0), and point answers advance
// it as gathers always did.
func TestRouterEpochViewSeeded(t *testing.T) {
	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			f := newEpochFleet(t, 2)
			defer f.Close()
			f.publish(0, 1)
			f.publish(1, 1)
			rt, err := NewRouter(f.urls, RouterOptions{Transport: transport, ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if rt.cache != nil {
				t.Fatal("a router without a prober caches")
			}
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()

			bad := fetch(t, rts.URL, "/v1/as/banana", "")
			if bad.status != http.StatusBadRequest || !strings.HasPrefix(bad.body, `{"epoch":2,`) || bad.hdr.Get("ETag") != wire.ETagFor(2) {
				t.Fatalf("first request: %d %s (ETag %s), want a 400 stamped epoch 2", bad.status, bad.body, bad.hdr.Get("ETag"))
			}

			// Only point lookups from here on: they alone must move the view.
			for i := range f.srvs {
				f.srvs[i].Publish(f.idx[1][i].AtEpoch(3))
				if got := fetch(t, rts.URL, "/v1/block/"+f.activeBlock(t, i).String(), ""); got.status != http.StatusOK {
					t.Fatalf("block of range %d: %d %s", i, got.status, got.body)
				}
			}
			if e := rt.minEpoch(); e != 3 {
				t.Fatalf("view after one point answer per range: epoch %d, want 3", e)
			}
		})
	}
}

// nopWriter keeps nothing, so AllocsPerRun sees the handler's own
// allocations only.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(int)             {}
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRouterHitAllocs holds the router's hit path to the node's: both
// run serve.Cache.Serve behind the same mux patterns, and the routing in
// front of it (parse, owner, view) must add no allocation.
func TestRouterHitAllocs(t *testing.T) {
	f := newEpochFleet(t, 2)
	defer f.Close()
	rt, err := NewRouter(f.urls, RouterOptions{Transport: TransportRPC, ProbeInterval: proberNeverDue})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	node := serve.New(f.idx[0][1], serve.Config{})

	b := f.activeBlock(t, 1)
	for _, path := range []string{
		"/v1/addr/" + b.Addr(0).String(),
		"/v1/block/" + b.String(),
		"/v1/prefix/" + b.String(),
		"/v1/as/AS64500",
		"/v1/summary",
	} {
		perHit := func(h http.Handler) float64 {
			w := &nopWriter{h: http.Header{}}
			r := httptest.NewRequest(http.MethodGet, path, nil)
			h.ServeHTTP(w, r) // fill
			n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, r) })
			if got := w.h["X-Cache"]; len(got) != 1 || got[0] != "hit" {
				t.Fatalf("%s: X-Cache %v, want hit", path, got)
			}
			return n
		}
		if router, single := perHit(rt.Handler()), perHit(node.Handler()); router > single {
			t.Errorf("%s: a router hit allocates %.0f objects, a node hit %.0f", path, router, single)
		}
	}
}
