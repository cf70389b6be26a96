package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipscope/internal/ipv4"
	"ipscope/internal/par"
	"ipscope/internal/query"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// Shard transports selectable via RouterOptions.Transport.
const (
	// TransportHTTP proxies and gathers over the shards' public JSON
	// API — the universal default.
	TransportHTTP = "http"
	// TransportRPC uses the binary RPC protocol (internal/rpc) for
	// every shard that advertises an RPC endpoint in its cluster info,
	// falling back to HTTP per shard otherwise.
	TransportRPC = "rpc"
)

// RouterOptions tunes a Router.
type RouterOptions struct {
	// Transport selects the shard data transport: TransportHTTP
	// (default) or TransportRPC.
	Transport string
	// InfoTimeout bounds how long NewRouter waits for every shard to
	// answer /v1/cluster/info (shards may still be compiling their
	// slice); <= 0 means DefaultInfoTimeout.
	InfoTimeout time.Duration
	// Replicas declares the fleet's replication factor R: the shard
	// URLs form R complete copies of a len(urls)/R-range partition
	// (every range served by exactly R processes). It must be set
	// explicitly — discovery alone cannot distinguish a G=1,R=2 fleet
	// from two not-yet-partitioned live shards, which also both report
	// the full range. <= 0 means 1, the pre-replication layout.
	Replicas int
	// ProbeInterval is the cadence of the background health prober
	// (probes healthy replicas to catch silent death, and down
	// replicas whose backoff expired to re-admit them). 0 means
	// DefaultProbeInterval; < 0 disables background probing — health
	// is then tracked only passively (request failures) and actively
	// by /v1/healthz. The prober is also what bounds how long the
	// router's view of the fleet's epochs can trail a publish, so a
	// router without one does not cache responses.
	ProbeInterval time.Duration
}

// gatherLimit bounds the fan-out concurrency of scatter-gather
// endpoints.
const gatherLimit = 8

// DefaultInfoTimeout bounds the startup partition discovery.
const DefaultInfoTimeout = 30 * time.Second

// DefaultProbeInterval is the background health probe cadence.
const DefaultProbeInterval = time.Second

// newShardHTTPClient builds the client for router→shard HTTP traffic
// (discovery always, data on the HTTP transport). The zero-value
// http.Transport keeps only 2 idle connections per host
// (DefaultMaxIdleConnsPerHost), so a gather=8 fan-out or a point-lookup
// burst re-dials the same shard on nearly every request; a router talks
// to a small, fixed fleet and should keep every connection warm.
func newShardHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Router fronts a fleet of shard servers with the single-node /v1/*
// API. The fleet is grouped into ranges: R replica processes per
// contiguous block range, every replica serving a bit-identical index
// (builds are deterministic), so any replica of a range is an exact
// stand-in for any other and failover needs no quorum.
//
// Point lookups (/v1/addr, /v1/block) go to a healthy replica of the
// range owning the block — the response, epoch field and ETag are the
// replica's, with X-Shard/X-Replica headers naming it — and retry on
// the next replica when the first is unreachable. Aggregates
// (/v1/summary, /v1/as, /v1/prefix, /v1/delta, /v1/movement) fan out
// one fetch per covering range with bounded concurrency, failing over
// within each range mid-gather, fold the mergeable partials, and
// answer with the minimum epoch across the ranges consulted — the
// oldest snapshot the answer can depend on.
//
// Live reads (no query string) of /v1/addr, /v1/block, /v1/prefix,
// /v1/as and /v1/summary go through a response cache — the node's own
// serve.Cache, on the node's own read path (serve.Cache.Serve) — keyed
// by the epoch the router has observed the consulted ranges serving;
// see answer. A hit is served whatever the replicas' health: the bytes
// are exact. Misses keep the pick/failover/degraded semantics below.
//
// Health is a per-replica state machine: request failures mark a
// replica down passively, a background prober (and every /v1/healthz)
// probes it, and exponential backoff gates re-admission. The fleet
// keeps answering 200s with any single replica of each range dead;
// "degraded" (healthz 503, point-lookup 503s for the orphaned blocks)
// now means all replicas of some range are down. Shard traffic runs
// over the transport selected at construction; the public surface is
// identical over both.
type Router struct {
	ranges   []*rangeGroup // ascending owned-range order
	replicas int           // replication factor R

	probeInterval time.Duration
	// now is the clock the health state machine runs on (health.go).
	now func() time.Time

	handler http.Handler

	// cache is nil on a router without a background prober. tag memoizes
	// the pre-rendered ETag of the epoch last served; evicted is the
	// minEpoch below which the cache has already been emptied.
	cache   *serve.Cache
	tag     atomic.Pointer[serve.EpochTag]
	evicted atomic.Uint64

	// stopProbe ends the background prober; probeDone is closed once it
	// has exited (nil on a router without one).
	closeOnce sync.Once
	stopProbe chan struct{}
	probeDone chan struct{}

	lis serve.Listener
}

// rangeGroup is one contiguous block range and the replica processes
// serving it. next is the round-robin cursor spreading point lookups
// across healthy replicas.
type rangeGroup struct {
	shard    int      // partition index, from the replicas' shard info
	shardHdr []string // pre-built X-Shard header value
	lo, hi   uint32
	// replicas in (replica id, base URL) order — index 0 is the
	// primary copy, so an R=1 fleet reproduces the pre-replication
	// layout exactly.
	replicas []*replicaState
	next     atomic.Uint64
}

// replicaState is one replica process: its address, identity,
// transport client, the highest epoch the router has observed it
// serving, and its failover health (health.go).
type replicaState struct {
	base       string
	info       wire.ShardInfo
	replicaHdr []string // pre-built X-Replica header value
	client     Client
	epoch      atomic.Uint64
	health
}

// observeEpoch records a served epoch (monotonic: shards never roll
// back a published snapshot) and reports whether it was news.
func (rp *replicaState) observeEpoch(e uint64) bool {
	for {
		cur := rp.epoch.Load()
		if e <= cur {
			return false
		}
		if rp.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// epoch is the range's place in the router's view of the fleet: the
// highest epoch any of its replicas has been observed serving. Any
// replica at that epoch can answer for the range.
func (g *rangeGroup) epoch() uint64 {
	best := uint64(0)
	for _, rp := range g.replicas {
		if e := rp.epoch.Load(); e > best {
			best = e
		}
	}
	return best
}

// NewRouter discovers the fleet behind the given shard base URLs
// (e.g. "http://127.0.0.1:8091") by reading each process's
// /v1/cluster/info, groups replicas by owned range, validates that
// the ranges tile the whole block space exactly once with
// opts.Replicas processes each, and returns a Router serving the
// merged /v1/* API. Discovery always runs over HTTP; with
// TransportRPC, data traffic upgrades to the binary protocol for
// every replica advertising an rpcAddr, replica by replica.
func NewRouter(urls []string, opts RouterOptions) (*Router, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: no shard URLs")
	}
	hc := newShardHTTPClient()
	transport := opts.Transport
	if transport == "" {
		transport = TransportHTTP
	}
	if transport != TransportHTTP && transport != TransportRPC {
		return nil, fmt.Errorf("cluster: unknown transport %q", transport)
	}
	infoTimeout := opts.InfoTimeout
	if infoTimeout <= 0 {
		infoTimeout = DefaultInfoTimeout
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if len(urls)%replicas != 0 {
		return nil, fmt.Errorf("cluster: %d shard URLs do not divide into %d replicas per range", len(urls), replicas)
	}
	wantRanges := len(urls) / replicas
	probeInterval := opts.ProbeInterval
	if probeInterval == 0 {
		probeInterval = DefaultProbeInterval
	}

	rt := &Router{
		replicas:      replicas,
		probeInterval: probeInterval,
		now:           time.Now,
		stopProbe:     make(chan struct{}),
	}
	type rkey struct{ lo, hi uint32 }
	groups := make(map[rkey]*rangeGroup)
	deadline := time.Now().Add(infoTimeout)
	for _, base := range urls {
		info, err := fetchInfo(hc, base, wantRanges, deadline)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("cluster: shard %s: %w", base, err)
		}
		rp := &replicaState{
			base:       base,
			info:       info.ShardInfo,
			replicaHdr: []string{strconv.Itoa(info.Replica)},
		}
		// The view starts where discovery found the fleet, not at 0.
		rp.epoch.Store(info.Epoch)
		if transport == TransportRPC && info.RPCAddr != "" {
			rp.client = newRPCShardClient(info.Index, info.RPCAddr)
		} else {
			rp.client = newHTTPShardClient(info.Index, base, hc)
		}
		k := rkey{info.Lo, info.Hi}
		g := groups[k]
		if g == nil {
			g = &rangeGroup{shard: info.Index, shardHdr: []string{strconv.Itoa(info.Index)}, lo: info.Lo, hi: info.Hi}
			groups[k] = g
			rt.ranges = append(rt.ranges, g)
		}
		g.replicas = append(g.replicas, rp)
	}
	sort.Slice(rt.ranges, func(i, j int) bool { return rt.ranges[i].lo < rt.ranges[j].lo })
	for _, g := range rt.ranges {
		sort.Slice(g.replicas, func(i, j int) bool {
			a, b := g.replicas[i], g.replicas[j]
			if a.info.Replica != b.info.Replica {
				return a.info.Replica < b.info.Replica
			}
			return a.base < b.base
		})
	}
	if err := validateFleet(rt.ranges, wantRanges, replicas); err != nil {
		rt.Close()
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/addr/{ip}", rt.handleAddr)
	mux.HandleFunc("GET /v1/block/{prefix...}", rt.handleBlock)
	mux.HandleFunc("GET /v1/prefix/{cidr...}", rt.handlePrefix)
	mux.HandleFunc("GET /v1/as/{asn}", rt.handleAS)
	mux.HandleFunc("GET /v1/summary", rt.handleSummary)
	mux.HandleFunc("GET /v1/delta", rt.handleDelta)
	mux.HandleFunc("GET /v1/movement", rt.handleMovement)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	rt.handler = mux
	if probeInterval > 0 {
		// Without the prober nothing bounds how stale the view can get
		// (see RouterOptions.ProbeInterval), so only a probing router caches.
		rt.cache = serve.NewCache(serve.DefaultCacheSize)
		rt.evicted.Store(rt.minEpoch())
		rt.probeDone = make(chan struct{})
		go rt.probeLoop()
	}
	return rt, nil
}

// validateFleet checks the sorted range groups tile [0, 1<<24)
// exactly — no gaps, no overlaps — with exactly replicas processes
// serving each range.
func validateFleet(ranges []*rangeGroup, wantRanges, replicas int) error {
	if len(ranges) != wantRanges {
		return fmt.Errorf("cluster: fleet reports %d distinct ranges, want %d (%d URLs at %d replicas per range)",
			len(ranges), wantRanges, wantRanges*replicas, replicas)
	}
	next := uint32(0)
	for _, g := range ranges {
		if len(g.replicas) != replicas {
			return fmt.Errorf("cluster: range [%d, %d) has %d replicas, want %d", g.lo, g.hi, len(g.replicas), replicas)
		}
		if g.lo != next {
			return fmt.Errorf("cluster: partition gap/overlap at block %d (shard %d starts at %d)", next, g.shard, g.lo)
		}
		if g.hi < g.lo {
			return fmt.Errorf("cluster: shard %d has inverted range [%d, %d)", g.shard, g.lo, g.hi)
		}
		next = g.hi
	}
	if next != blockSpace {
		return fmt.Errorf("cluster: partition covers blocks up to %d, want %d", next, uint32(blockSpace))
	}
	return nil
}

// fetchInfo reads one shard's cluster info, retrying until the deadline
// while the shard is unreachable, still compiling its slice, or not yet
// partition-aware: a live shard only learns its range (and true shard
// count) from the stream's meta event, so until then its info reports
// the default one-shard partition — treated here as "not ready yet",
// not as a hard mismatch. wantCount is the number of distinct ranges
// (not processes): replicas of a range share its shard coordinates.
func fetchInfo(hc *http.Client, base string, wantCount int, deadline time.Time) (wire.ClusterInfo, error) {
	var lastErr error
	for {
		var info wire.ClusterInfo
		resp, err := hc.Get(base + "/v1/cluster/info")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				err = rerr
			case resp.StatusCode != http.StatusOK:
				err = fmt.Errorf("cluster info: status %d", resp.StatusCode)
			default:
				switch err = json.Unmarshal(body, &info); {
				case err != nil:
				case info.Count != wantCount:
					err = fmt.Errorf("cluster info: shard reports a %d-shard partition, router fronts %d", info.Count, wantCount)
				default:
					return info, nil
				}
			}
		}
		lastErr = err
		if time.Now().After(deadline) {
			return wire.ClusterInfo{}, fmt.Errorf("cluster info unavailable: %w", lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Handler returns the router's HTTP handler (for tests and embedding).
func (rt *Router) Handler() http.Handler { return rt.handler }

// NumShards returns the number of distinct block ranges behind the
// router.
func (rt *Router) NumShards() int { return len(rt.ranges) }

// NumReplicas returns the replication factor R.
func (rt *Router) NumReplicas() int { return rt.replicas }

// Close stops the background prober, waits for a probe in flight — none
// may run against closed clients and mark replicas down afterwards — and
// releases every replica client's persistent connections. It does not
// stop a Listen-ing server — use Shutdown for that.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stopProbe) })
	if rt.probeDone != nil {
		<-rt.probeDone
	}
	for _, g := range rt.ranges {
		for _, rp := range g.replicas {
			if rp.client != nil {
				rp.client.Close()
			}
		}
	}
}

// Listen binds addr and serves in the background until Shutdown.
func (rt *Router) Listen(addr string) (net.Addr, error) {
	return rt.lis.Listen(addr, rt.handler)
}

// Shutdown stops accepting new requests and drains in-flight ones.
func (rt *Router) Shutdown(ctx context.Context) error {
	return rt.lis.Shutdown(ctx)
}

// probeLoop is the background health prober: every ProbeInterval it
// probes healthy replicas (catching silent death before a request
// does) and down replicas whose backoff expired (re-admitting them
// without waiting for traffic). Replicas still backing off are left
// alone — that is the point of the backoff.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-t.C:
			rt.probeOnce()
		}
	}
}

func (rt *Router) probeOnce() {
	now := rt.now()
	ctx, cancel := context.WithTimeout(context.Background(), rt.probeInterval)
	defer cancel()
	rt.probeFleet(ctx, func(rp *replicaState) bool { return rp.tier(now) != tierBackoff })
}

// ownerOf returns the one-element slice of rt.ranges holding the range
// group that owns blk.
func (rt *Router) ownerOf(blk ipv4.Block) []*rangeGroup {
	for i, g := range rt.ranges {
		if uint32(blk) >= g.lo && uint32(blk) < g.hi {
			return rt.ranges[i : i+1]
		}
	}
	// Unreachable: validateFleet proved full coverage.
	return rt.ranges[len(rt.ranges)-1:]
}

// minEpoch returns the lowest last-observed epoch across ranges — the
// oldest snapshot a merged answer can depend on (0 while some range has
// only ever been seen warming).
func (rt *Router) minEpoch() uint64 {
	min := rt.ranges[0].epoch()
	for _, g := range rt.ranges[1:] {
		if e := g.epoch(); e < min {
			min = e
		}
	}
	return min
}

// observe feeds one shard answer's epoch into the view. When that moves
// minEpoch, every epoch below it is behind every range for good (views
// only advance), so no key can name it again: its entries are evicted
// rather than left to age out at the expense of live ones.
func (rt *Router) observe(rp *replicaState, epoch uint64) {
	if !rp.observeEpoch(epoch) || rt.cache == nil {
		return
	}
	min := rt.minEpoch()
	for {
		done := rt.evicted.Load()
		if min <= done {
			return
		}
		if rt.evicted.CompareAndSwap(done, min) {
			for e := done; e < min; e++ {
				rt.cache.EvictEpoch(e)
			}
			return
		}
	}
}

// view returns the epoch the router has observed every one of rgs
// serving, and false while they disagree (ranges mid-turnover) or none
// has published yet.
func view(rgs []*rangeGroup) (uint64, bool) {
	epoch := rgs[0].epoch()
	for _, g := range rgs[1:] {
		if g.epoch() != epoch {
			return 0, false
		}
	}
	return epoch, epoch != 0
}

// tagFor returns epoch's pre-rendered ETag. Requests overwhelmingly name
// the epoch the previous one did, so remembering one is enough.
func (rt *Router) tagFor(epoch uint64) serve.EpochTag {
	if t := rt.tag.Load(); t != nil && t.Epoch == epoch {
		return *t
	}
	t := serve.NewEpochTag(epoch)
	rt.tag.Store(&t)
	return t
}

// reply is one routed answer before it is written: the bytes, which
// epoch they are stamped with, and the headers that depend on how they
// were produced.
type reply struct {
	serve.Response
	// tagged says the body carries an epoch stamp and is served with
	// that epoch's ETag; the warming 503 and the not-retained 404 are
	// not. epoch is the stamp.
	tagged bool
	epoch  uint64
	// mixed marks a merge whose parts were at different epochs: stamped
	// with the lowest, but not what any single epoch would answer.
	mixed      bool
	retryAfter string
	replica    *replicaState // who answered a point lookup; nil otherwise
}

// storable says rep is an answer the cache may hold: the 200, or the
// epoch-stamped not-found 404, of one epoch.
func (rep *reply) storable() bool {
	return rep.tagged && !rep.mixed && (rep.Status == http.StatusOK || rep.Status == http.StatusNotFound)
}

// encodeReply renders a merged payload as the reply a single node at
// epoch lo would give; hi is the highest epoch a part was at.
func encodeReply(status int, payload any, lo, hi uint64) reply {
	status, body := wire.Encode(status, payload, lo)
	return reply{Response: serve.Response{Status: status, Body: body}, tagged: true, epoch: lo, mixed: lo != hi}
}

// errReply is the router's own error answer, stamped like every error
// body with the oldest epoch the fleet is known to serve.
func (rt *Router) errReply(status int, msg string) reply {
	e := rt.minEpoch()
	return encodeReply(status, wire.ErrorBody{Error: msg}, e, e)
}

// finish sets the headers rep calls for on w, applies the conditional
// GET rule to its ETag, and returns what is left to write.
func (rt *Router) finish(w http.ResponseWriter, r *http.Request, rep reply) serve.Response {
	h := w.Header()
	if rep.replica != nil {
		h["X-Replica"] = rep.replica.replicaHdr
	}
	if rep.retryAfter != "" {
		h.Set("Retry-After", rep.retryAfter)
	}
	if !rep.tagged {
		delete(h, "Etag")
		return rep.Response
	}
	tag := rt.tagFor(rep.epoch)
	h["Etag"] = tag.Header
	if rep.Status != http.StatusNotModified && wire.NotModified(r, tag.ETag) {
		return serve.Response{Status: http.StatusNotModified}
	}
	return rep.Response
}

// answer serves one cacheable-class read that consults rgs, computing
// it with compute when the cache cannot.
//
// The key's epoch is the router's view of rgs: the epoch it has observed
// all of them serving. While they disagree, when the request carries a
// query string (?epoch= reads need a retained-window view the router
// does not keep), or on a router that does not cache, compute's answer
// is written as it comes. Otherwise the read goes through the node's own
// read path, and a computed answer is stored only if it is storable, is
// stamped with the key's epoch, and — now that computing it has fed the
// view — the view still says that epoch: a lagging replica's answer, a
// merge across a publish, or a fill that finished after its epoch was
// evicted is written to its caller and dropped.
func (rt *Router) answer(w http.ResponseWriter, r *http.Request, rgs []*rangeGroup, compute func() reply) {
	epoch, ok := view(rgs)
	if !ok || rt.cache == nil || r.URL.RawQuery != "" {
		serve.Write(w, rt.finish(w, r, compute()), false)
		return
	}
	rt.cache.Serve(w, r, rt.tagFor(epoch), func() (serve.Response, bool) {
		rep := compute()
		now, ok := view(rgs)
		return rt.finish(w, r, rep), rep.storable() && rep.epoch == epoch && ok && now == epoch
	})
}

// respondErr writes an error the router raises before consulting
// anything — a malformed parameter, a failed history fan-out.
func (rt *Router) respondErr(w http.ResponseWriter, r *http.Request, status int, msg string) {
	wire.Respond(w, r, status, wire.ErrorBody{Error: msg}, rt.minEpoch())
}

// parseEpochParam extracts the ?epoch= time-travel target (0 = live
// snapshot). The router validates it before any shard traffic, so both
// transports reject bad values with the same shared 400 text.
func (rt *Router) parseEpochParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	if r.URL.RawQuery == "" { // keeps url.Values parsing, and its map, off a live read's path
		return 0, true
	}
	e, err := wire.ParseEpoch(r.URL.Query().Get("epoch"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return 0, false
	}
	return e, true
}

// writeNotRetained serves the canonical not-retained 404 — the same
// body bytes wire.NotRetainedBody gives a single shard, with the
// cluster-wide common range in place of the shard's own.
func writeNotRetained(w http.ResponseWriter, asked, oldest, newest uint64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusNotFound)
	w.Write(wire.NotRetainedBody(asked, oldest, newest))
}

// probeFleet live-probes the replicas want accepts (nil: all of them,
// including ones still backing off) with bounded concurrency and returns
// the answers in rt.ranges / replicas order.
func (rt *Router) probeFleet(ctx context.Context, want func(*replicaState) bool) [][]wire.RouterShardHealth {
	fleet := make([][]wire.RouterShardHealth, len(rt.ranges))
	var g par.Group
	g.SetLimit(gatherLimit)
	for i, rg := range rt.ranges {
		fleet[i] = make([]wire.RouterShardHealth, len(rg.replicas))
		for j, rp := range rg.replicas {
			if want != nil && !want(rp) {
				continue
			}
			g.Go(func() error {
				fleet[i][j] = rt.probe(ctx, rg, rp)
				return nil
			})
		}
	}
	g.Wait() //nolint:errcheck // probe outcomes land in fleet and the state machine
	return fleet
}

// commonRing folds a probed fleet's retained rings into the
// cluster-wide common range: within a range the serving replicas' rings
// are intersected, then the ranges'. A range nobody serves contributes
// the empty ring.
func commonRing(fleet [][]wire.RouterShardHealth) ring {
	var common ring
	for _, answers := range fleet {
		var r ring
		for _, st := range answers {
			if st.Status == "ok" {
				r.add(st.OldestEpoch, st.NewestEpoch)
			}
		}
		common.add(r.oldest, r.newest)
	}
	return common
}

// notRetainedReply answers a fan-out that hit an unretained epoch with
// the common-range 404. The failing gather only learned one range's
// ring, so the fleet is probed for the rest — a rare path.
func (rt *Router) notRetainedReply(ctx context.Context, asked uint64) reply {
	oldest, newest := commonRing(rt.probeFleet(ctx, nil)).bounds()
	return reply{Response: serve.Response{Status: http.StatusNotFound, Body: wire.NotRetainedBody(asked, oldest, newest)}}
}

// point answers a point lookup with an owning replica's response —
// body, epoch stamp and ETag are the replica's, and the reply names it
// for X-Replica. Failover is fetchRange's: an unreachable replica is
// marked down and the next tried (any replica's bytes are exact — builds
// are deterministic); a warming one is passed over and its 503 relayed
// only if no sibling can do better. Only when every replica of the range
// is unreachable does the lookup 503 on the unavailable path.
func (rt *Router) point(r *http.Request, rg *rangeGroup, pr PointRequest) reply {
	pr.URI = r.URL.RequestURI()
	pr.IfNoneMatch = r.Header.Get("If-None-Match")
	resp, _, from, err := fetchRange(rt, r.Context(), rg,
		func(ctx context.Context, c Client) (PointResponse, uint64, error) {
			resp, err := c.Point(ctx, pr)
			if err == nil && resp.Status == http.StatusServiceUnavailable {
				// Alive but no snapshot yet: the class the partial
				// fetches report a warming shard with.
				err = &statusError{shard: rg.shard, code: resp.Status, detail: wire.WarmingError, warming: true}
			}
			return resp, resp.Epoch, err
		})
	switch {
	case err == nil:
		return reply{
			Response:   serve.Response{Status: resp.Status, Body: resp.Body},
			tagged:     resp.ETag != "",
			epoch:      resp.Epoch,
			retryAfter: resp.RetryAfter,
			replica:    from,
		}
	case from != nil:
		return reply{
			Response:   serve.Response{Status: http.StatusServiceUnavailable, Body: wire.WarmingBody()},
			retryAfter: "1",
			replica:    from,
		}
	}
	return rt.errReply(http.StatusServiceUnavailable, err.Error())
}

func (rt *Router) handleAddr(w http.ResponseWriter, r *http.Request) {
	a, err := ipv4.ParseAddr(r.PathValue("ip"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	epoch, ok := rt.parseEpochParam(w, r)
	if !ok {
		return
	}
	rt.answerPoint(w, r, rt.ownerOf(a.Block()), PointRequest{IsAddr: true, Addr: a, Epoch: epoch})
}

func (rt *Router) handleBlock(w http.ResponseWriter, r *http.Request) {
	blk, err := wire.Parse24(r.PathValue("prefix"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	epoch, ok := rt.parseEpochParam(w, r)
	if !ok {
		return
	}
	rt.answerPoint(w, r, rt.ownerOf(blk), PointRequest{Block: blk, Epoch: epoch})
}

// answerPoint answers a point lookup owned by owner[0]. X-Shard comes
// from the route, so a cache hit — which no replica answered — names
// the range all the same.
func (rt *Router) answerPoint(w http.ResponseWriter, r *http.Request, owner []*rangeGroup, pr PointRequest) {
	w.Header()["X-Shard"] = owner[0].shardHdr
	rt.answer(w, r, owner, func() reply { return rt.point(r, owner[0], pr) })
}

// fetchRange performs one range's share of a request — a gather's
// fetch or a point lookup — failing over across the range's replicas in
// pick() order. Transport failures mark the replica down and move on;
// warming 503s move on without a health mark; any deterministic answer
// — success, a parse 400, the typed not-retained 404 — is returned
// immediately, because every replica of the range would answer it
// identically. from is the replica that answered. Only when no replica
// produced a deterministic answer does the last failover error surface,
// and from is then the first replica found warming, if any.
func fetchRange[T any](rt *Router, ctx context.Context, rg *rangeGroup,
	fetch func(context.Context, Client) (T, uint64, error)) (T, uint64, *replicaState, error) {
	var zero T
	var lastErr error
	var warming *replicaState
	for _, rp := range rg.pick(rt.now()) {
		v, epoch, err := fetch(ctx, rp.client)
		if err != nil {
			lastErr = err
			if isUnavailable(err) {
				rp.markDown(rt.now())
				continue
			}
			if isWarming(err) {
				if warming == nil {
					warming = rp
				}
				continue
			}
			rp.markUp()
			return zero, 0, rp, err
		}
		rp.markUp()
		rt.observe(rp, epoch)
		return v, epoch, rp, nil
	}
	return zero, 0, warming, lastErr
}

// gatherPartials fans one fetch per range out with bounded
// concurrency, failing over inside each range via fetchRange. A range
// with no answering replica fails the whole gather — a partial
// aggregate would silently misreport the dataset. lo and hi are the
// lowest and highest epoch a range answered at: the merge is stamped
// lo, and is one epoch's answer only when lo == hi.
func gatherPartials[T any](rt *Router, ctx context.Context, ranges []*rangeGroup,
	fetch func(context.Context, Client) (T, uint64, error)) (out []T, lo, hi uint64, err error) {
	out = make([]T, len(ranges))
	epochs := make([]uint64, len(ranges))
	var g par.Group
	g.SetLimit(gatherLimit)
	for i, rg := range ranges {
		g.Go(func() error {
			v, epoch, _, err := fetchRange(rt, ctx, rg, fetch)
			if err != nil {
				return err
			}
			out[i], epochs[i] = v, epoch
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, 0, 0, err
	}
	lo, hi = epochs[0], epochs[0]
	for _, e := range epochs[1:] {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return out, lo, hi, nil
}

// gatherErr answers a failed aggregate gather: a not-retained epoch
// becomes the common-range 404, anything else the 503 unavailable path.
func (rt *Router) gatherErr(ctx context.Context, err error, asked uint64) reply {
	var nr *wire.NotRetainedError
	if errors.As(err, &nr) {
		return rt.notRetainedReply(ctx, asked)
	}
	return rt.errReply(http.StatusServiceUnavailable, err.Error())
}

func (rt *Router) handleSummary(w http.ResponseWriter, r *http.Request) {
	asOf, ok := rt.parseEpochParam(w, r)
	if !ok {
		return
	}
	rt.answer(w, r, rt.ranges, func() reply {
		parts, lo, hi, err := gatherPartials(rt, r.Context(), rt.ranges,
			func(ctx context.Context, c Client) (query.SummaryPartial, uint64, error) {
				return c.Summary(ctx, asOf)
			})
		if err != nil {
			return rt.gatherErr(r.Context(), err, asOf)
		}
		merged, err := query.MergeSummaryPartials(parts)
		if err != nil {
			return rt.errReply(http.StatusInternalServerError, err.Error())
		}
		return encodeReply(http.StatusOK, merged.Finalize(), lo, hi)
	})
}

func (rt *Router) handleAS(w http.ResponseWriter, r *http.Request) {
	n, err := wire.ParseASN(r.PathValue("asn"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	asOf, ok := rt.parseEpochParam(w, r)
	if !ok {
		return
	}
	rt.answer(w, r, rt.ranges, func() reply {
		parts, lo, hi, err := gatherPartials(rt, r.Context(), rt.ranges,
			func(ctx context.Context, c Client) (query.ASPartial, uint64, error) {
				return c.AS(ctx, n, asOf)
			})
		if err != nil {
			return rt.gatherErr(r.Context(), err, asOf)
		}
		v, ok := query.MergeASPartials(parts)
		if !ok {
			return encodeReply(http.StatusNotFound, wire.ErrorBody{Error: wire.ErrASNotFound(n)}, lo, hi)
		}
		return encodeReply(http.StatusOK, v, lo, hi)
	})
}

func (rt *Router) handlePrefix(w http.ResponseWriter, r *http.Request) {
	p, err := ipv4.ParsePrefix(r.PathValue("cidr"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if err := query.CheckPrefix(p); err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// Ranges are sorted and tile the space, so the covering ones are
	// contiguous in rt.ranges.
	first := uint32(p.FirstBlock())
	last := first + uint32(p.NumBlocks()) - 1
	from, to := 0, len(rt.ranges)
	for from < to && rt.ranges[from].hi <= first {
		from++
	}
	for to > from && rt.ranges[to-1].lo > last {
		to--
	}
	covering := rt.ranges[from:to]
	asOf, ok := rt.parseEpochParam(w, r)
	if !ok {
		return
	}
	rt.answer(w, r, covering, func() reply {
		cidr := p.String()
		parts, lo, hi, err := gatherPartials(rt, r.Context(), covering,
			func(ctx context.Context, c Client) (query.PrefixPartial, uint64, error) {
				return c.Prefix(ctx, cidr, asOf)
			})
		if err != nil {
			return rt.gatherErr(r.Context(), err, asOf)
		}
		merged, err := query.MergePrefixPartials(parts, wire.DefaultPrefixBlockList)
		if err != nil {
			return rt.errReply(http.StatusInternalServerError, err.Error())
		}
		return encodeReply(http.StatusOK, merged, lo, hi)
	})
}

// handleDelta scatter-gathers /v1/delta?from=&to= to every range
// (failing over within each) and folds the mergeable partials
// exactly. Not-retained answers do not fail the gather: every range
// reports its retained ring (inside the success payload or the typed
// 404), the router folds the cluster-wide common range, and a missing
// epoch answers the canonical 404 body with that range — blaming from
// before to, the same check order a single shard applies.
func (rt *Router) handleDelta(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to, err := wire.ParseDeltaSpan(q.Get("from"), q.Get("to"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// A range that no longer retains an epoch still answers — with its
	// ring and no partial — so the gather learns every range's ring.
	type deltaShare struct {
		p              query.DeltaPartial
		oldest, newest uint64
		missing        bool
	}
	shares, _, _, err := gatherPartials(rt, r.Context(), rt.ranges,
		func(ctx context.Context, c Client) (deltaShare, uint64, error) {
			p, oldest, newest, err := c.Delta(ctx, from, to)
			var nr *wire.NotRetainedError
			if errors.As(err, &nr) {
				return deltaShare{oldest: nr.Oldest, newest: nr.Newest, missing: true}, 0, nil
			}
			return deltaShare{p: p, oldest: oldest, newest: newest}, 0, err
		})
	if err != nil {
		rt.respondErr(w, r, http.StatusServiceUnavailable, err.Error())
		return
	}
	parts := make([]query.DeltaPartial, len(shares))
	var common ring
	missing := false
	for i, sh := range shares {
		parts[i] = sh.p
		common.add(sh.oldest, sh.newest)
		missing = missing || sh.missing
	}
	if missing {
		oldest, newest := common.bounds()
		asked := from
		if newest > 0 && from >= oldest && from <= newest {
			asked = to
		}
		writeNotRetained(w, asked, oldest, newest)
		return
	}
	merged, err := query.MergeDeltaPartials(parts, query.DefaultDeltaBlockList)
	if err != nil {
		rt.respondErr(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	wire.Respond(w, r, http.StatusOK, merged, to)
}

// handleMovement scatter-gathers /v1/movement?last=N; the merge keeps
// the epochs present on every range, so the routed series covers the
// cluster-wide common range.
func (rt *Router) handleMovement(w http.ResponseWriter, r *http.Request) {
	last, err := wire.ParseLast(r.URL.Query().Get("last"))
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	parts, _, _, err := gatherPartials(rt, r.Context(), rt.ranges,
		func(ctx context.Context, c Client) (query.MovementPartial, uint64, error) {
			p, _, newest, err := c.Movement(ctx, last)
			return p, newest, err
		})
	if err != nil {
		rt.respondErr(w, r, http.StatusServiceUnavailable, err.Error())
		return
	}
	merged, err := query.MergeMovementPartials(parts)
	if err != nil {
		rt.respondErr(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	wire.Respond(w, r, http.StatusOK, merged, merged.NewestEpoch)
}

// handleHealthz live-probes every replica with bounded concurrency —
// including replicas still backing off, so an operator hitting
// /v1/healthz is an active re-admission path — feeds the health state
// machine, and aggregates per range: a range is "ok" when every
// replica serves, "partial" when some do, "down" when none does. The
// fleet is "degraded" (503) only when some range is down — that is
// the set of blocks nobody can answer. The cluster epoch is the
// minimum over ranges of each range's best healthy replica.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fleet := rt.probeFleet(r.Context(), nil)
	body := wire.RouterHealth{Status: "ok"}
	status := http.StatusOK
	for gi, rg := range rt.ranges {
		rh := wire.RouterRangeHealth{Shard: rg.shard, Lo: rg.lo, Hi: rg.hi, Replicas: len(rg.replicas)}
		var rangeEpoch uint64
		for _, st := range fleet[gi] {
			if st.Status == "ok" {
				rh.Healthy++
				rangeEpoch = max(rangeEpoch, st.Epoch)
			}
		}
		body.Shards = append(body.Shards, fleet[gi]...)
		switch {
		case rh.Healthy == len(rg.replicas):
			rh.Status = "ok"
		case rh.Healthy > 0:
			rh.Status = "partial"
		default:
			rh.Status = "down"
			body.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
		body.Ranges = append(body.Ranges, rh)
		if gi == 0 || rangeEpoch < body.Epoch {
			body.Epoch = rangeEpoch
		}
	}
	body.OldestEpoch, body.NewestEpoch = commonRing(fleet).bounds()
	if rt.cache != nil {
		body.CacheHits, body.CacheMisses, body.CacheSize = rt.cache.Stats()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
