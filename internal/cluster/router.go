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
	// HTTPClient performs shard HTTP requests (discovery always, data
	// traffic on the HTTP transport); nil means a client tuned for
	// persistent shard connections (see newShardHTTPClient).
	HTTPClient *http.Client
	// Transport selects the shard data transport: TransportHTTP
	// (default) or TransportRPC.
	Transport string
	// Gather bounds the fan-out concurrency of scatter-gather
	// endpoints; <= 0 means DefaultGather.
	Gather int
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
	// FailBackoff is the re-admission backoff after a replica's first
	// consecutive failure, doubling per further failure up to
	// MaxBackoff; <= 0 means DefaultFailBackoff.
	FailBackoff time.Duration
	// MaxBackoff caps the exponential re-admission backoff; <= 0 means
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// DefaultGather bounds scatter-gather concurrency when unset.
const DefaultGather = 8

// DefaultInfoTimeout bounds the startup partition discovery.
const DefaultInfoTimeout = 30 * time.Second

// DefaultProbeInterval is the background health probe cadence.
const DefaultProbeInterval = time.Second

// DefaultFailBackoff is the initial re-admission backoff after a
// replica failure.
const DefaultFailBackoff = 250 * time.Millisecond

// DefaultMaxBackoff caps the exponential re-admission backoff.
const DefaultMaxBackoff = 10 * time.Second

// newShardHTTPClient builds the default client for router→shard HTTP
// traffic. The zero-value http.Transport keeps only 2 idle connections
// per host (DefaultMaxIdleConnsPerHost), so a gather=8 fan-out or a
// point-lookup burst re-dials the same shard on nearly every request;
// a router talks to a small, fixed fleet and should keep every
// connection warm.
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
	gather   int

	probeInterval time.Duration
	failBackoff   time.Duration
	maxBackoff    time.Duration

	handler http.Handler

	// cache is nil on a router without a background prober. tag memoizes
	// the pre-rendered ETag of the epoch last served; evicted is the
	// minEpoch below which the cache has already been emptied.
	cache   *serve.Cache
	tag     atomic.Pointer[serve.EpochTag]
	evicted atomic.Uint64

	closeOnce sync.Once
	stopProbe chan struct{}

	srvMu   sync.Mutex
	httpSrv *http.Server
	serveCh chan error
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
// serving, and the failover health state machine.
//
// The state machine has three tiers, computed against the clock:
// healthy (not marked down), due (down, backoff expired — worth a
// retry), and backing off (down, too soon). Requests and probes feed
// it: a transport failure marks the replica down and doubles its
// backoff; a healthy answer (any deterministic status — the process
// proved itself) resets it. A warming 503 does neither: the process
// is up and will publish on its own, but cannot answer data yet.
type replicaState struct {
	base       string
	info       wire.ShardInfo
	replicaHdr []string // pre-built X-Replica header value
	client     Client
	epoch      atomic.Uint64

	mu      sync.Mutex
	down    bool
	fails   int
	retryAt time.Time
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

// Health tiers, ordered by routing preference.
const (
	tierHealthy = iota // not marked down
	tierDue            // down, backoff expired — candidate for re-admission
	tierBackoff        // down, still backing off — last resort only
)

func (rp *replicaState) tier(now time.Time) int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	switch {
	case !rp.down:
		return tierHealthy
	case !now.Before(rp.retryAt):
		return tierDue
	default:
		return tierBackoff
	}
}

// markDown records a transport-level failure: the replica enters (or
// stays in) the down state with an exponentially growing re-admission
// backoff.
func (rp *replicaState) markDown(base, max time.Duration) {
	now := time.Now()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.down = true
	if rp.fails < 32 {
		rp.fails++
	}
	backoff := base << (rp.fails - 1)
	if backoff <= 0 || backoff > max {
		backoff = max
	}
	rp.retryAt = now.Add(backoff)
}

// markUp resets the health state after any successful answer.
func (rp *replicaState) markUp() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.down = false
	rp.fails = 0
	rp.retryAt = time.Time{}
}

// pick orders the range's replicas for one request: healthy replicas
// first (rotated round-robin so load spreads), then down replicas
// whose backoff expired, then — as a last resort — replicas still
// backing off. The last tier is what preserves R=1 semantics: a
// range's sole dead replica is still attempted on every request (a
// fast connection-refused produces the degraded 503, and a restarted
// process is re-admitted by the very next request), exactly as before
// replication.
func (g *rangeGroup) pick(now time.Time) []*replicaState {
	if len(g.replicas) == 1 {
		return g.replicas
	}
	var up, due, rest []*replicaState
	for _, rp := range g.replicas {
		switch rp.tier(now) {
		case tierHealthy:
			up = append(up, rp)
		case tierDue:
			due = append(due, rp)
		default:
			rest = append(rest, rp)
		}
	}
	if len(up) > 1 {
		rot := int(g.next.Add(1)-1) % len(up)
		rotated := make([]*replicaState, 0, len(up))
		rotated = append(rotated, up[rot:]...)
		rotated = append(rotated, up[:rot]...)
		up = rotated
	}
	order := up
	order = append(order, due...)
	order = append(order, rest...)
	return order
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
	hc := opts.HTTPClient
	if hc == nil {
		hc = newShardHTTPClient()
	}
	transport := opts.Transport
	if transport == "" {
		transport = TransportHTTP
	}
	if transport != TransportHTTP && transport != TransportRPC {
		return nil, fmt.Errorf("cluster: unknown transport %q", transport)
	}
	gather := opts.Gather
	if gather <= 0 {
		gather = DefaultGather
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
	failBackoff := opts.FailBackoff
	if failBackoff <= 0 {
		failBackoff = DefaultFailBackoff
	}
	maxBackoff := opts.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultMaxBackoff
	}

	rt := &Router{
		replicas:      replicas,
		gather:        gather,
		probeInterval: probeInterval,
		failBackoff:   failBackoff,
		maxBackoff:    maxBackoff,
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
		g := g
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

// Close stops the background prober and releases every replica
// client's persistent connections. It does not stop a Listen-ing
// server — use Shutdown for that.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stopProbe) })
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rt.srvMu.Lock()
	rt.httpSrv = &http.Server{Handler: rt.handler}
	rt.serveCh = make(chan error, 1)
	srv, ch := rt.httpSrv, rt.serveCh
	rt.srvMu.Unlock()
	go func() {
		err := srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		ch <- err
	}()
	return ln.Addr(), nil
}

// Shutdown stops accepting new requests and drains in-flight ones.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.srvMu.Lock()
	srv, ch := rt.httpSrv, rt.serveCh
	rt.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-ch
}

// markDown applies the router's backoff tuning to a replica failure.
func (rt *Router) markDown(rp *replicaState) {
	rp.markDown(rt.failBackoff, rt.maxBackoff)
}

// probeLoop is the background health prober: every ProbeInterval it
// probes healthy replicas (catching silent death before a request
// does) and down replicas whose backoff expired (re-admitting them
// without waiting for traffic). Replicas still backing off are left
// alone — that is the point of the backoff.
func (rt *Router) probeLoop() {
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
	now := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), rt.probeInterval)
	defer cancel()
	var g par.Group
	g.SetLimit(rt.gather)
	for _, rg := range rt.ranges {
		for _, rp := range rg.replicas {
			rp := rp
			if rp.tier(now) == tierBackoff {
				continue
			}
			g.Go(func() error {
				status, epoch, _, _, err := rp.client.Health(ctx)
				switch {
				case err != nil:
					rt.markDown(rp)
				case status == "ok":
					rp.markUp()
					rt.observe(rp, epoch)
				}
				// Any other status (warming): alive but not servable;
				// leave the state machine untouched.
				return nil
			})
		}
	}
	g.Wait() //nolint:errcheck // probe outcomes land in the state machine
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
	raw := r.URL.Query().Get("epoch")
	if raw == "" {
		return 0, true
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		rt.respondErr(w, r, http.StatusBadRequest, wire.ErrInvalidEpoch(raw))
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

// foldCommonRange folds per-range retained ranges into the
// cluster-wide common range: max of oldests, min of newests — the
// epochs every range can still answer. A range retaining nothing
// (newest 0) collapses the range to empty (0, 0).
func foldCommonRange(oldests, newests []uint64) (oldest, newest uint64) {
	for i := range oldests {
		if oldests[i] > oldest {
			oldest = oldests[i]
		}
		if i == 0 || newests[i] < newest {
			newest = newests[i]
		}
	}
	if newest == 0 || oldest > newest {
		return 0, 0
	}
	return oldest, newest
}

// commonRange live-probes the fleet's retained ranges and folds the
// cluster-wide common range. Within a range the answering replicas'
// rings are intersected (a routed as-of query may land on any of
// them); across ranges foldCommonRange applies. Used on the rare
// aggregate not-retained path, where the failing gather only learned
// one range's ring.
func (rt *Router) commonRange(ctx context.Context) (oldest, newest uint64) {
	oldests := make([]uint64, len(rt.ranges))
	newests := make([]uint64, len(rt.ranges))
	var g par.Group
	g.SetLimit(rt.gather)
	for i, rg := range rt.ranges {
		i, rg := i, rg
		g.Go(func() error {
			var ro, rn uint64
			seen := false
			for _, rp := range rg.replicas {
				_, _, o, n, err := rp.client.Health(ctx)
				if err != nil {
					continue
				}
				if !seen {
					ro, rn, seen = o, n, true
					continue
				}
				if o > ro {
					ro = o
				}
				if n < rn {
					rn = n
				}
			}
			oldests[i], newests[i] = ro, rn
			return nil
		})
	}
	g.Wait() //nolint:errcheck // unreachable replicas keep their zero range
	return foldCommonRange(oldests, newests)
}

// notRetainedReply answers a fan-out that hit an unretained epoch with
// the common-range 404.
func (rt *Router) notRetainedReply(ctx context.Context, asked uint64) reply {
	oldest, newest := rt.commonRange(ctx)
	return reply{Response: serve.Response{Status: http.StatusNotFound, Body: wire.NotRetainedBody(asked, oldest, newest)}}
}

// point answers a point lookup with an owning replica's response —
// body, epoch stamp and ETag are the replica's, and the reply names it
// for X-Replica. Replicas are tried in pick() order: an unreachable one
// is marked down and the next tried (any replica's bytes are exact —
// builds are deterministic); a warming one is remembered and its 503
// relayed only if no sibling can do better. Only when every replica of
// the range is unreachable does the lookup 503 on the unavailable path.
func (rt *Router) point(r *http.Request, rg *rangeGroup, pr PointRequest) reply {
	pr.URI = r.URL.RequestURI()
	pr.IfNoneMatch = r.Header.Get("If-None-Match")
	relayed := func(resp PointResponse, rp *replicaState) reply {
		return reply{
			Response:   serve.Response{Status: resp.Status, Body: resp.Body},
			tagged:     resp.ETag != "",
			epoch:      resp.Epoch,
			retryAfter: resp.RetryAfter,
			replica:    rp,
		}
	}
	var lastErr error
	var warming *PointResponse
	var warmingFrom *replicaState
	for _, rp := range rg.pick(time.Now()) {
		resp, err := rp.client.Point(r.Context(), pr)
		if err != nil {
			lastErr = err
			if isUnavailable(err) {
				rt.markDown(rp)
				continue
			}
			return rt.errReply(http.StatusServiceUnavailable, err.Error())
		}
		if resp.Status == http.StatusServiceUnavailable {
			// Warming: the process is alive but has no snapshot yet. A
			// sibling replica may have one — keep looking, and keep the
			// response in case none does.
			if warming == nil {
				warming, warmingFrom = &resp, rp
			}
			continue
		}
		rp.markUp()
		if resp.ETag != "" {
			rt.observe(rp, resp.Epoch)
		}
		return relayed(resp, rp)
	}
	if warming != nil {
		return relayed(*warming, warmingFrom)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard %d unavailable", rg.shard)
	}
	return rt.errReply(http.StatusServiceUnavailable, lastErr.Error())
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

// fetchRange performs one range's share of a gather, failing over
// across the range's replicas in pick() order. Transport failures
// mark the replica down and move on; warming 503s move on without a
// health mark; any deterministic answer — success, a parse 400, the
// typed not-retained 404 — is returned immediately, because every
// replica of the range would answer it identically. Only when no
// replica produced a deterministic answer does the last failover
// error surface.
func fetchRange[T any](rt *Router, ctx context.Context, rg *rangeGroup,
	fetch func(context.Context, Client) (T, uint64, error)) (T, uint64, error) {
	var zero T
	var lastErr error
	for _, rp := range rg.pick(time.Now()) {
		v, epoch, err := fetch(ctx, rp.client)
		if err != nil {
			if isUnavailable(err) {
				rt.markDown(rp)
				lastErr = err
				continue
			}
			if isWarming(err) {
				lastErr = err
				continue
			}
			rp.markUp()
			return zero, 0, err
		}
		rp.markUp()
		rt.observe(rp, epoch)
		return v, epoch, nil
	}
	return zero, 0, lastErr
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
	g.SetLimit(rt.gather)
	for i, rg := range ranges {
		i, rg := i, rg
		g.Go(func() error {
			v, epoch, err := fetchRange(rt, ctx, rg, fetch)
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
	fromRaw, toRaw := q.Get("from"), q.Get("to")
	from, errFrom := strconv.ParseUint(fromRaw, 10, 64)
	to, errTo := strconv.ParseUint(toRaw, 10, 64)
	if errFrom != nil || errTo != nil || from >= to {
		rt.respondErr(w, r, http.StatusBadRequest, wire.ErrDeltaParams(fromRaw, toRaw))
		return
	}
	type deltaShare struct {
		p              query.DeltaPartial
		oldest, newest uint64
	}
	parts := make([]query.DeltaPartial, len(rt.ranges))
	oldests := make([]uint64, len(rt.ranges))
	newests := make([]uint64, len(rt.ranges))
	missing := false
	var mu sync.Mutex
	var g par.Group
	g.SetLimit(rt.gather)
	for i, rg := range rt.ranges {
		i, rg := i, rg
		g.Go(func() error {
			v, _, err := fetchRange(rt, r.Context(), rg,
				func(ctx context.Context, c Client) (deltaShare, uint64, error) {
					p, oldest, newest, err := c.Delta(ctx, from, to)
					return deltaShare{p: p, oldest: oldest, newest: newest}, 0, err
				})
			if err != nil {
				var nr *wire.NotRetainedError
				if !errors.As(err, &nr) {
					return err
				}
				oldests[i], newests[i] = nr.Oldest, nr.Newest
				mu.Lock()
				missing = true
				mu.Unlock()
				return nil
			}
			parts[i], oldests[i], newests[i] = v.p, v.oldest, v.newest
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		rt.respondErr(w, r, http.StatusServiceUnavailable, err.Error())
		return
	}
	if missing {
		oldest, newest := foldCommonRange(oldests, newests)
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
	last := 0
	if raw := r.URL.Query().Get("last"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			rt.respondErr(w, r, http.StatusBadRequest, wire.ErrInvalidLast(raw))
			return
		}
		last = n
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
	type slot struct {
		rg *rangeGroup
		rp *replicaState
	}
	var flat []slot
	for _, rg := range rt.ranges {
		for _, rp := range rg.replicas {
			flat = append(flat, slot{rg: rg, rp: rp})
		}
	}
	states := make([]wire.RouterShardHealth, len(flat))
	var g par.Group
	g.SetLimit(rt.gather)
	for i, s := range flat {
		i, s := i, s
		g.Go(func() error {
			st := wire.RouterShardHealth{
				Shard:     s.rg.shard,
				Replica:   s.rp.info.Replica,
				URL:       s.rp.base,
				Transport: s.rp.client.Transport(),
			}
			status, epoch, oldest, newest, err := s.rp.client.Health(r.Context())
			if err != nil {
				st.Status, st.Error = "unreachable", err.Error()
				rt.markDown(s.rp)
			} else {
				st.Status, st.Epoch = status, epoch
				st.OldestEpoch, st.NewestEpoch = oldest, newest
				if status == "ok" {
					s.rp.markUp()
					rt.observe(s.rp, epoch)
				}
			}
			states[i] = st
			return nil
		})
	}
	g.Wait() //nolint:errcheck // probe outcomes land in states

	body := wire.RouterHealth{Status: "ok", Shards: states}
	status := http.StatusOK
	oldests := make([]uint64, len(rt.ranges))
	newests := make([]uint64, len(rt.ranges))
	ranges := make([]wire.RouterRangeHealth, len(rt.ranges))
	flatIdx := 0
	for gi, rg := range rt.ranges {
		rh := wire.RouterRangeHealth{Shard: rg.shard, Lo: rg.lo, Hi: rg.hi, Replicas: len(rg.replicas)}
		var rangeEpoch uint64
		seen := false
		for range rg.replicas {
			st := states[flatIdx]
			flatIdx++
			if st.Status != "ok" {
				continue
			}
			rh.Healthy++
			if st.Epoch > rangeEpoch {
				rangeEpoch = st.Epoch
			}
			if !seen {
				oldests[gi], newests[gi], seen = st.OldestEpoch, st.NewestEpoch, true
				continue
			}
			if st.OldestEpoch > oldests[gi] {
				oldests[gi] = st.OldestEpoch
			}
			if st.NewestEpoch < newests[gi] {
				newests[gi] = st.NewestEpoch
			}
		}
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
		ranges[gi] = rh
		if gi == 0 || rangeEpoch < body.Epoch {
			body.Epoch = rangeEpoch
		}
	}
	body.Ranges = ranges
	body.OldestEpoch, body.NewestEpoch = foldCommonRange(oldests, newests)
	if rt.cache != nil {
		body.CacheHits, body.CacheMisses, body.CacheSize = rt.cache.Stats()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
