// Package serve exposes a query.Index over an HTTP JSON API — the
// user-facing read path of the pipeline (cmd/ipscope-serve). The shape
// follows cached BGP looking-glass services: every endpoint is a point
// lookup answered from an immutable index snapshot through a bounded
// LRU response cache with single-flight filling, requests are
// access-logged as structured JSON lines, and shutdown is graceful
// (in-flight requests drain before Close returns).
//
// The server is epoch-aware: everything a request reads — the retained
// snapshots, the partition coordinates, what is rendered once per epoch
// — is one immutable value behind one atomic pointer. Publish swaps in a
// new one without dropping in-flight requests, and a request loads it
// exactly once: whatever it answers describes that one state, however
// many publishes land while it runs. Cache keys carry the snapshot epoch, every cached
// response body carries an "epoch" field, and every /v1/* lookup
// endpoint serves an epoch-derived ETag with If-None-Match → 304
// handling (healthz is exempt: its body mutates per request, so it
// carries the epoch in the body instead). A server published with no
// snapshot yet (live mode warming up) answers 503 with Retry-After
// until the first Publish.
//
// Beyond the live snapshot, the server retains a bounded window of
// recent epochs (internal/history, Config.RetainEpochs): every lookup
// endpoint accepts ?epoch=N to answer as of a retained epoch (an
// unretained epoch 404s with the retained range in the body),
// /v1/delta?from=&to= reports what changed between two retained
// epochs, and /v1/movement?last=N serves the per-epoch totals series.
// When an epoch falls out of the window, its cache entries are evicted
// eagerly — nothing can ever ask for them again.
//
// The /v1/* body and error contract itself — typed payloads, epoch
// splice, ETag derivation, path-parameter parsing — lives in the
// internal/serve/wire package, shared with the cluster router and the
// binary RPC transport so every serving path produces identical bytes.
//
// Endpoints:
//
//	GET /v1/addr/{ip}        one address's activity timeline + enrichment
//	GET /v1/block/{prefix}   one /24's rollup (FD, STU, traffic, UA, tags)
//	GET /v1/prefix/{cidr}    aggregate over a CIDR's /24 blocks
//	GET /v1/as/{asn}         one origin AS's footprint ("AS64500" or "64500")
//	GET /v1/summary          dataset identity + capture-recapture/churn summaries
//	GET /v1/delta            what changed between two retained epochs (?from=&to=)
//	GET /v1/movement         per-epoch totals series over the ring (?last=N)
//	GET /v1/healthz          liveness + epoch range + cache statistics (uncached)
//
// Every lookup endpoint above also accepts ?epoch=N time travel.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ipscope/internal/bgp"
	"ipscope/internal/history"
	"ipscope/internal/ipv4"
	"ipscope/internal/query"
	"ipscope/internal/serve/wire"
)

// DefaultCacheSize bounds the response cache when Config.CacheSize is 0.
const DefaultCacheSize = 4096

// Config tunes a Server.
type Config struct {
	// CacheSize bounds the LRU response cache; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// RetainEpochs bounds the history ring: how many recent snapshots
	// stay addressable via ?epoch=, /v1/delta and /v1/movement. 0 means
	// history.DefaultRetain (just the live epoch — the pre-history
	// memory profile).
	RetainEpochs int
	// AccessLog, when non-nil, receives one JSON line per request,
	// written asynchronously by a single consumer goroutine behind a
	// bounded queue; a record that finds the queue full is dropped and
	// counted (/v1/healthz accessLogDrops) instead of stalling the
	// request.
	AccessLog io.Writer
	// Shard, when non-nil, marks this server as one shard of a
	// block-partitioned cluster: /v1/cluster/info reports the owned
	// range and /v1/healthz carries the partition coordinates. The
	// cluster partial endpoints themselves are always registered — an
	// unsharded server is simply the one-shard cluster, which is what
	// lets the equivalence tests run a router over a single full
	// server. Live shards that learn their range from the stream's
	// meta event use SetShard instead. Under replication the Replica
	// field labels this process among the range's copies; it changes
	// nothing about what is served (replicas build bit-identical
	// indexes), only how routers report the process.
	Shard *wire.ShardInfo
}

// Server serves query.Index snapshots over HTTP.
type Server struct {
	// pub is the published state, never nil. A request loads it once, on
	// entry, and reads nothing else of the server that a publish changes.
	pub     atomic.Pointer[published]
	retain  int
	cache   *Cache
	handler http.Handler

	logger *accessLogger

	// pubMu serializes the writers of pub (Publish, SetShard,
	// SetRPCAddr): each builds the next state from the current one, and
	// the eviction of the epochs a publish displaced must not interleave
	// with another publish.
	pubMu sync.Mutex

	lis Listener
}

// published is one state of the server: the retained snapshots and the
// node's cluster identity, with what the read path would otherwise
// compute per request rendered once from them. Immutable once stored.
type published struct {
	win     history.Window  // retained epochs, the live one last; empty while warming
	shard   *wire.ShardInfo // nil on an unsharded server
	rpcAddr string

	tag  EpochTag // the live epoch's ETag (zero while warming)
	info []byte   // the /v1/cluster/info body
}

// New creates a Server over idx. A nil idx starts the server in warming
// mode: every lookup answers 503 until the first Publish.
func New(idx *query.Index, cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	s := &Server{
		cache:  NewCache(size),
		retain: cfg.RetainEpochs,
	}
	if cfg.AccessLog != nil {
		s.logger = newAccessLogger(cfg.AccessLog)
	}
	s.store(published{shard: cfg.Shard})
	if idx != nil {
		s.Publish(idx)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/addr/{ip}", s.cached(s.handleAddr))
	mux.HandleFunc("GET /v1/block/{prefix...}", s.cached(s.handleBlock))
	mux.HandleFunc("GET /v1/prefix/{cidr...}", s.cached(s.handlePrefix))
	mux.HandleFunc("GET /v1/as/{asn}", s.cached(s.handleAS))
	mux.HandleFunc("GET /v1/summary", s.cached(s.handleSummary))
	mux.HandleFunc("GET /v1/delta", s.handleDelta)
	mux.HandleFunc("GET /v1/movement", s.handleMovement)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// Cluster plane: mergeable partials for the scatter-gather router.
	mux.HandleFunc("GET /v1/cluster/info", s.handleClusterInfo)
	mux.HandleFunc("GET /v1/cluster/summary", s.cached(s.handleClusterSummary))
	mux.HandleFunc("GET /v1/cluster/as/{asn}", s.cached(s.handleClusterAS))
	mux.HandleFunc("GET /v1/cluster/prefix/{cidr...}", s.cached(s.handleClusterPrefix))
	mux.HandleFunc("GET /v1/cluster/delta", s.handleClusterDelta)
	mux.HandleFunc("GET /v1/cluster/movement", s.handleClusterMovement)
	s.handler = s.logged(mux)
	return s
}

// store renders next's derived fields and publishes it (the caller
// holds pubMu, or is New before the server is shared).
func (s *Server) store(next published) {
	if x := next.win.Latest(); x != nil {
		next.tag = NewEpochTag(x.Epoch())
	}
	ci, err := json.Marshal(next.clusterInfo())
	if err != nil {
		ci = []byte(`{"error":"encoding failed"}`)
	}
	next.info = append(ci, '\n')
	s.pub.Store(&next)
}

// SetShard publishes the server's partition coordinates after startup —
// the live-shard path, where the owned range is only known once the
// stream's meta event arrives and the partition plan can be computed.
func (s *Server) SetShard(si wire.ShardInfo) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	next := *s.pub.Load()
	next.shard = &si
	s.store(next)
}

// Shard returns the published partition coordinates, defaulting to the
// one-shard cluster covering the whole block space.
func (s *Server) Shard() wire.ShardInfo { return s.pub.Load().shardInfo() }

func (p *published) shardInfo() wire.ShardInfo {
	if p.shard != nil {
		return *p.shard
	}
	return wire.ShardInfo{Index: 0, Count: 1, Lo: 0, Hi: 1 << 24}
}

// SetRPCAddr advertises the shard's binary RPC endpoint (host:port) in
// /v1/cluster/info, letting a router running -transport=rpc upgrade its
// connection to this shard.
func (s *Server) SetRPCAddr(addr string) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	next := *s.pub.Load()
	next.rpcAddr = addr
	s.store(next)
}

// RPCAddr returns the advertised RPC endpoint ("" when RPC is not
// enabled on this shard).
func (s *Server) RPCAddr() string { return s.pub.Load().rpcAddr }

// Publish atomically swaps in a new index snapshot, retained in the
// history window. In-flight requests keep the state they loaded; new
// requests (and their cache keys) use the new epoch immediately. Epochs
// the window drops take their cache entries with them — nothing can
// address an unretained epoch, so its responses are dead weight. The
// epoch's /v1/summary body is rendered here and seeded straight into the
// response cache, so even the first summary request after a swap is a
// zero-allocation cache hit — and an ?epoch= time-travel request later
// reuses the very same entry.
func (s *Server) Publish(idx *query.Index) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	next := *s.pub.Load()
	var evicted []uint64
	next.win, evicted = next.win.Add(idx, s.retain)
	s.store(next)
	for _, epoch := range evicted {
		s.cache.EvictEpoch(epoch)
	}
	var kb [24]byte
	status, body := wire.Encode(http.StatusOK, idx.Summary(), idx.Epoch())
	s.cache.Put(string(appendCacheKey(kb[:0], idx.Epoch(), "/v1/summary")), Response{Status: status, Body: body})
}

// Index returns the currently published snapshot (nil while warming).
func (s *Server) Index() *query.Index { return s.pub.Load().win.Latest() }

// Window returns the published retained snapshots (empty while
// warming). The binary RPC server answers from it, one load per request
// like the handlers here, so both transports answer time-travel, delta
// and movement queries from identical inputs.
func (s *Server) Window() history.Window { return s.pub.Load().win }

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// CacheStats reports the response cache counters.
func (s *Server) CacheStats() (hits, misses uint64, size int) {
	return s.cache.Stats()
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port) and serves in
// the background until Shutdown.
func (s *Server) Listen(addr string) (net.Addr, error) {
	return s.lis.Listen(addr, s.handler)
}

// Shutdown stops accepting new requests and waits for in-flight ones to
// drain (bounded by ctx), then writes out and closes the access log. It
// returns the first serve error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.lis.Shutdown(ctx)
	if s.logger != nil {
		s.logger.Close()
	}
	return err
}

// live loads the published state for one request, answering the
// canonical 503 itself while no snapshot is published yet.
func (s *Server) live(w http.ResponseWriter) *published {
	p := s.pub.Load()
	if p.win.Len() == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(wire.WarmingBody())
		return nil
	}
	return p
}

// refuse answers a request p could not resolve: the 404 naming the
// window an epoch is not retained in (no epoch splice), else a 400
// stamped with the live epoch.
func (p *published) refuse(w http.ResponseWriter, err error) {
	var status int
	var body []byte
	var nr *wire.NotRetainedError
	if errors.As(err, &nr) {
		status, body = http.StatusNotFound, wire.NotRetainedBody(nr.Asked, nr.Oldest, nr.Newest)
	} else {
		status, body = wire.Encode(http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}, p.tag.Epoch)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// asOf returns the snapshot r reads and its ETag: the live one, or the
// retained one ?epoch=N names — whose epoch-keyed cache entries are the
// very ones cached back when that epoch was current, so a time-travel
// response is byte-identical to the live response it once was. The live
// epoch's ETag was rendered at publish time; only a time-travel request
// pays the format call, and the RawQuery guard keeps url.Values parsing
// (and its allocations) off the no-query fast path entirely.
func (p *published) asOf(r *http.Request) (*query.Index, EpochTag, error) {
	if r.URL.RawQuery == "" {
		return p.win.Latest(), p.tag, nil
	}
	raw := r.URL.Query().Get("epoch")
	if raw == "" {
		return p.win.Latest(), p.tag, nil
	}
	e, err := wire.ParseEpoch(raw)
	if err != nil {
		return nil, EpochTag{}, err
	}
	x, err := p.win.Get(e)
	if err != nil {
		return nil, EpochTag{}, err
	}
	if e == p.tag.Epoch {
		return x, p.tag, nil
	}
	return x, NewEpochTag(e), nil
}

// cached wraps a pure lookup in the LRU + single-flight cache, keyed by
// (snapshot epoch, canonical request path): a Publish strands every
// old-epoch entry without touching in-flight fills. The handler runs
// against the state loaded at entry and honours If-None-Match with the
// epoch ETag.
func (s *Server) cached(fn func(x *query.Index, r *http.Request) (int, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p := s.live(w)
		if p == nil {
			return
		}
		x, tag, err := p.asOf(r)
		if err != nil {
			p.refuse(w, err)
			return
		}
		epoch := tag.Epoch
		s.cache.Serve(w, r, tag, func() (Response, bool) {
			status, payload := fn(x, r)
			status, body := wire.Encode(status, payload, epoch)
			return Response{Status: status, Body: body}, true
		})
	}
}

// deltaSpan resolves a delta request's ?from=&to= against p's window,
// answering the 400 or 404 itself.
func (p *published) deltaSpan(w http.ResponseWriter, r *http.Request) (fx, tx *query.Index, ok bool) {
	q := r.URL.Query()
	from, to, err := wire.ParseDeltaSpan(q.Get("from"), q.Get("to"))
	if err == nil {
		fx, tx, err = p.win.Span(from, to)
	}
	if err != nil {
		p.refuse(w, err)
		return nil, nil, false
	}
	return fx, tx, true
}

// handleDelta answers /v1/delta?from=E&to=E: what changed between two
// retained epochs. The body is immutable while both epochs stay
// retained, so it caches under the from epoch (from < to means from
// falls out of the window first and takes the entry with it) and the
// ETag tracks the to epoch.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	p := s.live(w)
	if p == nil {
		return
	}
	fx, tx, ok := p.deltaSpan(w, r)
	if !ok {
		return
	}
	etag := wire.ETagFor(tx.Epoch())
	w.Header().Set("ETag", etag)
	if wire.NotModified(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	key := fmt.Sprintf("%d:/v1/delta:%d", fx.Epoch(), tx.Epoch())
	resp, hit := s.cache.Do(key, func() (Response, bool) {
		v, err := tx.Delta(fx, query.DefaultDeltaBlockList)
		if err != nil {
			status, body := wire.Encode(http.StatusBadRequest,
				wire.ErrorBody{Error: err.Error()}, tx.Epoch())
			return Response{Status: status, Body: body}, true
		}
		status, body := wire.Encode(http.StatusOK, v, tx.Epoch())
		return Response{Status: status, Body: body}, true
	})
	Write(w, resp, hit)
}

// last parses a movement request's optional ?last=N (0 = the whole
// window), answering the 400 itself.
func (p *published) last(w http.ResponseWriter, r *http.Request) (last int, ok bool) {
	last, err := wire.ParseLast(r.URL.Query().Get("last"))
	if err != nil {
		p.refuse(w, err)
		return 0, false
	}
	return last, true
}

// handleMovement answers /v1/movement?last=N: the per-epoch totals
// series over the retained window. The body is a pure function of
// (window, last), so it caches under the window's oldest epoch — any
// eviction that could change the series also drops the entry — and its
// epoch stamp, its newestEpoch and its ETag are all the live epoch of
// the one state the request loaded.
func (s *Server) handleMovement(w http.ResponseWriter, r *http.Request) {
	p := s.live(w)
	if p == nil {
		return
	}
	last, ok := p.last(w, r)
	if !ok {
		return
	}
	w.Header().Set("ETag", p.tag.ETag)
	if wire.NotModified(r, p.tag.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	oldest, newest, _ := p.win.Range()
	key := fmt.Sprintf("%d:/v1/movement:%d:%d", oldest, newest, last)
	resp, hit := s.cache.Do(key, func() (Response, bool) {
		v, err := query.MergeMovementPartials([]query.MovementPartial{p.win.Movement(last)})
		if err != nil {
			status, body := wire.Encode(http.StatusInternalServerError,
				wire.ErrorBody{Error: err.Error()}, newest)
			return Response{Status: status, Body: body}, true
		}
		status, body := wire.Encode(http.StatusOK, v, newest)
		return Response{Status: status, Body: body}, true
	})
	Write(w, resp, hit)
}

// handleClusterDelta serves this shard's mergeable delta partial plus
// its retained range, which the router folds into the cluster-wide
// common range. Uncached: the range in the body moves with every
// publish even while the span itself stays retained.
func (s *Server) handleClusterDelta(w http.ResponseWriter, r *http.Request) {
	p := s.live(w)
	if p == nil {
		return
	}
	fx, tx, ok := p.deltaSpan(w, r)
	if !ok {
		return
	}
	dp, err := tx.DeltaPartial(fx, query.DefaultDeltaBlockList)
	if err != nil {
		wire.Respond(w, r, http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}, tx.Epoch())
		return
	}
	oldest, newest, _ := p.win.Range()
	wire.Respond(w, r, http.StatusOK,
		query.DeltaShardResponse{DeltaPartial: dp, RingOldest: oldest, RingNewest: newest}, tx.Epoch())
}

// handleClusterMovement serves this shard's mergeable movement partial
// plus its retained range. Uncached for the same reason as
// handleClusterDelta.
func (s *Server) handleClusterMovement(w http.ResponseWriter, r *http.Request) {
	p := s.live(w)
	if p == nil {
		return
	}
	last, ok := p.last(w, r)
	if !ok {
		return
	}
	oldest, newest, _ := p.win.Range()
	wire.Respond(w, r, http.StatusOK,
		query.MovementShardResponse{MovementPartial: p.win.Movement(last), RingOldest: oldest, RingNewest: newest}, newest)
}

func (s *Server) handleAddr(x *query.Index, r *http.Request) (int, any) {
	a, err := ipv4.ParseAddr(r.PathValue("ip"))
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	return http.StatusOK, x.Addr(a)
}

func (s *Server) handleBlock(x *query.Index, r *http.Request) (int, any) {
	blk, err := wire.Parse24(r.PathValue("prefix"))
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	v, ok := x.Block(blk)
	if !ok {
		return http.StatusNotFound, wire.ErrorBody{Error: wire.ErrBlockNotFound(blk)}
	}
	return http.StatusOK, v
}

func (s *Server) handlePrefix(x *query.Index, r *http.Request) (int, any) {
	p, err := ipv4.ParsePrefix(r.PathValue("cidr"))
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	v, err := x.Prefix(p, wire.DefaultPrefixBlockList)
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	return http.StatusOK, v
}

func (s *Server) handleAS(x *query.Index, r *http.Request) (int, any) {
	n, err := wire.ParseASN(r.PathValue("asn"))
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	v, ok := x.AS(bgp.ASN(n))
	if !ok {
		return http.StatusNotFound, wire.ErrorBody{Error: wire.ErrASNotFound(n)}
	}
	return http.StatusOK, v
}

func (s *Server) handleSummary(x *query.Index, r *http.Request) (int, any) {
	return http.StatusOK, x.Summary()
}

// handleClusterSummary serves this shard's mergeable share of the
// dataset summary.
func (s *Server) handleClusterSummary(x *query.Index, r *http.Request) (int, any) {
	return http.StatusOK, x.SummaryPartial()
}

// handleClusterAS serves this shard's mergeable share of an AS
// footprint. Unknown ASNs answer 200 with found=false — absence on one
// shard is not absence in the cluster, so the 404 decision belongs to
// the router after the gather.
func (s *Server) handleClusterAS(x *query.Index, r *http.Request) (int, any) {
	n, err := wire.ParseASN(r.PathValue("asn"))
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	return http.StatusOK, x.ASPartial(bgp.ASN(n))
}

// handleClusterPrefix serves this shard's mergeable share of a CIDR
// aggregate (over the blocks of the prefix this shard owns).
func (s *Server) handleClusterPrefix(x *query.Index, r *http.Request) (int, any) {
	p, err := ipv4.ParsePrefix(r.PathValue("cidr"))
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	v, err := x.PrefixPartial(p, wire.DefaultPrefixBlockList)
	if err != nil {
		return http.StatusBadRequest, wire.ErrorBody{Error: err.Error()}
	}
	return http.StatusOK, v
}

// ClusterInfo returns the /v1/cluster/info body of the current state.
func (s *Server) ClusterInfo() wire.ClusterInfo { return s.pub.Load().clusterInfo() }

func (p *published) clusterInfo() wire.ClusterInfo {
	body := wire.ClusterInfo{Status: "warming", ShardInfo: p.shardInfo(), RPCAddr: p.rpcAddr}
	if x := p.win.Latest(); x != nil {
		body.Status = "ok"
		body.Epoch = x.Epoch()
		body.Blocks = x.NumBlocks()
		if blocks := x.Blocks(); len(blocks) > 0 {
			body.FirstActive = blocks[0].String()
		}
	}
	body.OldestEpoch, body.NewestEpoch, _ = p.win.Range()
	return body
}

// handleClusterInfo answers even while warming (epoch 0), so a router
// can learn the partition before the first publish. The body is rendered
// whenever the state changes, never per request.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = hdrJSON
	w.Write(s.pub.Load().info)
}

// Health assembles the /v1/healthz body — epoch, retained range and
// partition from one published state, beside the cache counters — shared
// with the binary RPC server's Health frames.
func (s *Server) Health() wire.Health {
	p := s.pub.Load()
	hits, misses, size := s.cache.Stats()
	body := wire.Health{
		Status:      "warming",
		CacheHits:   hits,
		CacheMisses: misses,
		CacheSize:   size,
		Partition:   p.shard,
	}
	if s.logger != nil {
		body.AccessLogDrops = s.logger.Drops()
	}
	if x := p.win.Latest(); x != nil {
		body.Status = "ok"
		body.Epoch = x.Epoch()
		body.Blocks = x.NumBlocks()
		body.DailyLen = x.DailyLen()
	}
	body.OldestEpoch, body.NewestEpoch, _ = p.win.Range()
	return body
}

// handleHealthz reports liveness, the current epoch and cache counters.
// Unlike the lookup endpoints it serves no ETag and no 304: its body
// mutates on every request (cache statistics), so an epoch validator
// would freeze different representations under one tag — pollers read
// the epoch from the body instead.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Health())
}

// statusWriter captures the status code and byte count of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// logged wraps next with structured JSON access logging. The request
// goroutine only records the completion and enqueues it; formatting,
// encoding and the writer syscall all happen on the logger's consumer
// goroutine, so logging adds no lock and no marshal to the hot path.
func (s *Server) logged(next http.Handler) http.Handler {
	if s.logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.logger.log(logEvent{
			start:  start,
			dur:    time.Since(start),
			method: r.Method,
			path:   r.URL.Path,
			status: sw.status,
			bytes:  sw.bytes,
			cache:  sw.Header().Get("X-Cache"),
		})
	})
}

// FlushAccessLog blocks until every access-log record enqueued before
// the call has been written to the configured writer (a no-op without
// an access log, and after Shutdown, which has written them all).
func (s *Server) FlushAccessLog() {
	if s.logger != nil {
		s.logger.Flush()
	}
}

// AccessLogDrops reports how many access-log records the bounded queue
// discarded under overload (0 without an access log).
func (s *Server) AccessLogDrops() uint64 {
	if s.logger != nil {
		return s.logger.Drops()
	}
	return 0
}
