package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"ipscope/internal/serve/wire"
)

// Response is one cached HTTP response body with its status code.
type Response struct {
	Status int
	Body   []byte
}

// Cache is a bounded LRU response cache with single-flight filling:
// concurrent requests for the same key share one computation instead of
// racing to fill the same entry (the failure mode of glass's
// check-then-update cache under a thundering herd). The index it fronts
// is immutable, so entries never expire — eviction is purely capacity
// driven.
//
// The cache is lock-striped: the key hashes to one of a power-of-two
// number of shards sized from GOMAXPROCS, each with its own mutex, LRU
// list and single-flight table, so parallel readers on different keys
// never contend on one global lock. Within a shard the LRU is an
// intrusive array: entries live in a slab indexed by int32 prev/next
// links (no container/list, no per-entry heap node), and every entry
// whose key carries an "E:" epoch prefix is additionally threaded onto
// a per-epoch list so EvictEpoch walks exactly the entries it removes
// instead of scanning the whole map. Small capacities collapse to a
// single shard, preserving exact global LRU order.
type Cache struct {
	shards   []cacheShard
	mask     uint64
	disabled bool
}

// minShardCap is the smallest per-shard capacity worth striping for:
// below it the shards thrash their tiny LRUs and exact eviction order
// matters more than lock spreading, so the cache collapses to 1 shard.
const minShardCap = 128

// maxShards bounds the stripe count however many cores the host has.
const maxShards = 64

type cacheShard struct {
	mu       sync.Mutex
	cap      int
	entries  []cacheEntry
	free     int32 // free-slot list head (-1 = none), linked via next
	lruHead  int32 // most recently used (-1 = empty)
	lruTail  int32 // least recently used
	items    map[string]int32
	inflight map[string]*flight
	epochs   map[uint64]int32 // epoch → head of its entry list

	hits      uint64
	misses    uint64
	evictWork uint64 // entries touched by EvictEpoch (cost regression pin)
}

// cacheEntry is one slab slot. prev/next thread the LRU order;
// eprev/enext thread the per-epoch eviction list when hasEpoch is set.
type cacheEntry struct {
	key          string
	resp         Response
	epoch        uint64
	hasEpoch     bool
	prev, next   int32
	eprev, enext int32
}

// flight is one in-progress fill. shared is set before done closes:
// whether waiters may take resp (a stored answer, or the 500 of a
// panicked fill) or must compute their own.
type flight struct {
	done   chan struct{}
	resp   Response
	shared bool
}

// shardCount picks the stripe count for a capacity: a power of two near
// GOMAXPROCS, shrunk until every shard holds at least minShardCap
// entries (1 shard below that — exact LRU semantics at tiny sizes).
func shardCount(capacity int) int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < maxShards {
		s <<= 1
	}
	for s > 1 && capacity/s < minShardCap {
		s >>= 1
	}
	return s
}

// NewCache returns a cache holding at most capacity responses.
// capacity <= 0 disables caching (every Do computes).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return &Cache{disabled: true}
	}
	n := shardCount(capacity)
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = base
		if i < extra {
			sh.cap++
		}
		sh.free = -1
		sh.lruHead = -1
		sh.lruTail = -1
		sh.items = make(map[string]int32)
		sh.inflight = make(map[string]*flight)
		sh.epochs = make(map[uint64]int32)
	}
	return c
}

// fnv-1a over the key bytes, inlined so the hit path allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashBytes(key []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

func hashString(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// keyEpoch parses the "E:" epoch prefix the serving layer keys cached
// responses under. Keys without the prefix are simply not epoch-indexed
// (EvictEpoch can never match them, exactly as the old prefix scan).
func keyEpoch(key string) (uint64, bool) {
	var e uint64
	i := 0
	for i < len(key) && key[i] >= '0' && key[i] <= '9' {
		e = e*10 + uint64(key[i]-'0')
		i++
	}
	if i == 0 || i >= len(key) || key[i] != ':' {
		return 0, false
	}
	return e, true
}

// Stats reports cumulative cache behaviour. A single-flight wait counts
// as a hit: the caller got the response without computing it.
func (c *Cache) Stats() (hits, misses uint64, size int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		size += len(sh.items)
		sh.mu.Unlock()
	}
	return hits, misses, size
}

// evictWorkTotal reports how many entries EvictEpoch has ever touched —
// the regression pin that eviction cost is proportional to the entries
// evicted, not the cache size.
func (c *Cache) evictWorkTotal() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.evictWork
		sh.mu.Unlock()
	}
	return n
}

// EvictEpoch removes every cached entry keyed under epoch (the "E:"
// key prefix the serving layer uses) and returns how many it dropped.
// Called when an epoch falls out of the retained history ring: its
// entries can never be asked for again, so leaving them to age out of
// the LRU would hold dead response bodies at the expense of live ones.
// Each shard walks its per-epoch list, so the cost is O(entries
// evicted), not O(cache size).
func (c *Cache) EvictEpoch(epoch uint64) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for idx, ok := sh.epochs[epoch]; ok && idx >= 0; idx, ok = sh.epochs[epoch] {
			sh.evictWork++
			sh.remove(idx)
			n++
		}
		delete(sh.epochs, epoch)
		sh.mu.Unlock()
	}
	return n
}

// Get returns the cached response for key without ever allocating: the
// []byte key is looked up directly (no string conversion on a hit) and
// the LRU touch is three index writes. It does not join in-flight
// fills — a caller that misses proceeds to Do, which re-checks under
// the same lock.
func (c *Cache) Get(key []byte) (Response, bool) {
	if c.disabled {
		return Response{}, false
	}
	sh := &c.shards[0]
	if c.mask != 0 { // single-shard caches skip the stripe hash entirely
		sh = &c.shards[hashBytes(key)&c.mask]
	}
	sh.mu.Lock()
	if idx, ok := sh.items[string(key)]; ok {
		sh.touch(idx)
		sh.hits++
		resp := sh.entries[idx].resp
		sh.mu.Unlock()
		return resp, true
	}
	sh.mu.Unlock()
	return Response{}, false
}

// Put inserts a precomputed response (the publish-time hot-body seed),
// counting neither a hit nor a miss. A racing fill for the same key
// simply overwrites with identical bytes.
func (c *Cache) Put(key string, resp Response) {
	if c.disabled {
		return
	}
	sh := &c.shards[0]
	if c.mask != 0 {
		sh = &c.shards[hashString(key)&c.mask]
	}
	sh.mu.Lock()
	sh.insert(key, resp)
	sh.mu.Unlock()
}

// Do returns the response for key, computing it with fill on a miss.
// Exactly one caller computes a missing key at a time; the others block
// until the computation finishes and share its result. hit reports
// whether the caller avoided running fill itself.
//
// fill's second result says whether its response may be stored. A fill
// that declines (the router's failed gather, a warming 503, an answer
// stamped with another epoch than the key's) gets its response written
// to its own caller only: nothing is inserted, and callers that were
// waiting on the flight each run their own fill, uncoalesced — a
// response not fit to store is not fit to hand to another request.
func (c *Cache) Do(key string, fill func() (Response, bool)) (resp Response, hit bool) {
	if c.disabled {
		resp, _ = fill()
		return resp, false
	}
	sh := &c.shards[0]
	if c.mask != 0 {
		sh = &c.shards[hashString(key)&c.mask]
	}
	sh.mu.Lock()
	if idx, ok := sh.items[key]; ok {
		sh.touch(idx)
		sh.hits++
		resp = sh.entries[idx].resp
		sh.mu.Unlock()
		return resp, true
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		<-fl.done
		sh.mu.Lock()
		if fl.shared {
			sh.hits++
			sh.mu.Unlock()
			return fl.resp, true
		}
		sh.misses++
		sh.mu.Unlock()
		resp, _ = fill()
		return resp, false
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.misses++
	sh.mu.Unlock()

	// A panicking fill must still release the flight: otherwise every
	// later request for this key would block on fl.done forever. The
	// panic propagates after cleanup; waiters get a 500 and the entry
	// is not cached, so the next request retries.
	filled, store := false, false
	defer func() {
		if !filled {
			fl.resp = Response{
				Status: 500,
				Body:   []byte(`{"error":"internal error"}` + "\n"),
			}
		}
		fl.shared = store || !filled
		sh.mu.Lock()
		delete(sh.inflight, key)
		if store {
			sh.insert(key, fl.resp)
		}
		sh.mu.Unlock()
		close(fl.done)
	}()
	fl.resp, store = fill()
	filled = true
	return fl.resp, false
}

// --- the HTTP read path over the cache ---------------------------------

// Pre-built header values the read path assigns directly into the
// response header map — http.Header.Set allocates a fresh []string per
// call, which is pure garbage on a cache hit. Handlers only ever read
// these slices.
var (
	hdrJSON = []string{"application/json"}
	hdrHit  = []string{"hit"}
	hdrMiss = []string{"miss"}
)

// EpochTag is an epoch with its ETag rendered once, as a string and as
// the header value Serve assigns without allocating. Both tiers build
// one when their epoch changes, not per request.
type EpochTag struct {
	Epoch  uint64
	ETag   string
	Header []string
}

// NewEpochTag renders epoch's tag.
func NewEpochTag(epoch uint64) EpochTag {
	etag := wire.ETagFor(epoch)
	return EpochTag{Epoch: epoch, ETag: etag, Header: []string{etag}}
}

// appendCacheKey builds the canonical "epoch:path" cache key into dst
// (typically a stack buffer) without strconv+concat garbage.
func appendCacheKey(dst []byte, epoch uint64, path string) []byte {
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, ':')
	return append(dst, path...)
}

// Serve answers one read of r.URL.Path as of tag's epoch through the
// cache — the whole epoch-keyed read path, shared by the node and the
// cluster router so the key format, the 304 rule and the headers exist
// once: set the epoch ETag; answer 304 when If-None-Match names it;
// look the stack-built "epoch:path" key up without allocating; on a
// miss run fill under single-flight (see Do for what a declining fill
// means) and write its response. fill runs on the calling goroutine
// before anything is written, so it may still adjust w's headers.
func (c *Cache) Serve(w http.ResponseWriter, r *http.Request, tag EpochTag, fill func() (Response, bool)) {
	w.Header()["Etag"] = tag.Header
	if wire.NotModified(r, tag.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var kb [96]byte
	key := appendCacheKey(kb[:0], tag.Epoch, r.URL.Path)
	resp, hit := c.Get(key)
	if !hit {
		// Only a miss materializes the key as a string.
		resp, hit = c.Do(string(key), fill)
	}
	Write(w, resp, hit)
}

// Write writes a response that went through (or past) the cache with
// its X-Cache verdict, using the pre-built header values.
func Write(w http.ResponseWriter, resp Response, hit bool) {
	h := w.Header()
	if hit {
		h["X-Cache"] = hdrHit
	} else {
		h["X-Cache"] = hdrMiss
	}
	h["Content-Type"] = hdrJSON
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// --- shard internals (all called under sh.mu) -------------------------

// insert adds or refreshes key → resp, evicting the LRU entry when the
// shard is full.
func (sh *cacheShard) insert(key string, resp Response) {
	if idx, ok := sh.items[key]; ok {
		sh.entries[idx].resp = resp
		sh.touch(idx)
		return
	}
	if len(sh.items) >= sh.cap {
		sh.remove(sh.lruTail)
	}
	idx := sh.alloc()
	e := &sh.entries[idx]
	e.key = key
	e.resp = resp
	e.epoch, e.hasEpoch = keyEpoch(key)
	// Push to LRU front.
	e.prev = -1
	e.next = sh.lruHead
	if sh.lruHead >= 0 {
		sh.entries[sh.lruHead].prev = idx
	}
	sh.lruHead = idx
	if sh.lruTail < 0 {
		sh.lruTail = idx
	}
	// Thread onto the epoch list.
	e.eprev = -1
	e.enext = -1
	if e.hasEpoch {
		if head, ok := sh.epochs[e.epoch]; ok {
			e.enext = head
			sh.entries[head].eprev = idx
		}
		sh.epochs[e.epoch] = idx
	}
	sh.items[key] = idx
}

// alloc returns a free slab slot, growing the slab up to capacity.
func (sh *cacheShard) alloc() int32 {
	if sh.free >= 0 {
		idx := sh.free
		sh.free = sh.entries[idx].next
		return idx
	}
	sh.entries = append(sh.entries, cacheEntry{})
	return int32(len(sh.entries) - 1)
}

// touch moves idx to the LRU front.
func (sh *cacheShard) touch(idx int32) {
	if sh.lruHead == idx {
		return
	}
	e := &sh.entries[idx]
	// Unlink.
	sh.entries[e.prev].next = e.next
	if e.next >= 0 {
		sh.entries[e.next].prev = e.prev
	} else {
		sh.lruTail = e.prev
	}
	// Relink at front.
	e.prev = -1
	e.next = sh.lruHead
	sh.entries[sh.lruHead].prev = idx
	sh.lruHead = idx
}

// remove unlinks idx from the LRU, the epoch list and the key map, and
// returns its slot to the free list.
func (sh *cacheShard) remove(idx int32) {
	e := &sh.entries[idx]
	if e.prev >= 0 {
		sh.entries[e.prev].next = e.next
	} else {
		sh.lruHead = e.next
	}
	if e.next >= 0 {
		sh.entries[e.next].prev = e.prev
	} else {
		sh.lruTail = e.prev
	}
	if e.hasEpoch {
		if e.eprev >= 0 {
			sh.entries[e.eprev].enext = e.enext
		} else if e.enext >= 0 {
			sh.epochs[e.epoch] = e.enext
		} else {
			delete(sh.epochs, e.epoch)
		}
		if e.enext >= 0 {
			sh.entries[e.enext].eprev = e.eprev
		}
	}
	delete(sh.items, e.key)
	*e = cacheEntry{next: sh.free} // release key/body for GC
	sh.free = idx
}
