package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestEvictEpochProportional pins the cost model of epoch eviction: the
// per-epoch entry lists mean EvictEpoch touches exactly the entries it
// removes, never the rest of the cache. A regression to the old
// scan-every-key behaviour would blow the evictWork counter up to the
// cache size.
func TestEvictEpochProportional(t *testing.T) {
	c := NewCache(4096)
	fill := func(v string) func() (Response, bool) {
		return func() (Response, bool) { return Response{Status: 200, Body: []byte(v)}, true }
	}
	const bulk, small = 1000, 10
	for i := 0; i < bulk; i++ {
		c.Do(fmt.Sprintf("1:/v1/block/%d", i), fill("old"))
	}
	for i := 0; i < small; i++ {
		c.Do(fmt.Sprintf("2:/v1/block/%d", i), fill("new"))
	}
	// An unkeyed entry (no epoch prefix) must never be epoch-evicted.
	c.Do("plain", fill("plain"))

	if n := c.EvictEpoch(3); n != 0 {
		t.Fatalf("evicting an absent epoch dropped %d entries", n)
	}
	if w := c.evictWorkTotal(); w != 0 {
		t.Fatalf("absent epoch did %d units of work, want 0", w)
	}

	if n := c.EvictEpoch(2); n != small {
		t.Fatalf("EvictEpoch(2) dropped %d entries, want %d", n, small)
	}
	if w := c.evictWorkTotal(); w != small {
		t.Fatalf("EvictEpoch(2) did %d units of work, want %d — eviction cost must be O(evicted), not O(cache)", w, small)
	}

	if n := c.EvictEpoch(1); n != bulk {
		t.Fatalf("EvictEpoch(1) dropped %d entries, want %d", n, bulk)
	}
	if w := c.evictWorkTotal(); w != bulk+small {
		t.Fatalf("total evict work %d, want %d", w, bulk+small)
	}
	if _, _, size := c.Stats(); size != 1 {
		t.Fatalf("cache size %d after evicting both epochs, want 1 (the unkeyed entry)", size)
	}
	if _, hit := c.Do("plain", fill("x")); !hit {
		t.Fatal("unkeyed entry was evicted by epoch eviction")
	}
}

// nopWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// sees only what the read path itself allocates.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(int)             {}
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestCacheHitZeroAllocs enforces the headline claim of the read-path
// overhaul on the function both tiers call: a cache hit through Serve —
// ETag, If-None-Match check, key construction, lookup, headers, write —
// allocates nothing.
func TestCacheHitZeroAllocs(t *testing.T) {
	c := NewCache(64)
	const path = "/v1/block/198.51.100.0/24"
	var kb [96]byte
	c.Put(string(appendCacheKey(kb[:0], 42, path)), Response{Status: 200, Body: []byte(`{"epoch":42}` + "\n")})

	tag := NewEpochTag(42)
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := &nopWriter{h: http.Header{}}
	fill := func() (Response, bool) {
		t.Error("a hit ran fill")
		return Response{}, false
	}
	allocs := testing.AllocsPerRun(1000, func() { c.Serve(w, r, tag, fill) })
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects per run, want 0", allocs)
	}
	if got := w.h["X-Cache"]; len(got) != 1 || got[0] != "hit" {
		t.Fatalf("X-Cache = %v, want hit", got)
	}
}

// TestCacheHammer exercises every cache operation concurrently; it
// exists to run under -race (the Makefile race target) and to shake out
// slab/free-list corruption: after the storm every surviving entry must
// still round-trip its own key.
func TestCacheHammer(t *testing.T) {
	c := NewCache(512)
	const workers = 8
	const iters = 400

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kb [64]byte
			for i := 0; i < iters; i++ {
				epoch := uint64(i % 4)
				key := appendCacheKey(kb[:0], epoch, fmt.Sprintf("/k/%d", (w*7+i)%128))
				switch i % 5 {
				case 0:
					k := string(key) // copy: kb is reused next iteration
					c.Put(k, Response{Status: 200, Body: []byte(k)})
				case 1:
					c.Get(key)
				case 2:
					c.EvictEpoch(epoch)
				case 3:
					c.Stats()
				default:
					want := string(key)
					resp, _ := c.Do(want, func() (Response, bool) {
						return Response{Status: 200, Body: []byte(want)}, true
					})
					if string(resp.Body) != want {
						t.Errorf("Do(%q) returned body %q", want, resp.Body)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every entry still in the cache must answer to its own key.
	for e := uint64(0); e < 4; e++ {
		c.EvictEpoch(e)
	}
	if _, _, size := c.Stats(); size != 0 {
		t.Fatalf("%d entries survived evicting every epoch", size)
	}
}
