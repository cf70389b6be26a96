package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	fill := func(v string) func() (Response, bool) {
		return func() (Response, bool) { return Response{Status: 200, Body: []byte(v)}, true }
	}
	c.Do("a", fill("A"))
	c.Do("b", fill("B"))
	if _, hit := c.Do("a", fill("A2")); !hit {
		t.Fatal("a should be cached")
	}
	// Inserting c evicts b (a was just touched).
	c.Do("c", fill("C"))
	if _, hit := c.Do("b", fill("B2")); hit {
		t.Fatal("b should have been evicted")
	}
	// Reinserting b evicted a (the then-oldest entry); c stays.
	if resp, hit := c.Do("c", fill("C2")); !hit || string(resp.Body) != "C" {
		t.Fatalf("c: hit=%v body=%q", hit, resp.Body)
	}
	if _, hit := c.Do("a", fill("A3")); hit {
		t.Fatal("a should have been evicted by b's reinsert")
	}
	hits, misses, size := c.Stats()
	if size != 2 {
		t.Errorf("size = %d, want 2", size)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(16)
	var calls atomic.Int64
	var release sync.WaitGroup
	release.Add(1)

	const clients = 16
	var wg sync.WaitGroup
	results := make([]Response, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := c.Do("key", func() (Response, bool) {
				calls.Add(1)
				release.Wait() // hold every waiter on this one computation
				return Response{Status: 200, Body: []byte("shared")}, true
			})
			results[i] = resp
		}(i)
	}
	release.Done()
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for i, r := range results {
		if string(r.Body) != "shared" {
			t.Fatalf("client %d got %q", i, r.Body)
		}
	}
}

// TestCacheDeclinedFill pins what a fill that declines the insert
// means: its response reaches its own caller, nothing is stored, and
// callers that were waiting on the flight each compute their own answer
// instead of sharing one that was not fit to store.
func TestCacheDeclinedFill(t *testing.T) {
	c := NewCache(16)
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	decline := func() (Response, bool) {
		n := calls.Add(1)
		if n == 1 {
			close(entered)
			<-release
		}
		return Response{Status: 503, Body: []byte(fmt.Sprint(n))}, false
	}

	const waiters = 4
	bodies := make(chan string, waiters+1)
	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		resp, hit := c.Do("k", decline)
		if hit {
			t.Error("a declined fill was reported as a hit")
		}
		bodies <- string(resp.Body)
	}
	wg.Add(1)
	go do()
	<-entered // the first fill holds the flight
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go do()
	}
	close(release)
	wg.Wait()
	close(bodies)

	seen := map[string]bool{}
	for b := range bodies {
		if seen[b] {
			t.Fatalf("two callers shared the declined response %q", b)
		}
		seen[b] = true
	}
	if n := calls.Load(); n != waiters+1 {
		t.Fatalf("fill ran %d times, want %d (every caller its own)", n, waiters+1)
	}
	if hits, misses, size := c.Stats(); hits != 0 || misses != waiters+1 || size != 0 {
		t.Fatalf("stats = %d hits / %d misses / size %d, want 0 / %d / 0", hits, misses, size, waiters+1)
	}
	// The key is not poisoned: a storing fill is inserted as usual.
	c.Do("k", func() (Response, bool) { return Response{Status: 200, Body: []byte("ok")}, true })
	if resp, hit := c.Do("k", decline); !hit || string(resp.Body) != "ok" {
		t.Fatalf("after a storing fill: hit=%v body=%q", hit, resp.Body)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	n := 0
	for i := 0; i < 3; i++ {
		resp, hit := c.Do("k", func() (Response, bool) {
			n++
			return Response{Status: 200, Body: []byte(fmt.Sprint(n))}, true
		})
		if hit {
			t.Fatal("disabled cache reported a hit")
		}
		if string(resp.Body) != fmt.Sprint(i+1) {
			t.Fatalf("iteration %d: body %q", i, resp.Body)
		}
	}
}

func TestCachePanicReleasesFlight(t *testing.T) {
	c := NewCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do("k", func() (Response, bool) { panic("handler bug") })
	}()
	// The key must not be wedged: the next request recomputes.
	done := make(chan Response, 1)
	go func() {
		resp, _ := c.Do("k", func() (Response, bool) {
			return Response{Status: 200, Body: []byte("recovered")}, true
		})
		done <- resp
	}()
	select {
	case resp := <-done:
		if string(resp.Body) != "recovered" {
			t.Fatalf("got %q", resp.Body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cache key wedged after a panicking fill")
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(8)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%16)
			resp, _ := c.Do(key, func() (Response, bool) {
				return Response{Status: 200, Body: []byte(key)}, true
			})
			if string(resp.Body) != key {
				t.Errorf("key %s got %q", key, resp.Body)
			}
		}(i)
	}
	wg.Wait()
}
