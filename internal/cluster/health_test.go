package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is the router's clock under test: it moves only when told.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestHealthBackoff walks one replica's state machine on the fake
// clock: the n-th consecutive failure backs off 250ms << (n-1), capped
// at 10 s, with the failure count saturating at 32; a down replica is
// backing off until exactly that long has passed, then due; any answer
// resets it.
func TestHealthBackoff(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	var h health
	if got := h.tier(clk.now()); got != tierHealthy {
		t.Fatalf("fresh replica: tier %d, want healthy", got)
	}
	for n := 1; n <= 40; n++ {
		want := 10 * time.Second
		if n <= 6 { // 250ms << 5 = 8 s is the last step under the cap
			want = 250 * time.Millisecond << (n - 1)
		}
		h.markDown(clk.now())
		if wantFails := min(n, 32); h.fails != wantFails {
			t.Fatalf("failure %d: fails = %d, want %d", n, h.fails, wantFails)
		}
		clk.advance(want - time.Nanosecond)
		if got := h.tier(clk.now()); got != tierBackoff {
			t.Fatalf("failure %d: tier %d just inside a %v backoff, want backoff", n, got, want)
		}
		clk.advance(time.Nanosecond)
		if got := h.tier(clk.now()); got != tierDue {
			t.Fatalf("failure %d: tier %d once %v passed, want due", n, got, want)
		}
	}
	h.markUp()
	if got := h.tier(clk.now()); got != tierHealthy || h.fails != 0 {
		t.Fatalf("after an answer: tier %d, fails %d; want healthy, 0", got, h.fails)
	}
	h.markDown(clk.now())
	clk.advance(250 * time.Millisecond)
	if got := h.tier(clk.now()); got != tierDue {
		t.Fatalf("first failure after a reset backs off longer than 250ms (tier %d)", got)
	}
}

// TestPickOrder pins the routing preference: healthy replicas first,
// rotated per call, then due, then backing off — and an R=1 range
// returns its sole replica whatever its state.
func TestPickOrder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	names := func(rps []*replicaState) string {
		s := ""
		for _, rp := range rps {
			s += rp.base
		}
		return s
	}
	a, b, c, d := &replicaState{base: "a"}, &replicaState{base: "b"}, &replicaState{base: "c"}, &replicaState{base: "d"}
	g := &rangeGroup{replicas: []*replicaState{a, b, c, d}}
	c.markDown(clk.now()) // due by the time of the picks below
	clk.advance(250 * time.Millisecond)
	b.markDown(clk.now()) // still backing off
	for i, want := range []string{"adcb", "dacb", "adcb"} {
		if got := names(g.pick(clk.now())); got != want {
			t.Fatalf("pick %d: %s, want %s (healthy rotated, due, backoff)", i, got, want)
		}
	}
	clk.advance(250 * time.Millisecond) // b's backoff expires too
	if got := names(g.pick(clk.now())); got != "dabc" {
		t.Fatalf("pick with both down replicas due: %s, want dabc", got)
	}
	b.markUp()
	if got := names(g.pick(clk.now())); got != "bdac" {
		t.Fatalf("pick after b answered: %s, want bdac (a, b, d healthy, rotated by one)", got)
	}

	sole := &rangeGroup{replicas: []*replicaState{{base: "s"}}}
	for _, state := range []string{"healthy", "backoff", "due"} {
		if got := names(sole.pick(clk.now())); got != "s" {
			t.Fatalf("R=1, %s: pick %q, want the sole replica", state, got)
		}
		sole.replicas[0].markDown(clk.now())
		if state == "backoff" {
			clk.advance(time.Minute)
		}
	}
}

// stubClient is a Client whose Health a test scripts; the embedded nil
// interface panics on any call the test did not expect.
type stubClient struct {
	Client
	health func(ctx context.Context) error
	closed func()
}

func (c *stubClient) Health(ctx context.Context) (string, uint64, uint64, uint64, error) {
	if err := c.health(ctx); err != nil {
		return "", 0, 0, 0, err
	}
	return "ok", 1, 1, 1, nil
}

func (c *stubClient) Transport() string { return "stub" }

func (c *stubClient) Close() error {
	if c.closed != nil {
		c.closed()
	}
	return nil
}

// TestFetchRangeFailover pins the one failover loop on the fake clock:
// an unreachable replica is marked down at the router's now and tried
// last until its backoff passes; a warming one is passed over without a
// health mark; with no answer the last error surfaces and from names
// the first warming replica.
func TestFetchRangeFailover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	rt := &Router{now: clk.now}
	dead := &replicaState{base: "dead", client: &stubClient{}}
	warm := &replicaState{base: "warm", client: &stubClient{}}
	live := &replicaState{base: "live", client: &stubClient{}}
	var tried []string
	answers := map[Client]error{
		dead.client: &unavailableError{shard: 0, err: errors.New("refused")},
		warm.client: &statusError{shard: 0, code: 503, warming: true},
		live.client: nil,
	}
	fetch := func(_ context.Context, c Client) (string, uint64, error) {
		for _, rp := range []*replicaState{dead, warm, live} {
			if rp.client == c {
				tried = append(tried, rp.base)
			}
		}
		return "answer", 7, answers[c]
	}

	g := &rangeGroup{replicas: []*replicaState{dead, warm, live}}
	v, epoch, from, err := fetchRange(rt, context.Background(), g, fetch)
	if err != nil || v != "answer" || epoch != 7 || from != live {
		t.Fatalf("fetchRange = %q, %d, %v, %v; want the live replica's answer", v, epoch, from, err)
	}
	if want := []string{"dead", "warm", "live"}; !slices.Equal(tried, want) {
		t.Fatalf("tried %v, want %v", tried, want)
	}
	if dead.tier(clk.now()) != tierBackoff || warm.tier(clk.now()) != tierHealthy || live.epoch.Load() != 7 {
		t.Fatalf("after the fetch: dead tier %d, warm tier %d, live epoch %d; want backoff, healthy, 7",
			dead.tier(clk.now()), warm.tier(clk.now()), live.epoch.Load())
	}

	// No replica can answer: the error is the last one tried, from the
	// first warming replica.
	g = &rangeGroup{replicas: []*replicaState{warm, dead}}
	tried = nil
	_, _, from, err = fetchRange(rt, context.Background(), g, fetch)
	if !isUnavailable(err) || from != warm {
		t.Fatalf("no answer: err %v from %v; want the unavailable error, from the warming replica", err, from)
	}
	if want := []string{"warm", "dead"}; !slices.Equal(tried, want) {
		t.Fatalf("tried %v, want %v (healthy before backing off)", tried, want)
	}
}

// waitGoroutines spins until the process is back to want goroutines —
// ones that were told to stop and are on their way out — and fails if
// it never gets there.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestCloseWaitsForProbe pins Close against a probe in flight: it does
// not close a client until the prober has exited, so no probe runs
// against a closed client (and marks its replica down) afterwards, and
// the prober goroutine is gone when Close returns.
func TestCloseWaitsForProbe(t *testing.T) {
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var events []string
	record := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, fmt.Sprintf(format, args...))
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	rp := &replicaState{base: "r"}
	rp.client = &stubClient{
		health: func(context.Context) error {
			once.Do(func() { close(entered) })
			<-release
			record("probe returned")
			return nil
		},
		closed: func() { record("client closed") },
	}
	rt := &Router{
		ranges:        []*rangeGroup{{replicas: []*replicaState{rp}}},
		probeInterval: time.Millisecond,
		now:           time.Now,
		stopProbe:     make(chan struct{}),
		probeDone:     make(chan struct{}),
	}
	go rt.probeLoop()
	<-entered // a probe is in flight

	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	<-rt.stopProbe // Close has begun
	close(release)
	<-closed

	mu.Lock()
	defer mu.Unlock()
	if i := slices.Index(events, "client closed"); i < 0 || i != len(events)-1 {
		t.Fatalf("a probe outlived Close, or the client was never closed: %v", events)
	}
	waitGoroutines(t, before)
}
