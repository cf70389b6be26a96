package cluster

import (
	"context"
	"sync"
	"time"

	"ipscope/internal/serve/wire"
)

// Re-admission backoff after a replica failure: failBackoff after the
// first consecutive failure, doubling per further failure (the count
// saturates at maxFails) up to maxBackoff.
const (
	failBackoff = 250 * time.Millisecond
	maxBackoff  = 10 * time.Second
	maxFails    = 32
)

// Health tiers, ordered by routing preference.
const (
	tierHealthy = iota // not marked down
	tierDue            // down, backoff expired — candidate for re-admission
	tierBackoff        // down, still backing off — last resort only
)

// health is one replica's failover state machine. It has three tiers,
// computed against the router's clock: healthy (not marked down), due
// (down, backoff expired — worth a retry), and backing off (down, too
// soon). Requests and probes feed it: a transport failure marks the
// replica down and doubles its backoff; a healthy answer (any
// deterministic status — the process proved itself) resets it. A
// warming 503 does neither: the process is up and will publish on its
// own, but cannot answer data yet.
type health struct {
	mu      sync.Mutex
	down    bool
	fails   int
	retryAt time.Time
}

func (h *health) tier(now time.Time) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case !h.down:
		return tierHealthy
	case !now.Before(h.retryAt):
		return tierDue
	default:
		return tierBackoff
	}
}

// markDown records a transport-level failure at now: the replica enters
// (or stays in) the down state with an exponentially growing
// re-admission backoff.
func (h *health) markDown(now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down = true
	if h.fails < maxFails {
		h.fails++
	}
	backoff := failBackoff << (h.fails - 1)
	if backoff <= 0 || backoff > maxBackoff {
		backoff = maxBackoff
	}
	h.retryAt = now.Add(backoff)
}

// markUp resets the health state after any successful answer.
func (h *health) markUp() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down = false
	h.fails = 0
	h.retryAt = time.Time{}
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

// probe asks rp, a replica of rg, for its health, feeds the answer to the
// state machine and the epoch view — unreachable marks it down, "ok"
// marks it up; any other status (warming) is alive but not servable and
// leaves the machine untouched — and returns it as healthz reports it.
func (rt *Router) probe(ctx context.Context, rg *rangeGroup, rp *replicaState) wire.RouterShardHealth {
	st := wire.RouterShardHealth{Shard: rg.shard, Replica: rp.info.Replica, URL: rp.base, Transport: rp.client.Transport()}
	status, epoch, oldest, newest, err := rp.client.Health(ctx)
	switch {
	case err != nil:
		st.Status, st.Error = "unreachable", err.Error()
		rp.markDown(rt.now())
	default:
		st.Status, st.Epoch, st.OldestEpoch, st.NewestEpoch = status, epoch, oldest, newest
		if status == "ok" {
			rp.markUp()
			rt.observe(rp, epoch)
		}
	}
	return st
}

// ring intersects retained-epoch rings: the epochs every ring added can
// still answer (max of oldests, min of newests). It folds the replicas
// of one range — a routed as-of query may land on any of them — and
// then the ranges of the fleet.
type ring struct {
	oldest, newest uint64
	n              int
}

func (r *ring) add(oldest, newest uint64) {
	if oldest > r.oldest {
		r.oldest = oldest
	}
	if r.n == 0 || newest < r.newest {
		r.newest = newest
	}
	r.n++
}

// bounds returns the intersection; a ring retaining nothing (newest 0)
// collapses it to empty (0, 0).
func (r ring) bounds() (oldest, newest uint64) {
	if r.newest == 0 || r.oldest > r.newest {
		return 0, 0
	}
	return r.oldest, r.newest
}
