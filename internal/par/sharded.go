package par

import "sync"

// Sharded is a fixed set of independently locked slots of state T.
// Writers hash their keys to a shard and mutate that shard's T under
// its own lock, so contention scales with the shard count instead of a
// single global mutex. Reads that need a consistent merged view visit
// shards one at a time in ascending order — no global lock ever exists,
// which is what keeps merge cost off the write path.
type Sharded[T any] struct {
	shards []shardSlot[T]
}

type shardSlot[T any] struct {
	mu sync.Mutex
	v  T
}

// NewSharded creates n shards (minimum 1), initializing each slot with
// init (which may be nil for zero values).
func NewSharded[T any](n int, init func() T) *Sharded[T] {
	if n < 1 {
		n = 1
	}
	s := &Sharded[T]{shards: make([]shardSlot[T], n)}
	if init != nil {
		for i := range s.shards {
			s.shards[i].v = init()
		}
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded[T]) NumShards() int { return len(s.shards) }

// ShardFor maps a 64-bit key hash to a shard index.
func (s *Sharded[T]) ShardFor(hash uint64) int {
	return int(hash % uint64(len(s.shards)))
}

// Do runs fn on shard i's state under that shard's lock.
func (s *Sharded[T]) Do(i int, fn func(*T)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	fn(&sh.v)
	sh.mu.Unlock()
}

// Range visits every shard in ascending order, each under its own lock,
// so merged reads are deterministic without a stop-the-world lock.
func (s *Sharded[T]) Range(fn func(shard int, v *T)) {
	for i := range s.shards {
		s.Do(i, func(v *T) { fn(i, v) })
	}
}

// Hash64 is splitmix64: a fast, well-diffused integer hash for shard
// selection (duplicated from xrand to keep par dependency-free).
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
