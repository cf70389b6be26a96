// Package cluster scales the serving stack horizontally: it partitions
// the /24 block space into contiguous ranges, restricts dataset builds
// and live streams to one partition (so each shard only pays for its
// slice), and fronts a fleet of shard servers with a scatter-gather
// HTTP router that answers the same /v1/* API as a single node —
// byte-identically, modulo epoch metadata (TestClusterEquivalence).
//
// The same shard-and-merge discipline the engine (internal/sim) and
// the incremental Applier (internal/query) enforce in-process —
// contiguous block shards, deterministic merge in block order — is
// applied here across process boundaries. Point lookups (/v1/addr,
// /v1/block) route to the owning shard; aggregates (/v1/summary,
// /v1/as, /v1/prefix) fan out and fold the shards' mergeable partials
// (internal/query's SummaryPartial/ASPartial/PrefixPartial), whose
// merge rules are exact: integer counters sum, AS sets union, HLL
// sketches union register-wise, and order-sensitive float folds replay
// the single-node accumulation sequence from shipped per-block values.
package cluster

import (
	"fmt"
	"sort"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/synthnet"
)

// Plan is a deterministic partition of the whole /24 block space into
// contiguous ranges, one per shard. Interior boundaries sit at
// quantiles of the world's allocated blocks, so shards carry balanced
// slices of the populated space while still covering every possible
// block (unallocated space routes to whichever shard's range spans
// it). Because the world is regenerated deterministically from dataset
// meta, every node — shards and router alike — derives the identical
// plan from (world, shard count) alone.
type Plan struct {
	bounds []uint32 // len = shards+1; bounds[0] = 0, bounds[last] = 1<<24
}

// blockSpace is one past the last /24 block number.
const blockSpace = 1 << 24

// PlanShards computes the partition of world's block space into n
// contiguous shard ranges.
func PlanShards(world *synthnet.World, n int) (Plan, error) {
	if n < 1 {
		return Plan{}, fmt.Errorf("cluster: shard count %d < 1", n)
	}
	blocks := make([]uint32, 0, len(world.Blocks))
	for _, b := range world.Blocks {
		blocks = append(blocks, uint32(b.Block))
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })

	bounds := make([]uint32, n+1)
	for i := 1; i < n; i++ {
		if len(blocks) > 0 {
			bounds[i] = blocks[len(blocks)*i/n]
		} else {
			bounds[i] = uint32(uint64(blockSpace) * uint64(i) / uint64(n))
		}
	}
	bounds[n] = blockSpace
	return Plan{bounds: bounds}, nil
}

// PlanForMeta regenerates the world from a dataset's embedded world
// configuration and plans its partition — all a shard or router needs
// besides the shard count.
func PlanForMeta(cfg synthnet.Config, n int) (Plan, error) {
	return PlanShards(synthnet.Generate(cfg), n)
}

// Range returns shard i's owned block range [lo, hi) as raw block
// numbers (hi may be 1<<24).
func (p Plan) Range(i int) (lo, hi uint32) { return p.bounds[i], p.bounds[i+1] }

// Owner returns the shard owning blk. Every block has exactly one
// owner: ranges are contiguous and cover the whole space.
func (p Plan) Owner(blk ipv4.Block) int {
	// First bound strictly greater than blk, minus one range.
	i := sort.Search(len(p.bounds)-2, func(i int) bool { return p.bounds[i+1] > uint32(blk) })
	return i
}

// Keep returns the block predicate for shard i: what obs.FilterSink and
// obs.FilterSource filter in-memory data by, and what a stream decoder
// applies while decoding a PartitionSink's stream (obs.Restricter).
func (p Plan) Keep(i int) func(ipv4.Block) bool {
	lo, hi := p.Range(i)
	return func(blk ipv4.Block) bool { return uint32(blk) >= lo && uint32(blk) < hi }
}

// Placement maps fleet process proc of a ranges×R fleet to its
// (range, replica) coordinates: process p serves range p%ranges as
// replica p/ranges. Round-robin offset placement means processes
// 0..ranges-1 are the primary copy of every range (an R=1 fleet is
// exactly the pre-replication layout) and each later batch of ranges
// processes adds one more full copy of the space.
func Placement(proc, ranges int) (g, replica int) {
	return proc % ranges, proc / ranges
}

// PartitionSource restricts src to shard index's slice of a count-way
// partition. The plan is derived from the dataset's own meta, so the
// caller needs no world in hand.
func PartitionSource(src obs.Source, index, count int) obs.Source {
	return &partitionSource{src: src, index: index, count: count}
}

type partitionSource struct {
	src          obs.Source
	index, count int
}

func (ps *partitionSource) Observations() (*obs.Data, error) {
	d, err := ps.src.Observations()
	if err != nil {
		return nil, err
	}
	plan, err := PlanForMeta(d.Meta.World, ps.count)
	if err != nil {
		return nil, err
	}
	if ps.index < 0 || ps.index >= ps.count {
		return nil, fmt.Errorf("cluster: shard index %d outside 0..%d", ps.index, ps.count-1)
	}
	return obs.FilterSource(d, plan.Keep(ps.index)).Observations()
}

// PartitionSink restricts a live observation stream to shard index's
// slice: the meta event (which passes through unfiltered) carries the
// world configuration, the plan is computed from it on the spot, and
// every subsequent event is filtered through obs.FilterSink. onPlan,
// when non-nil, is called once with the shard's owned range — the hook
// a live shard server uses to publish its partition coordinates.
//
// Once planned, the sink is an obs.Restricter: a stream decoder feeding
// it applies the plan's predicate as it decodes and delivers straight to
// sink, so a shard never materializes another shard's records.
func PartitionSink(sink obs.Sink, index, count int, onPlan func(lo, hi uint32)) obs.Sink {
	return &partitionSink{sink: sink, index: index, count: count, onPlan: onPlan}
}

type partitionSink struct {
	sink         obs.Sink
	index, count int
	onPlan       func(lo, hi uint32)
	keep         func(ipv4.Block) bool // nil until the meta event arrives
	filtered     obs.Sink              // sink behind obs.FilterSink(keep)
}

func (ps *partitionSink) Observe(e obs.Event) error {
	if me, ok := e.(obs.MetaEvent); ok {
		if ps.index < 0 || ps.index >= ps.count {
			return fmt.Errorf("cluster: shard index %d outside 0..%d", ps.index, ps.count-1)
		}
		plan, err := PlanForMeta(me.Meta.World, ps.count)
		if err != nil {
			return err
		}
		ps.keep = plan.Keep(ps.index)
		ps.filtered = obs.FilterSink(ps.sink, ps.keep)
		if ps.onPlan != nil {
			lo, hi := plan.Range(ps.index)
			ps.onPlan(lo, hi)
		}
		return ps.sink.Observe(e)
	}
	if ps.filtered == nil {
		return fmt.Errorf("cluster: partition sink received %T before the meta event", e)
	}
	return ps.filtered.Observe(e)
}

// Restrict is the planned slice's predicate and the sink behind it (nil
// keep before the meta event).
func (ps *partitionSink) Restrict() (func(ipv4.Block) bool, obs.Sink) { return ps.keep, ps.sink }
