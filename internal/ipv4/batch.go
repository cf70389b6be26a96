package ipv4

import (
	"slices"

	"ipscope/internal/par"
)

// parallelThreshold is the set-count below which batched operations run
// sequentially: goroutine fan-out costs more than it saves on tiny
// batches.
const parallelThreshold = 4

// UnionAll returns the union of all non-nil sets, computed across
// workers (<= 0 means GOMAXPROCS). Each worker unions a contiguous
// chunk of the slice and chunk results merge in chunk order, so the
// result is identical to a sequential left fold.
func UnionAll(sets []*Set, workers int) *Set {
	w := par.Workers(workers)
	if len(sets) < parallelThreshold || w == 1 {
		u := NewSet()
		for _, s := range sets {
			if s != nil {
				u.UnionWith(s)
			}
		}
		return u
	}
	partials := make([]*Set, len(par.Split(len(sets), w)))
	par.ForEachShard(len(sets), w, func(shard, lo, hi int) {
		u := NewSet()
		for _, s := range sets[lo:hi] {
			if s != nil {
				u.UnionWith(s)
			}
		}
		partials[shard] = u
	})
	out := partials[0]
	for _, p := range partials[1:] {
		out.UnionWith(p)
	}
	return out
}

// UnionBlocks returns, ascending, the blocks populated in any of sets
// (none nil): UnionAll(sets, workers).Blocks() without OR-ing a bitmap.
func UnionBlocks(sets []*Set, workers int) []Block {
	shards := par.Split(len(sets), workers)
	seen := par.Map(len(shards), len(shards), func(i int) map[Block]bool {
		m := make(map[Block]bool)
		for _, s := range sets[shards[i].Lo:shards[i].Hi] {
			for blk := range s.m {
				m[blk] = true
			}
		}
		return m
	})
	var blocks []Block
	for _, m := range seen {
		for blk := range m {
			blocks = append(blocks, blk)
		}
	}
	slices.Sort(blocks)
	return slices.Compact(blocks)
}

// DiffCounts computes |as[i] \ bs[i]| for every pair across workers.
// The slices must have equal length.
func DiffCounts(as, bs []*Set, workers int) []int {
	return par.Map(len(as), par.Workers(workers), func(i int) int {
		return as[i].DiffCount(bs[i])
	})
}
