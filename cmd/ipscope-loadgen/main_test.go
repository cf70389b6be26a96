package main

import (
	"fmt"
	"slices"
	"testing"

	"ipscope/internal/synthnet"
)

// TestWorkloadDeterministic pins the workload a run sends. Its URL list
// is a function of the world flags, the seed and the epoch range healthz
// reports — not of the target — so two generations over the smoke world
// (ipscope-gen -seed 5 -ases 24 -blocks-per-as 6) with a batch target's
// healthz are equal, and the workload hash the report prints is pinned.
// The mix, phases, zipf skew and request count are main's flag defaults.
func TestWorkloadDeterministic(t *testing.T) {
	const seed, requests = 5, 4000
	mix, err := parseWeights("addr:45,block:25,prefix:12,as:10,summary:6,movement:2",
		[]string{"addr", "block", "prefix", "as", "summary", "movement", "delta"})
	if err != nil {
		t.Fatal(err)
	}
	phases, err := parseWeights("steady:60,burst:20,herd:10,storm:10", []string{"steady", "burst", "herd", "storm"})
	if err != nil {
		t.Fatal(err)
	}
	hz := healthz{Status: "ok", Epoch: 1, OldestEpoch: 1, NewestEpoch: 1}
	urls := func() []string {
		world := synthnet.Generate(synthnet.Config{Seed: seed, NumASes: 24, MeanBlocksPerAS: 6})
		gen := newWorkload(world, hz, mix, 1.2, 1, seed)
		var all []string
		for _, ph := range []string{"steady", "burst", "herd", "storm"} {
			all = append(all, gen.phase(ph, requests*phases[ph]/totalWeight(phases))...)
		}
		return all
	}
	first, second := urls(), urls()
	if len(first) != requests || !slices.Equal(first, second) {
		t.Fatalf("two generations differ: %d and %d URLs", len(first), len(second))
	}
	if got, want := fmt.Sprintf("%016x", hashURLs(first)), "4ca48886bed7479d"; got != want {
		t.Errorf("workload hash %s, want %s", got, want)
	}
}
