package node

import (
	"bytes"
	"runtime"
	"testing"

	"ipscope/internal/cluster"
	"ipscope/internal/obs"
)

// TestShardDecodeAllocsProportional is the exact gate on what a shard's
// decode allocates: shard 0 of 2 of the test world, decoded through
// partitioned as a -dataset shard decodes its file, may allocate the
// decoder's read buffer, the kept share of what a full decode allocates
// beyond that buffer, its plan (the world regenerated from the meta
// frame) and a fixed term. The kept share is the shard's filtered stream
// over the whole stream, in bytes: 0.521 here. Measured (go1.24,
// linux/amd64): buffer and plan aside, the shard allocated 0.540 of what
// the full decode did, 44 KB over the proportional part; the fixed term
// allows 96 KB. Decoding every record and filtering afterwards, as a
// wrapping filter sink does, allocates 1.10 full decodes here, 2.3 MB
// over the bound.
func TestShardDecodeAllocsProportional(t *testing.T) {
	const (
		readBuffer = 1 << 20 // StreamDecode's bufio.Reader
		fixed      = 96 << 10
	)
	ds := world(t, 3)
	decode := func(sink obs.Sink) int {
		var err error
		b := allocs(func() { err = obs.StreamDecode(bytes.NewReader(ds.stream), sink) })
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	full := decode(&obs.Data{})

	plan, err := cluster.PlanForMeta(ds.data.Meta.World, 2)
	if err != nil {
		t.Fatal(err)
	}
	planned := allocs(func() { _, err = cluster.PlanForMeta(ds.data.Meta.World, 2) })
	slice, err := obs.FilterSource(ds.data, plan.Keep(0)).Observations()
	if err != nil {
		t.Fatal(err)
	}
	var kept bytes.Buffer
	if err := obs.Write(&kept, slice); err != nil {
		t.Fatal(err)
	}
	share := float64(kept.Len()) / float64(len(ds.stream))

	n, err := load(Config{ShardIndex: 0, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	shard := decode(n.partitioned(&obs.Data{}))
	if bound := readBuffer + int(share*float64(full-readBuffer)) + planned + fixed; shard > bound {
		t.Errorf("decoding shard 0 of 2 allocated %d bytes, want at most %d: the read buffer, the kept share %.3f of the %d more a full decode allocates, the plan's %d and %d fixed",
			shard, bound, share, full-readBuffer, planned, fixed)
	}
}

// allocs returns the bytes f allocates.
func allocs(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}
