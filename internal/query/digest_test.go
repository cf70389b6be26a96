package query

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// TestEncodedBytesStable is the byte-stability oracle for the wire
// codec and the snapshot format: SHA-256 digests of every Append*Wire
// output, of EncodeSnapshot (unsharded and with a ShardRange) and of
// EncodeCheckpoint (mid-stream and at end of stream, where the resume
// section carries the UA sketches) over the TinyConfig seed-5 world, and
// of EncodeSnapshot over Build's indexes of the same world. The codec
// digests were computed before the codecs moved onto internal/binenc; a
// refactor that moves one encoded byte fails here.
func TestEncodedBytesStable(t *testing.T) {
	wcfg := synthnet.TinyConfig()
	wcfg.Seed = 5
	var events []obs.Event
	rec := obs.SinkFunc(func(e obs.Event) error { events = append(events, e); return nil })
	res, err := sim.RunTo(synthnet.Generate(wcfg), sim.TinyConfig(), rec)
	if err != nil {
		t.Fatal(err)
	}

	// Apply the stream live, publishing after day 10 (the mid-stream
	// checkpoint and the delta's "from" epoch) and at the end.
	a := NewApplier(Options{})
	var mid *Index
	var checkpoint []byte
	for _, e := range events {
		if err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
		if ev, ok := e.(obs.DayEvent); ok && ev.Index == 9 {
			var err error
			if mid, err = a.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if checkpoint, err = a.EncodeCheckpoint(&ShardRange{Index: 0, Count: 2, Lo: 0, Hi: 1 << 23}); err != nil {
				t.Fatal(err)
			}
		}
	}
	x, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	final, err := a.EncodeCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}

	blk := x.Blocks()[len(x.Blocks())/2]
	bv, _ := x.Block(blk)
	av := x.Addr(blk.Addr(7))
	sp := x.SummaryPartial()
	ap := x.ASPartial(x.ASNs()[0])
	pp, err := x.PrefixPartial(ipv4.MustNewPrefix(blk.Addr(0), 16), 8)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := x.DeltaPartial(mid, 8)
	if err != nil {
		t.Fatal(err)
	}
	mp := MovementPartial{Seed: wcfg.Seed, OldestEpoch: mid.Epoch(), NewestEpoch: x.Epoch(),
		Entries: []MovementEntryPartial{mid.MovementEntryPartial(nil), x.MovementEntryPartial(mid)}}

	// The batch path over the same world. These digests were computed with
	// the block compiler and summary assembler Build had of its own before
	// it became a fill of the Applier: they are what that code left behind.
	build := func(src obs.Source, opts Options) []byte {
		t.Helper()
		bx, err := Build(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return EncodeSnapshot(bx, nil)
	}
	d := &res.Data
	long := sim.TinyConfig()
	long.Days, long.DailyStart, long.DailyLen = 98, 14, 70
	longRes := sim.Run(synthnet.Generate(wcfg), long)
	// The lower half of the active blocks, as a shard's build sees it.
	lower := func(b ipv4.Block) bool { return b < blk }

	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"BlockViewWire", AppendBlockViewWire(nil, &bv), "8798e1b9b0da8b9c3fb32afbb20b61c2155899cb0915e786bcfa7af13c7665ea"},
		{"AddrViewWire", AppendAddrViewWire(nil, &av), "bc63836ca9a03fc183995a7cb6c90f1a845c13b29ae906e058f65bcfa8af1d67"},
		{"SummaryPartialWire", AppendSummaryPartialWire(nil, &sp), "821c8612818c1c1c37dba2a67db267a82982061e398931112f9a87083a3f9fab"},
		{"ASPartialWire", AppendASPartialWire(nil, &ap), "17e1d12dd4d71b40838e347f23150040e4cba77566a8f94dced80923e9bbacec"},
		{"PrefixPartialWire", AppendPrefixPartialWire(nil, &pp), "7f773b1e8cc64454f6bb60d2a410e3f73fbec026755eab39d8c0cb519371c8f8"},
		{"DeltaPartialWire", AppendDeltaPartialWire(nil, &dp), "e2196179b1790c6019b8ad6b2fdd509c1d0c77c0193bd30d09f510ccc438a24b"},
		{"MovementPartialWire", AppendMovementPartialWire(nil, &mp), "2cff827769ef5bff5a3067f90d1fd3ed85fe3880c8c5c444d05661505a07a8e5"},
		{"EncodeSnapshot", EncodeSnapshot(x, nil), "202dd0df913f0ef065d5a2147378e0ed37a1236c857afb04aa929df422440bac"},
		{"EncodeSnapshot/sharded", EncodeSnapshot(x, &ShardRange{Index: 1, Count: 2, Lo: 1 << 23, Hi: 1 << 24}), "f68b59b8d13667e594afe91227874e19852b3e218ffb82222ff8607fdc60164a"},
		{"EncodeCheckpoint/mid-stream", checkpoint, "9efb068c4905a9d50149194c043fbf0f0e32cccdcfeafb839fc66f5dea218bdf"},
		{"EncodeCheckpoint/end-of-stream", final, "7d4ca5a72bd534f774e940d54f571bd221605d518a430f2cebac60d244885dd0"},
		{"Build", build(d, Options{}), "8430634807e28e9c1195a3388e4ded176436d7fcd72f2d3d9e63016dde72968a"},
		{"Build/TruncateLive(10)", build(d.TruncateLive(10), Options{}), "3a198a22033c38ab44465c8eadfa56b3524d0eccf71cd3270d48851bbbcdd663"},
		{"Build/word-boundary(64)", build(longRes.Data.TruncateLive(64), Options{}), "83ae04824ee61c8c761bb4840cf23790c88a192dc144852aeb271c7392ff5ce0"},
		{"Build/word-boundary(65)", build(longRes.Data.TruncateLive(65), Options{}), "f0cab7247355fbcb3fdcd23ce55a3c8609d8d07d5127899966e18aa8ff9f9f12"},
		{"Build/keep", build(obs.FilterSource(d, lower), Options{Keep: lower}), "41f0e2c44b4d83ebfaea858dc8228622e936edb44a9a8e23d6012185d87703b1"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", c.name, len(c.enc), got, c.want)
		}
	}
}

// TestClassifyWorldDigest pins the rDNS tag of every block of the
// benchmark's world (ipscope-gen's defaults at seed 3: 300 ASes, 12
// blocks/AS) as a SHA-256 over the (block, tag) pairs in block order,
// plus the per-tag counts. The digest was computed with the Sprintf
// tagger that preceded the rdns name kernel: one flipped tag fails
// here, by name, instead of somewhere inside a snapshot digest.
func TestClassifyWorldDigest(t *testing.T) {
	world := synthnet.Generate(synthnet.Config{Seed: 3, NumASes: 300, MeanBlocksPerAS: 12})
	pairs := classifyWorld(world, 0, nil).Tags()
	var counts [3]int
	enc := make([]byte, 0, 5*len(pairs))
	for _, p := range pairs {
		counts[p.Tag]++
		enc = binary.BigEndian.AppendUint32(enc, uint32(p.Block))
		enc = append(enc, byte(p.Tag))
	}
	sum := sha256.Sum256(enc)
	const want = "70746a5c045b3b180f5a534a26c2d622440929091ea38d3ca5cbf26af66f3d28"
	wantCounts := [3]int{2092, 512, 908}
	if got := hex.EncodeToString(sum[:]); got != want || counts != wantCounts {
		t.Errorf("%d blocks, untagged/static/dynamic %v, sha256 %s; want %v, %s",
			len(pairs), counts, got, wantCounts, want)
	}
}
