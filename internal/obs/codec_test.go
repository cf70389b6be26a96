package obs

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ipscope/internal/bgp"
	"ipscope/internal/binenc"
	"ipscope/internal/ipv4"
	"ipscope/internal/useragent"
	"ipscope/internal/xrand"
)

// sampleData builds a small but fully-populated dataset exercising
// every event kind, deterministically from seed.
func sampleData(t testing.TB, seed uint64) *Data {
	t.Helper()
	r := xrand.New(seed, "obs-test")
	meta := Meta{}
	meta.World.Seed = seed
	meta.World.NumASes = 7
	meta.World.MeanBlocksPerAS = 3
	meta.Run = RunConfig{
		Days: 28, DailyStart: 7, DailyLen: 14, UADays: 7,
		ICMPScanDays:     []int{9, 12, 15},
		PrefixChangeFrac: 0.25, BlockChangeFrac: 0.1,
		BGPCoupleProb: 0.2, BGPNoisePerDay: 0.05,
		JoinFrac: 0.07, LeaveFrac: 0.07, TrafficGrowth: 0.6,
		Workers: 3,
	}

	d := &Data{}
	if err := d.Observe(MetaEvent{Meta: meta}); err != nil {
		t.Fatal(err)
	}

	randSet := func(n int) *ipv4.Set {
		s := ipv4.NewSet()
		for i := 0; i < n; i++ {
			s.Add(ipv4.Addr(0x0a000000 + r.Uint64()%(1<<16)))
		}
		return s
	}
	for i := 0; i < meta.Run.DailyLen; i++ {
		d.Observe(DayEvent{Index: i, Active: randSet(200), TotalHits: r.Float64() * 1e6})
	}
	for i := 0; i < meta.Run.NumWeeks(); i++ {
		d.Observe(WeekEvent{Index: i, Active: randSet(400), TopShare: r.Float64()})
	}
	for i := range meta.Run.ICMPScanDays {
		d.Observe(ICMPScanEvent{Index: i, Responders: randSet(100)})
	}
	for i := 0; i < 10; i++ {
		blk := ipv4.Block(0x0a0000 + uint32(i))
		bt := &BlockTraffic{}
		for h := 0; h < 256; h += 3 {
			bt.DaysActive[h] = uint16(r.Intn(15))
			bt.Hits[h] = r.Float64() * 1000
		}
		sketch := useragent.NewHLL(10)
		for j := 0; j < 50; j++ {
			sketch.Add(r.Uint64())
		}
		d.Observe(BlockStatsEvent{Block: blk, Traffic: bt,
			UA: &UAStat{Samples: 50 + i, Sketch: sketch}})
	}
	d.Observe(SurfacesEvent{Servers: randSet(50), Routers: randSet(20)})

	base := bgp.NewTable()
	var prefixes []ipv4.Prefix
	for i := 0; i < 9; i++ {
		p := ipv4.MustNewPrefix(ipv4.Addr(0x0a000000+uint32(i)<<12), 20)
		prefixes = append(prefixes, p)
		base.Insert(bgp.Route{Prefix: p, Origin: bgp.ASN(100 + i)})
	}
	log := bgp.NewChangeLog(base, meta.Run.Days)
	for day := 1; day < meta.Run.Days; day++ {
		if r.Intn(3) == 0 {
			log.Record(day, bgp.Change{
				Kind:      bgp.ChangeKind(r.Intn(3)),
				Prefix:    prefixes[r.Intn(len(prefixes))],
				OldOrigin: bgp.ASN(r.Intn(200)),
				NewOrigin: bgp.ASN(r.Intn(200)),
			})
		}
	}
	d.Observe(RoutingEvent{Log: log})
	d.Observe(RestructuresEvent{Restructures: []Restructure{
		{Prefix: prefixes[0], Day: 10, Kind: Deactivate, BGPVisible: true, BGPKind: bgp.Withdraw},
		{Prefix: prefixes[1], Day: 20, Kind: Activate},
		{Prefix: prefixes[2], Day: 3, Kind: PolicySwitch, BGPVisible: true, BGPKind: bgp.OriginChange},
	}})
	return d
}

// requireEqualData fails unless two datasets are observably identical:
// same sets, same float series bit for bit, same aggregates, sketches,
// routing history and ground truth.
func requireEqualData(t *testing.T, a, b *Data) {
	t.Helper()
	if !reflect.DeepEqual(a.Meta, b.Meta) {
		t.Fatalf("Meta differs:\n%+v\n%+v", a.Meta, b.Meta)
	}
	equalSets := func(name string, xs, ys []*ipv4.Set) {
		if len(xs) != len(ys) {
			t.Fatalf("%s: %d vs %d snapshots", name, len(xs), len(ys))
		}
		for i := range xs {
			if !xs[i].Equal(ys[i]) {
				t.Fatalf("%s[%d] differs", name, i)
			}
		}
	}
	equalSets("Daily", a.Daily, b.Daily)
	equalSets("Weekly", a.Weekly, b.Weekly)
	equalSets("ICMPScans", a.ICMPScans, b.ICMPScans)
	if !a.ServerSet.Equal(b.ServerSet) || !a.RouterSet.Equal(b.RouterSet) {
		t.Fatal("scan surfaces differ")
	}
	equalF64s := func(name string, xs, ys []float64) {
		if len(xs) != len(ys) {
			t.Fatalf("%s: length %d vs %d", name, len(xs), len(ys))
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(ys[i]) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, xs[i], ys[i])
			}
		}
	}
	equalF64s("DailyTotalHits", a.DailyTotalHits, b.DailyTotalHits)
	equalF64s("WeeklyTopShare", a.WeeklyTopShare, b.WeeklyTopShare)
	if len(a.Traffic) != len(b.Traffic) {
		t.Fatalf("Traffic: %d vs %d blocks", len(a.Traffic), len(b.Traffic))
	}
	for blk, at := range a.Traffic {
		bt := b.Traffic[blk]
		if bt == nil || *at != *bt {
			t.Fatalf("Traffic[%v] differs", blk)
		}
	}
	if len(a.UA) != len(b.UA) {
		t.Fatalf("UA: %d vs %d blocks", len(a.UA), len(b.UA))
	}
	for blk, au := range a.UA {
		bu := b.UA[blk]
		if bu == nil || au.Samples != bu.Samples ||
			!bytes.Equal(au.Sketch.Registers(), bu.Sketch.Registers()) {
			t.Fatalf("UA[%v] differs", blk)
		}
	}
	if !reflect.DeepEqual(a.Restructures, b.Restructures) {
		t.Fatal("Restructures differ")
	}
	if (a.Routing == nil) != (b.Routing == nil) {
		t.Fatal("Routing presence differs")
	}
	if a.Routing != nil {
		if !reflect.DeepEqual(a.Routing.DayChanges, b.Routing.DayChanges) {
			t.Fatal("Routing.DayChanges differ")
		}
		var ar, br []bgp.Route
		if a.Routing.Base != nil {
			ar = a.Routing.Base.Routes()
		}
		if b.Routing.Base != nil {
			br = b.Routing.Base.Routes()
		}
		if !reflect.DeepEqual(ar, br) {
			t.Fatal("Routing.Base routes differ")
		}
	}
}

// TestCodecRoundTrip is the codec's core property: write→read over
// several generated datasets reproduces the Source exactly.
func TestCodecRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := sampleData(t, seed)
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireEqualData(t, d, got)
	}
}

// TestCodecDeterministic: equal datasets encode to identical bytes.
func TestCodecDeterministic(t *testing.T) {
	d := sampleData(t, 3)
	var b1, b2 bytes.Buffer
	if err := Write(&b1, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("canonical encoding is not deterministic")
	}
}

// TestCodecStreaming: a Writer used as a live Sink (events one by one)
// produces a decodable stream equal to the source.
func TestCodecStreaming(t *testing.T) {
	d := sampleData(t, 4)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := d.WriteTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualData(t, d, got)
}

// TestFrames pins the frame seam a checkpoint journal stores events
// through: AppendFrame's bytes are the stream's own (header and end frame
// aside, a Writer's output is its frames back to back), DecodeFrames
// gives the events back, and a buffer that is cut anywhere inside a frame
// or announces more than it holds fails typed.
func TestFrames(t *testing.T) {
	d := sampleData(t, 4)
	var stream bytes.Buffer
	if err := Write(&stream, d); err != nil {
		t.Fatal(err)
	}
	var frames []byte
	var starts []int
	err := d.WriteTo(SinkFunc(func(e Event) error {
		starts = append(starts, len(frames))
		var err error
		frames, err = AppendFrame(frames, e)
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	body := stream.Bytes()[len(magic)+2 : stream.Len()-5]
	if !bytes.Equal(frames, body) {
		t.Fatalf("AppendFrame wrote %d bytes, the stream carries %d for the same events", len(frames), len(body))
	}
	events, err := DecodeFrames(frames)
	if err != nil || len(events) != len(starts) {
		t.Fatalf("DecodeFrames: %d events, %v; want %d", len(events), err, len(starts))
	}
	got := &Data{}
	for _, e := range events {
		if err := got.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	requireEqualData(t, d, got)

	var typed *binenc.Error
	for _, start := range starts {
		for _, cut := range []int{start + 1, start + 4, start + 5} {
			if _, err := DecodeFrames(frames[:cut]); cut < len(frames) && !errors.As(err, &typed) {
				t.Fatalf("frames cut at byte %d (frame at %d): %v, want a *binenc.Error", cut, start, err)
			}
		}
	}
	hostile := append(bytes.Clone(frames[:starts[1]]), kindDay, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodeFrames(hostile); !errors.As(err, &typed) {
		t.Fatalf("a frame announcing 4 GiB: %v, want a *binenc.Error", err)
	}
}

// TestCodecTruncated: every proper prefix of a valid stream must fail
// with a typed error — never a panic, never silent success.
func TestCodecTruncated(t *testing.T) {
	d := sampleData(t, 2)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cutting anywhere strictly before the end frame must error; step
	// through a spread of offsets including every boundary-ish region.
	step := len(full)/997 + 1
	for cut := 0; cut < len(full); cut += step {
		_, err := Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d silently succeeded", cut, len(full))
		}
		var fe *binenc.Error
		if !errors.Is(err, ErrTruncated) && !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// TestHostileFrameHeader: the 5-byte frame header is unauthenticated, so
// a header announcing 200 MiB followed by EOF must report truncation
// without the decoder having allocated for the announced length (its
// 1 MiB read buffer plus ReadPayload's first 512 KiB chunk is all).
func TestHostileFrameHeader(t *testing.T) {
	stream := append([]byte{}, magic...)
	stream = be.U16(stream, Version)
	stream = append(stream, kindDay)
	stream = be.U32(stream, 200<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := StreamDecode(bytes.NewReader(stream), &Data{})
	runtime.ReadMemStats(&after)
	if err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("%d bytes allocated for a 200 MiB frame that never arrived", got)
	}
}

// TestHostileSetFrames: a set is a count and that many 36-byte
// (block, bitmap) records, decoded in bulk. A repeated block unions, an
// all-zero bitmap leaves no block behind, and neither a count the
// payload cannot back nor a decoder that has already failed may reach
// the record loop.
func TestHostileSetFrames(t *testing.T) {
	rec := func(b []byte, blk uint32, words ...uint64) []byte {
		b = be.U32(b, blk)
		for i := 0; i < 4; i++ {
			var w uint64
			if i < len(words) {
				w = words[i]
			}
			b = be.U64(b, w)
		}
		return b
	}
	icmp := func(count uint32, recs []byte) []byte {
		p := be.U32(nil, 0) // scan index
		p = be.U32(p, count)
		return append(p, recs...)
	}
	var fe *binenc.Error

	t.Run("repeated-block-unions", func(t *testing.T) {
		recs := rec(nil, 7, 0b0011)
		recs = rec(recs, 9, 1)
		recs = rec(recs, 7, 0b0110, 0, 0, 1<<63)
		e, err := decodeEvent(kindICMP, icmp(3, recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := e.(ICMPScanEvent).Responders
		if s.NumBlocks() != 2 || s.Len() != 5 || s.BlockCount(7) != 4 ||
			!s.Contains(ipv4.Block(7).Addr(255)) || !s.Contains(ipv4.Block(9).Addr(0)) {
			t.Fatalf("blocks=%d len=%d block7=%d, want 2, 5, 4", s.NumBlocks(), s.Len(), s.BlockCount(7))
		}
	})
	t.Run("empty-bitmap-skipped", func(t *testing.T) {
		recs := rec(nil, 7)
		recs = rec(recs, 9, 0, 2)
		e, err := decodeEvent(kindICMP, icmp(2, recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := e.(ICMPScanEvent).Responders
		if s.NumBlocks() != 1 || s.Len() != 1 || s.BlockBitmap(7) != nil {
			t.Fatalf("blocks=%d len=%d, want only block 9", s.NumBlocks(), s.Len())
		}
	})
	t.Run("count-exceeds-payload", func(t *testing.T) {
		recs := rec(rec(nil, 7, 1), 9, 1)
		for _, count := range []uint32{3, 1 << 31, 1<<32 - 1} {
			if _, err := decodeEvent(kindICMP, icmp(count, recs), nil); !errors.As(err, &fe) {
				t.Fatalf("count %d over 2 records: got %v, want *binenc.Error", count, err)
			}
		}
	})
	t.Run("failed-decoder", func(t *testing.T) {
		// A surfaces frame is two sets back to back: the second is read
		// from a decoder the first has already failed.
		p := be.U32(nil, 5)
		p = rec(p, 7, 1)
		p = be.U32(p, 1)
		p = rec(p, 9, 1)
		if _, err := decodeEvent(kindSurfaces, p, nil); !errors.As(err, &fe) {
			t.Fatalf("got %v, want *binenc.Error", err)
		}
		d := binenc.NewDec(be, formatName, be.U32(nil, 1))
		d.Failf("failed upstream")
		if s := decodeSet(d, nil); s.Len() != 0 {
			t.Fatalf("a failed decoder yielded %d addresses", s.Len())
		}
	})
}

// TestCodecCorrupt: flipped bytes must produce typed errors (or, for
// payload-internal flips that stay structurally valid, decode to
// different data) — and must never panic.
func TestCodecCorrupt(t *testing.T) {
	d := sampleData(t, 2)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		bad[0] ^= 0xFF
		var fe *binenc.Error
		if _, err := Decode(bytes.NewReader(bad)); !errors.As(err, &fe) {
			t.Fatalf("bad magic: got %v, want *binenc.Error", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		bad[len(magic)] ^= 0xFF
		var fe *binenc.Error
		if _, err := Decode(bytes.NewReader(bad)); !errors.As(err, &fe) {
			t.Fatalf("bad version: got %v, want *binenc.Error", err)
		}
	})
	t.Run("frame-length", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		// First frame header starts after magic+version; blow up its
		// length field.
		off := len(magic) + 2 + 1
		bad[off] = 0xFF
		_, err := Decode(bytes.NewReader(bad))
		var fe *binenc.Error
		if !errors.Is(err, ErrTruncated) && !errors.As(err, &fe) {
			t.Fatalf("corrupt length: got %v, want typed error", err)
		}
	})
	t.Run("index-out-of-range", func(t *testing.T) {
		// A well-framed event whose index lies outside the geometry the
		// meta frame declared must fail decoding, not silently leave a
		// hole in the dataset.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		meta := d.Meta
		if err := w.Observe(MetaEvent{Meta: meta}); err != nil {
			t.Fatal(err)
		}
		if err := w.Observe(DayEvent{Index: meta.Run.DailyLen + 3, Active: ipv4.NewSet()}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var fe *binenc.Error
		if _, err := Decode(&buf); !errors.As(err, &fe) {
			t.Fatalf("out-of-range index: got %v, want *binenc.Error", err)
		}
	})
	t.Run("sweep", func(t *testing.T) {
		// Flip a byte at a spread of positions; decoding must never
		// panic, whatever the outcome.
		step := len(full)/499 + 1
		for off := 0; off < len(full); off += step {
			bad := append([]byte(nil), full...)
			bad[off] ^= 0x55
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic decoding corruption at %d: %v", off, r)
					}
				}()
				_, _ = Decode(bytes.NewReader(bad))
			}()
		}
	})
}

// TestSourceInterfaces: *Data is the Source of itself, and the same
// dataset comes back from a file.
func TestSourceInterfaces(t *testing.T) {
	d := sampleData(t, 6)
	got, err := d.Observations()
	if err != nil || got != d {
		t.Fatalf("Data.Observations: %v %v", got, err)
	}
	path := t.TempDir() + "/dataset.obs"
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	fromFile, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualData(t, d, fromFile)
}

// TestMetaWorldBounds: a corrupt meta frame with an implausible world
// config must fail decoding instead of driving world regeneration into
// a giant allocation downstream. The negative cases are the ones a
// 32-bit int(d.U32()) wraps into; with a 64-bit int they decode as
// huge positives and trip the upper bounds.
func TestMetaWorldBounds(t *testing.T) {
	for _, world := range [][2]int{{1 << 23, 1 << 10}, {-1, 6}, {24, -1}, {-4, -4}} {
		m := Meta{}
		m.World.NumASes, m.World.MeanBlocksPerAS = world[0], world[1]
		m.Run.Days, m.Run.DailyLen = 7, 7
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Observe(MetaEvent{Meta: m}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var fe *binenc.Error
		if _, err := Decode(&buf); !errors.As(err, &fe) {
			t.Fatalf("world config ases=%d blocksPerAS=%d: got %v, want *binenc.Error", world[0], world[1], err)
		}
	}
}
