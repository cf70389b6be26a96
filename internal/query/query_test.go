package query

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"ipscope/internal/bgp"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

func testData(t testing.TB) *obs.Data {
	t.Helper()
	w := synthnet.Generate(synthnet.TinyConfig())
	res := sim.Run(w, sim.TinyConfig())
	return &res.Data
}

func testIndex(t testing.TB) *Index {
	t.Helper()
	idx, err := Build(testData(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestBuildBlockViewsMatchCore(t *testing.T) {
	d := testData(t)
	idx, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumBlocks() == 0 {
		t.Fatal("no indexed blocks")
	}
	checkAgainstCore(t, idx, d)
}

// checkAgainstCore holds idx to the oracle that shares no code with the
// index compiler: the batch definitions in internal/core, evaluated
// over the dataset d the index was built (or streamed) from.
func checkAgainstCore(t *testing.T, idx *Index, d *obs.Data) {
	t.Helper()
	if got, want := idx.NumBlocks(), len(core.ActiveBlocks(d.Daily)); got != want {
		t.Fatalf("NumBlocks = %d, want %d", got, want)
	}
	for _, blk := range idx.Blocks() {
		v, ok := idx.Block(blk)
		if !ok {
			t.Fatalf("Block(%v) missing", blk)
		}
		if want := core.FillingDegree(d.Daily, blk); v.FD != want {
			t.Errorf("%v: FD = %d, want %d", blk, v.FD, want)
		}
		if want := core.STU(d.Daily, blk); v.STU != want {
			t.Errorf("%v: STU = %v, want %v", blk, v.STU, want)
		}
		var hits float64
		if bt := d.Traffic[blk]; bt != nil {
			for h := 0; h < 256; h++ {
				hits += bt.Hits[h]
			}
		}
		if v.TotalHits != hits {
			t.Errorf("%v: TotalHits = %v, want %v", blk, v.TotalHits, hits)
		}
	}

	asOf := synthnet.Generate(d.Meta.World).ASOf
	sum := idx.Summary()
	if want := core.Summarize(d.Daily, asOf); sum.Daily != want {
		t.Errorf("Summary.Daily = %+v, want %+v", sum.Daily, want)
	}
	if want := core.Summarize(d.Weekly, asOf); sum.Weekly != want {
		t.Errorf("Summary.Weekly = %+v, want %+v", sum.Weekly, want)
	}
	p := idx.SummaryPartial()
	churn := core.ChurnSeries(d.Daily)
	if len(p.Ups) != len(churn) || len(p.Downs) != len(churn) {
		t.Fatalf("%d up and %d down counts, want %d transitions", len(p.Ups), len(p.Downs), len(churn))
	}
	for i, c := range churn {
		if p.Ups[i] != c.Up || p.Downs[i] != c.Down {
			t.Errorf("transition %d: up/down = %d/%d, want %d/%d", i, p.Ups[i], p.Downs[i], c.Up, c.Down)
		}
	}
}

// TestASSetsMatchReference holds Table 1's daily and weekly AS series,
// live (Observe, then the published SummaryPartial) and batch (Build's
// fill), to their definition: the world AS (ASOf) of each active block,
// AS 0 dropped, ascending and distinct. The applier's own sets are never
// nil; a published one is nil when empty, as clone makes it. The
// datasets cover the tiny run, cuts on both sides of a timeline word
// boundary, a shard's restricted build, and days and weeks with active
// space the world does not route (AS 0, which no set may count).
func TestASSetsMatchReference(t *testing.T) {
	d := testData(t)
	long := sim.TinyConfig()
	long.Days, long.DailyStart, long.DailyLen = 98, 14, 70
	longData := &sim.Run(synthnet.Generate(synthnet.TinyConfig()), long).Data

	mid := core.ActiveBlocks(d.Daily)[len(core.ActiveBlocks(d.Daily))/2]
	upper := func(b ipv4.Block) bool { return b >= mid }
	shard, err := obs.FilterSource(d, upper).Observations()
	if err != nil {
		t.Fatal(err)
	}

	world := synthnet.Generate(d.Meta.World)
	unrouted := ipv4.Block(0)
	for world.ASOf(unrouted) != 0 {
		unrouted++
	}
	stray := *d
	stray.Daily, stray.Weekly = slices.Clone(d.Daily), slices.Clone(d.Weekly)
	for _, sets := range [][]*ipv4.Set{stray.Daily, stray.Weekly} {
		for i := 0; i < len(sets); i += 3 {
			sets[i] = sets[i].Clone()
			sets[i].Add(unrouted.Addr(7))
		}
	}

	for _, c := range []struct {
		name string
		d    *obs.Data
		opts Options
	}{
		{"tiny", d, Options{}},
		{"TruncateLive(64)", longData.TruncateLive(64), Options{}},
		{"TruncateLive(65)", longData.TruncateLive(65), Options{}},
		{"keep", shard, Options{Keep: upper}},
		{"unrouted", &stray, Options{}},
	} {
		world := synthnet.Generate(c.d.Meta.World)
		live := NewApplier(c.opts)
		if err := c.d.WriteTo(live); err != nil {
			t.Fatal(err)
		}
		batch := NewApplier(c.opts)
		if err := batch.applyMeta(obs.MetaEvent{Meta: c.d.Meta}); err != nil {
			t.Fatal(err)
		}
		batch.fill(c.d)
		for _, side := range []struct {
			name string
			a    *Applier
		}{{"live", live}, {"batch", batch}} {
			a := side.a
			if a.weeks == 0 {
				t.Fatalf("%s %s: no weekly snapshot", c.name, side.name)
			}
			x, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			p := x.SummaryPartial()
			for _, series := range []struct {
				name            string
				held, published [][]uint32
				sets            []*ipv4.Set
			}{
				{"day", a.dSum.SnapASes, p.Daily.SnapASes, c.d.Daily},
				{"week", a.wSum.SnapASes, p.Weekly.SnapASes, c.d.Weekly[:a.weeks]},
			} {
				name := c.name + " " + side.name + " " + series.name
				if len(series.held) != len(series.sets) || len(series.published) != len(series.sets) {
					t.Fatalf("%s: %d held and %d published AS sets, want %d",
						name, len(series.held), len(series.published), len(series.sets))
				}
				for i, s := range series.sets {
					want := refASes(s, world)
					if got := series.held[i]; got == nil || !slices.Equal(got, want) {
						t.Fatalf("%s %d: held AS set %#v, want %v", name, i, got, want)
					}
					if got := series.published[i]; (got == nil) != (len(want) == 0) || !slices.Equal(got, want) {
						t.Fatalf("%s %d: published AS set %#v, want %v", name, i, got, want)
					}
				}
			}
		}
	}
}

// refASes is Table 1's AS set of s by definition: the world AS of each
// active block grouped, AS 0 dropped, sorted, never nil.
func refASes(s *ipv4.Set, world *synthnet.World) []uint32 {
	byAS := map[bgp.ASN]bool{}
	s.ForEachBlock(func(blk ipv4.Block, _ *ipv4.Bitmap256) { byAS[world.ASOf(blk)] = true })
	delete(byAS, 0)
	out := []uint32{}
	for as := range byAS {
		out = append(out, uint32(as))
	}
	slices.Sort(out)
	return out
}

func TestAddrTimeline(t *testing.T) {
	d := testData(t)
	idx, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Walk a handful of active addresses and verify the packed timeline
	// against the raw daily sets.
	checked := 0
	for _, blk := range idx.Blocks() {
		if checked >= 5 {
			break
		}
		bm := ipv4.UnionAll(d.Daily, 0).BlockBitmap(blk)
		var addr ipv4.Addr
		found := false
		bm.ForEach(func(h byte) {
			if !found {
				addr, found = blk.Addr(h), true
			}
		})
		if !found {
			continue
		}
		checked++
		v := idx.Addr(addr)
		if !v.Active {
			t.Fatalf("%v should be active", addr)
		}
		days, first, last := 0, -1, -1
		for day, s := range d.Daily {
			if s.Contains(addr) {
				days++
				if first < 0 {
					first = day
				}
				last = day
			}
		}
		if v.ActiveDays != days || v.FirstDay != first || v.LastDay != last {
			t.Errorf("%v: days/first/last = %d/%d/%d, want %d/%d/%d",
				addr, v.ActiveDays, v.FirstDay, v.LastDay, days, first, last)
		}
		if v.Timeline == "" {
			t.Errorf("%v: empty timeline", addr)
		}
	}
	if checked == 0 {
		t.Fatal("no active addresses checked")
	}

	// An address in never-active space: enriched but inactive.
	v := idx.Addr(ipv4.MustParseAddr("203.0.113.9"))
	if v.Active || v.ActiveDays != 0 || v.FirstDay != -1 {
		t.Errorf("inactive addr view: %+v", v)
	}
	if v.RIR == "" || v.RDNS == "" {
		t.Errorf("inactive addr should still be enriched: %+v", v)
	}
}

func TestPrefixAggregate(t *testing.T) {
	idx := testIndex(t)
	blk := idx.Blocks()[0]
	p := ipv4.MustNewPrefix(blk.First(), 20)
	v, err := idx.Prefix(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v.ActiveBlocks == 0 {
		t.Fatal("prefix over an active block reports no active blocks")
	}
	// Aggregate must equal the sum over the covered block views.
	var fd int
	var hits float64
	for _, b := range idx.Blocks() {
		if p.Contains(b.First()) {
			bv, _ := idx.Block(b)
			fd += bv.FD
			hits += bv.TotalHits
		}
	}
	if v.ActiveAddrs != fd {
		t.Errorf("ActiveAddrs = %d, want %d", v.ActiveAddrs, fd)
	}
	if v.TotalHits != hits {
		t.Errorf("TotalHits = %v, want %v", v.TotalHits, hits)
	}
	if len(v.Origins) == 0 {
		t.Error("no origins")
	}

	if _, err := idx.Prefix(ipv4.MustParsePrefix("0.0.0.0/0"), 0); err == nil {
		t.Error("too-broad prefix should be rejected")
	}
}

// TestPrefixTruncation pins the explicit-truncation contract: a
// response whose block list was capped by maxBlocks must say so, a
// response that fits exactly must not, and the aggregate fields must
// cover every active block either way — including for the widest
// accepted prefix (/8).
func TestPrefixTruncation(t *testing.T) {
	idx := testIndex(t)
	blk := idx.Blocks()[0]

	// The /8 covering the first active block: count its active blocks.
	wide := ipv4.MustNewPrefix(blk.First(), 8)
	active := 0
	for _, b := range idx.Blocks() {
		if wide.Contains(b.First()) {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("fixture has %d active blocks under %v; need >= 2", active, wide)
	}

	t.Run("capped", func(t *testing.T) {
		v, err := idx.Prefix(wide, active-1)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Truncated {
			t.Error("capped /8 response not marked truncated")
		}
		if len(v.BlockList) != active-1 {
			t.Errorf("BlockList has %d entries, want %d", len(v.BlockList), active-1)
		}
		if v.ActiveBlocks != active {
			t.Errorf("ActiveBlocks = %d, want %d (aggregate must ignore the cap)", v.ActiveBlocks, active)
		}
	})

	t.Run("exact-fit", func(t *testing.T) {
		v, err := idx.Prefix(wide, active)
		if err != nil {
			t.Fatal(err)
		}
		if v.Truncated {
			t.Error("exact-fit response marked truncated")
		}
		if len(v.BlockList) != active {
			t.Errorf("BlockList has %d entries, want %d", len(v.BlockList), active)
		}
	})

	t.Run("no-list", func(t *testing.T) {
		v, err := idx.Prefix(wide, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v.Truncated || v.BlockList != nil {
			t.Errorf("maxBlocks=0 should omit the list without truncation: %+v", v)
		}
	})

	t.Run("narrow-boundary", func(t *testing.T) {
		p := ipv4.MustNewPrefix(blk.First(), 24)
		v, err := idx.Prefix(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v.Truncated || len(v.BlockList) != 1 {
			t.Errorf("single-block prefix at maxBlocks=1: truncated=%v list=%d", v.Truncated, len(v.BlockList))
		}
	})
}

func TestASFootprint(t *testing.T) {
	idx := testIndex(t)
	if len(idx.ASNs()) == 0 {
		t.Fatal("no ASes")
	}
	// Per-AS active blocks must partition the indexed blocks.
	total := 0
	for _, asn := range idx.ASNs() {
		v, ok := idx.AS(asn)
		if !ok {
			t.Fatalf("AS(%v) missing", asn)
		}
		total += v.ActiveBlocks
	}
	if total != idx.NumBlocks() {
		t.Errorf("sum of per-AS active blocks = %d, want %d", total, idx.NumBlocks())
	}
	if _, ok := idx.AS(bgp.ASN(1)); ok {
		t.Error("unknown ASN should miss")
	}
}

// marshalIndex dumps every externally visible view of the index, the
// equality witness for the parallel-equivalence test.
func marshalIndex(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	check := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	check(idx.Summary())
	for _, blk := range idx.Blocks() {
		v, _ := idx.Block(blk)
		check(v)
		check(idx.Addr(blk.Addr(0)))
		check(idx.Addr(blk.Addr(137)))
	}
	for _, asn := range idx.ASNs() {
		v, _ := idx.AS(asn)
		check(v)
	}
	for _, blk := range idx.Blocks() {
		p := ipv4.MustNewPrefix(blk.First(), 20)
		v, err := idx.Prefix(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		check(v)
	}
	return buf.Bytes()
}

func TestBuildParallelEquivalence(t *testing.T) {
	d := testData(t)
	one, err := Build(d, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Build(d, Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := marshalIndex(t, one), marshalIndex(t, many)
	if !bytes.Equal(a, b) {
		t.Fatalf("index differs between 1 and 7 workers (%d vs %d bytes)", len(a), len(b))
	}

	// The fan-out is the caller's: the shard count the dataset's producer
	// recorded in its meta bounds nothing here and changes nothing.
	stamped := *d
	stamped.Meta.Run.Workers = d.Meta.Run.Workers + 12
	other, err := Build(&stamped, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := marshalIndex(t, other); !bytes.Equal(a, c) {
		t.Fatalf("index differs when the dataset records %d producer workers (%d vs %d bytes)",
			stamped.Meta.Run.Workers, len(a), len(c))
	}
}

func TestBuildRejectsEmptyDataset(t *testing.T) {
	if _, err := Build(&obs.Data{}, Options{}); err == nil {
		t.Fatal("empty dataset should be rejected")
	}
}
