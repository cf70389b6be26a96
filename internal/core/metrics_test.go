package core

import (
	"math"
	"testing"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
	"ipscope/internal/registry"
	"ipscope/internal/stats"
)

func blockWith(blk ipv4.Block, hosts ...byte) *ipv4.Set {
	s := ipv4.NewSet()
	for _, h := range hosts {
		s.Add(blk.Addr(h))
	}
	return s
}

func TestFillingDegreeAndSTU(t *testing.T) {
	blk := ipv4.MustParseAddr("10.0.0.0").Block()
	daily := []*ipv4.Set{
		blockWith(blk, 1, 2),
		blockWith(blk, 2, 3),
		blockWith(blk, 1),
		nil,
	}
	if got := FillingDegree(daily, blk); got != 3 {
		t.Errorf("FD = %d, want 3", got)
	}
	// STU = (2+2+1+0) / (4*256)
	want := 5.0 / (4 * 256)
	if got := STU(daily, blk); math.Abs(got-want) > 1e-12 {
		t.Errorf("STU = %v, want %v", got, want)
	}
	if STU(nil, blk) != 0 {
		t.Error("empty STU should be 0")
	}
	other := ipv4.MustParseAddr("99.0.0.0").Block()
	if FillingDegree(daily, other) != 0 || STU(daily, other) != 0 {
		t.Error("absent block should be 0")
	}
}

func TestSTUBounds(t *testing.T) {
	blk := ipv4.MustParseAddr("10.0.0.0").Block()
	full := ipv4.NewSet()
	var bm ipv4.Bitmap256
	for i := 0; i < 256; i++ {
		bm.Set(byte(i))
	}
	full.AddBlockBitmap(blk, &bm)
	daily := []*ipv4.Set{full, full}
	if got := STU(daily, blk); got != 1 {
		t.Errorf("fully active STU = %v", got)
	}
}

func TestBlockDailyBitmaps(t *testing.T) {
	blk := ipv4.MustParseAddr("10.0.0.0").Block()
	daily := []*ipv4.Set{blockWith(blk, 5), nil, blockWith(blk, 7)}
	bms := BlockDailyBitmaps(daily, blk)
	if len(bms) != 3 {
		t.Fatal("length")
	}
	if !bms[0].Test(5) || !bms[1].IsEmpty() || !bms[2].Test(7) {
		t.Error("bitmap extraction wrong")
	}
}

func TestMonthlySTUAndChange(t *testing.T) {
	blk := ipv4.MustParseAddr("10.0.0.0").Block()
	// Month 1: 2 active/day; month 2: 200 active/day.
	var lo, hi ipv4.Bitmap256
	for i := 0; i < 2; i++ {
		lo.Set(byte(i))
	}
	for i := 0; i < 200; i++ {
		hi.Set(byte(i))
	}
	var daily []*ipv4.Set
	for d := 0; d < 10; d++ {
		s := ipv4.NewSet()
		if d < 5 {
			s.AddBlockBitmap(blk, &lo)
		} else {
			s.AddBlockBitmap(blk, &hi)
		}
		daily = append(daily, s)
	}
	series := MonthlySTU(daily, blk, 5)
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	d := MaxMonthlySTUChange(daily, blk, 5)
	want := (200.0 - 2.0) / 256
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("ΔSTU = %v, want %v", d, want)
	}
	// Sign is preserved for decreases.
	rev := []*ipv4.Set{daily[5], daily[6], daily[7], daily[8], daily[9],
		daily[0], daily[1], daily[2], daily[3], daily[4]}
	if got := MaxMonthlySTUChange(rev, blk, 5); math.Abs(got+want) > 1e-9 {
		t.Errorf("negative ΔSTU = %v, want %v", got, -want)
	}
	if MonthlySTU(daily, blk, 0) != nil {
		t.Error("daysPerMonth 0")
	}
}

func TestDetectChange(t *testing.T) {
	stable := ipv4.MustParseAddr("10.0.0.0").Block()
	major := ipv4.MustParseAddr("10.0.1.0").Block()
	var few, many ipv4.Bitmap256
	few.Set(1)
	for i := 0; i < 128; i++ {
		many.Set(byte(i))
	}
	var daily []*ipv4.Set
	for d := 0; d < 8; d++ {
		s := ipv4.NewSet()
		s.AddBlockBitmap(stable, &few)
		if d < 4 {
			s.AddBlockBitmap(major, &few)
		} else {
			s.AddBlockBitmap(major, &many)
		}
		daily = append(daily, s)
	}
	cs := DetectChange(daily, 4, 0.25)
	if len(cs.Stable) != 1 || cs.Stable[0] != stable {
		t.Errorf("stable = %v", cs.Stable)
	}
	if len(cs.Major) != 1 || cs.Major[0] != major {
		t.Errorf("major = %v", cs.Major)
	}
	if got := cs.MajorFraction(); got != 0.5 {
		t.Errorf("MajorFraction = %v", got)
	}
	if len(cs.Deltas) != 2 {
		t.Errorf("Deltas = %v", cs.Deltas)
	}
}

func TestEstimatePotential(t *testing.T) {
	sparse := ipv4.MustParseAddr("10.0.0.0").Block() // FD 2
	pool := ipv4.MustParseAddr("10.0.1.0").Block()   // FD 256, low STU
	busy := ipv4.MustParseAddr("10.0.2.0").Block()   // FD 256, high STU

	var daily []*ipv4.Set
	for d := 0; d < 8; d++ {
		s := ipv4.NewSet()
		var bmSparse, bmPool, bmBusy ipv4.Bitmap256
		bmSparse.Set(0)
		bmSparse.Set(1)
		// Pool cycles 32 addresses per day over 8 days: FD 256, STU .125.
		for i := 0; i < 32; i++ {
			bmPool.Set(byte(d*32 + i))
		}
		for i := 0; i < 256; i++ {
			bmBusy.Set(byte(i))
		}
		s.AddBlockBitmap(sparse, &bmSparse)
		s.AddBlockBitmap(pool, &bmPool)
		s.AddBlockBitmap(busy, &bmBusy)
		daily = append(daily, s)
	}
	blocks := []ipv4.Block{sparse, pool, busy}
	p := EstimatePotential(daily, blocks)
	if p.ActiveBlocks != 3 || p.LowFDBlocks != 1 || p.DynamicHighFD != 2 || p.DynamicLowSTU != 1 {
		t.Errorf("potential = %+v", p)
	}
	if p.FreeableAddrs <= 0 || p.FreeableAddrs > 256 {
		t.Errorf("FreeableAddrs = %d", p.FreeableAddrs)
	}
}

func TestCompareIPsAndBlocks(t *testing.T) {
	a := setOf("10.0.0.1", "10.0.0.2", "20.0.0.1")
	b := setOf("10.0.0.2", "30.0.0.1")
	v := CompareIPs(a, b)
	if v.OnlyA != 2 || v.Both != 1 || v.OnlyB != 1 {
		t.Errorf("ip visibility = %+v", v)
	}
	if v.Total() != 4 {
		t.Errorf("total = %d", v.Total())
	}
	if math.Abs(v.FractionOnlyA()-0.5) > 1e-9 {
		t.Errorf("fracA = %v", v.FractionOnlyA())
	}
	vb := CompareBlocks(a, b)
	if vb.OnlyA != 1 || vb.Both != 1 || vb.OnlyB != 1 {
		t.Errorf("block visibility = %+v", vb)
	}
}

func TestCompareGrouped(t *testing.T) {
	tbl := bgp.NewTable()
	tbl.Insert(bgp.Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Origin: 1})
	tbl.Insert(bgp.Route{Prefix: ipv4.MustParsePrefix("20.0.0.0/8"), Origin: 2})
	a := setOf("10.0.0.1", "10.1.0.1")
	b := setOf("20.0.0.1")
	v := CompareGrouped(a, b, ASGrouper(tbl))
	if v.OnlyA != 1 || v.OnlyB != 1 || v.Both != 0 {
		t.Errorf("AS visibility = %+v", v)
	}
	// Unrouted blocks (zero group) ignored.
	c := setOf("99.0.0.1")
	v2 := CompareGrouped(c, b, ASGrouper(tbl))
	if v2.OnlyA != 0 {
		t.Errorf("unrouted not ignored: %+v", v2)
	}
	vp := CompareGrouped(a, b, PrefixGrouper(tbl))
	if vp.Total() != 2 {
		t.Errorf("prefix visibility = %+v", vp)
	}
}

func TestGroupByRIRAndCountry(t *testing.T) {
	reg := registry.NewTable([]registry.Allocation{
		{Prefix: ipv4.MustParsePrefix("10.0.0.0/16"), Country: "US", RIR: registry.ARIN},
		{Prefix: ipv4.MustParsePrefix("20.0.0.0/16"), Country: "DE", RIR: registry.RIPE},
	})
	cdn := setOf("10.0.0.1", "10.0.0.2", "10.0.0.3", "20.0.0.1")
	icmp := setOf("10.0.0.2", "20.0.0.9")
	byRIR := GroupByRIR(cdn, icmp, reg)
	var arin, ripe RegionVisibility
	for _, rv := range byRIR {
		switch rv.Label {
		case "ARIN":
			arin = rv
		case "RIPE":
			ripe = rv
		}
	}
	if arin.OnlyCDN != 2 || arin.Both != 1 || arin.Only != 0 {
		t.Errorf("ARIN = %+v", arin)
	}
	if ripe.OnlyCDN != 1 || ripe.Only != 1 {
		t.Errorf("RIPE = %+v", ripe)
	}
	byCountry := GroupByCountry(cdn, icmp, reg, 10)
	if len(byCountry) != 2 || byCountry[0].Label != "US" {
		t.Errorf("countries = %+v", byCountry)
	}
	if top1 := GroupByCountry(cdn, icmp, reg, 1); len(top1) != 1 {
		t.Errorf("topK = %+v", top1)
	}
}

func TestClassifyICMPOnly(t *testing.T) {
	icmpOnly := setOf("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")
	servers := setOf("10.0.0.1", "10.0.0.2")
	routers := setOf("10.0.0.2", "10.0.0.3")
	got := ClassifyICMPOnly(icmpOnly, servers, routers)
	if got[ClassServer] != 1 || got[ClassServerRouter] != 1 || got[ClassRouter] != 1 || got[ClassUnknown] != 1 {
		t.Errorf("classification = %v", got)
	}
	for c, want := range map[ICMPOnlyClass]string{
		ClassServer: "server", ClassRouter: "router",
		ClassServerRouter: "server/router", ClassUnknown: "unknown",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestRecapture(t *testing.T) {
	// Known population: N=1000, samples 500 and 400 with overlap 200
	// → LP = 500*400/200 = 1000.
	e, err := Recapture(500, 400, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.LincolnPetersen-1000) > 1e-9 {
		t.Errorf("LP = %v", e.LincolnPetersen)
	}
	if math.Abs(e.Chapman-1000) > 5 {
		t.Errorf("Chapman = %v", e.Chapman)
	}
	if e.CI95Lo > e.Chapman || e.CI95Hi < e.Chapman {
		t.Errorf("CI [%v,%v] excludes estimate", e.CI95Lo, e.CI95Hi)
	}
	if e.SE <= 0 {
		t.Errorf("SE = %v", e.SE)
	}
	inv := e.InvisibleEstimate()
	if math.Abs(inv-(1000-700)) > 10 {
		t.Errorf("invisible = %v, want ~300", inv)
	}
	// Errors.
	if _, err := Recapture(10, 10, 20); err == nil {
		t.Error("m > n1 must error")
	}
	if _, err := Recapture(10, 10, 0); err == nil {
		t.Error("zero overlap must error")
	}
}

func TestRecaptureSets(t *testing.T) {
	a := setOf("10.0.0.1", "10.0.0.2", "10.0.0.3")
	b := setOf("10.0.0.2", "10.0.0.3", "10.0.0.4")
	e, err := RecaptureSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if e.N1 != 3 || e.N2 != 3 || e.Both != 2 {
		t.Errorf("inputs = %+v", e)
	}
	if math.Abs(e.LincolnPetersen-4.5) > 1e-9 {
		t.Errorf("LP = %v", e.LincolnPetersen)
	}
}

func TestBinByDaysActive(t *testing.T) {
	addrs := []IPTraffic{
		{Addr: ipv4.MustParseAddr("10.0.0.1"), DaysActive: 1, Hits: 10},
		{Addr: ipv4.MustParseAddr("10.0.0.2"), DaysActive: 1, Hits: 30},
		{Addr: ipv4.MustParseAddr("10.0.0.3"), DaysActive: 4, Hits: 4000},
		{Addr: ipv4.MustParseAddr("10.0.0.4"), DaysActive: 0, Hits: 5},  // dropped
		{Addr: ipv4.MustParseAddr("10.0.0.5"), DaysActive: 9, Hits: 99}, // dropped
	}
	tb := BinByDaysActive(4, func(yield func(IPTraffic)) {
		for _, a := range addrs {
			yield(a)
		}
	})
	if tb.TotalIPs() != 3 {
		t.Fatalf("total IPs = %d", tb.TotalIPs())
	}
	if tb.Count[0] != 2 || tb.Count[3] != 1 {
		t.Errorf("counts = %v", tb.Count)
	}
	if tb.DailyHitPercentiles[0][2] != 20 { // median of 10, 30
		t.Errorf("median bin1 = %v", tb.DailyHitPercentiles[0])
	}
	if tb.DailyHitPercentiles[3][2] != 1000 {
		t.Errorf("median bin4 = %v", tb.DailyHitPercentiles[3])
	}
	ipFrac, trafficFrac := tb.Cumulative()
	if ipFrac[3] != 1 || trafficFrac[3] != 1 {
		t.Error("cumulative must end at 1")
	}
	if ipFrac[0] <= 0 || ipFrac[0] >= 1 {
		t.Errorf("ipFrac[0] = %v", ipFrac[0])
	}
	ipShare, trafficShare := tb.EverydayShare()
	if math.Abs(ipShare-1.0/3) > 1e-9 {
		t.Errorf("everyday ip share = %v", ipShare)
	}
	if trafficShare <= 0.9 {
		t.Errorf("everyday traffic share = %v", trafficShare)
	}
}

func TestClassifyUARegions(t *testing.T) {
	points := []UAPoint{
		{Samples: 10, Unique: 8},      // bulk
		{Samples: 5000, Unique: 2},    // bot
		{Samples: 8000, Unique: 4000}, // gateway
		{Samples: 5000, Unique: 50},   // neither extreme: bulk
	}
	got := ClassifyUARegions(points, 1000, 5, 500)
	if got.Bulk != 2 || got.Bots != 1 || got.Gateways != 1 {
		t.Errorf("regions = %+v", got)
	}
}

func TestBuildDemographics(t *testing.T) {
	blkA := ipv4.MustParseAddr("10.0.0.0").Block()
	blkB := ipv4.MustParseAddr("10.0.1.0").Block()
	blocks := []BlockFeatures{
		{Block: blkA, STU: 0.05, Traffic: 10, Hosts: 2},
		{Block: blkB, STU: 0.95, Traffic: 100000, Hosts: 5000},
	}
	d := BuildDemographics(blocks)
	if d.Total() != 2 {
		t.Fatalf("total = %d", d.Total())
	}
	// The low block must land in STU bin 0; the high one in bin 9 with
	// maximal traffic and host bins.
	traffic := stats.BinIndex(stats.NormalizeLog(10, d.MaxTraffic), d.Bins)
	hosts := stats.BinIndex(stats.NormalizeLog(2, d.MaxHosts), d.Bins)
	if d.Counts[Cell{0, traffic, hosts}] != 1 {
		t.Errorf("low cell missing: %v", d.Counts)
	}
	if d.Counts[Cell{9, 9, 9}] != 1 {
		t.Errorf("high cell missing: %v", d.Counts)
	}
	marg := d.STUMarginal()
	if marg[0] != 1 || marg[9] != 1 {
		t.Errorf("marginal = %v", marg)
	}
}

func TestBuildRIRDemographics(t *testing.T) {
	reg := registry.NewTable([]registry.Allocation{
		{Prefix: ipv4.MustParsePrefix("10.0.0.0/16"), Country: "US", RIR: registry.ARIN},
		{Prefix: ipv4.MustParsePrefix("20.0.0.0/16"), Country: "BR", RIR: registry.LACNIC},
	})
	blocks := []BlockFeatures{
		{Block: ipv4.MustParseAddr("10.0.0.0").Block(), STU: 0.1, Traffic: 100, Hosts: 10},
		{Block: ipv4.MustParseAddr("20.0.0.0").Block(), STU: 0.9, Traffic: 100, Hosts: 10},
		{Block: ipv4.MustParseAddr("20.0.1.0").Block(), STU: 0.8, Traffic: 50, Hosts: 5},
	}
	panels := BuildRIRDemographics(blocks, reg)
	var arin, lacnic *RIRDemographics
	for _, p := range panels {
		switch p.RIR {
		case registry.ARIN:
			arin = p
		case registry.LACNIC:
			lacnic = p
		}
	}
	if arin.Total != 1 || lacnic.Total != 2 {
		t.Fatalf("totals: arin %d lacnic %d", arin.Total, lacnic.Total)
	}
	if arin.HighSTUShare() != 0 {
		t.Errorf("ARIN high STU = %v", arin.HighSTUShare())
	}
	if lacnic.HighSTUShare() != 1 {
		t.Errorf("LACNIC high STU = %v", lacnic.HighSTUShare())
	}
	for _, c := range lacnic.Cells {
		if c.MeanHosts < 0 || c.MeanHosts > 1 {
			t.Errorf("MeanHosts = %v", c.MeanHosts)
		}
	}
}
