package core

import (
	"math"
	"testing"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
)

func setOf(addrs ...string) *ipv4.Set {
	s := ipv4.NewSet()
	for _, a := range addrs {
		s.Add(ipv4.MustParseAddr(a))
	}
	return s
}

func TestWindowUnionAndWindows(t *testing.T) {
	daily := []*ipv4.Set{
		setOf("10.0.0.1"),
		setOf("10.0.0.2"),
		setOf("10.0.0.1", "10.0.0.3"),
		setOf("10.0.0.4"),
	}
	u := WindowUnion(daily, 0, 2)
	if u.Len() != 2 {
		t.Errorf("union len = %d", u.Len())
	}
	// Bounds clamp.
	if WindowUnion(daily, -5, 99).Len() != 4 {
		t.Error("clamped union wrong")
	}
	wins := Windows(daily, 2)
	if len(wins) != 2 || wins[0].Len() != 2 || wins[1].Len() != 3 {
		t.Errorf("windows = %v", wins)
	}
	// Trailing partial dropped.
	if got := Windows(daily, 3); len(got) != 1 {
		t.Errorf("partial window not dropped: %d", len(got))
	}
	if Windows(daily, 0) != nil {
		t.Error("size 0 should return nil")
	}
	// nil snapshots tolerated.
	daily[1] = nil
	if WindowUnion(daily, 0, 2).Len() != 1 {
		t.Error("nil snapshot not skipped")
	}
}

func TestEventsAndChurnSeries(t *testing.T) {
	prev := setOf("10.0.0.1", "10.0.0.2", "10.0.0.3")
	next := setOf("10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5")
	up, down := Events(prev, next)
	if up.Len() != 2 || !up.Contains(ipv4.MustParseAddr("10.0.0.4")) {
		t.Errorf("up = %d", up.Len())
	}
	if down.Len() != 1 || !down.Contains(ipv4.MustParseAddr("10.0.0.1")) {
		t.Errorf("down = %d", down.Len())
	}
	series := ChurnSeries([]*ipv4.Set{prev, next})
	if len(series) != 1 {
		t.Fatal("series length")
	}
	p := series[0]
	if p.Up != 2 || p.Down != 1 {
		t.Errorf("counts %+v", p)
	}
	if math.Abs(p.UpPct-50) > 1e-9 { // 2/4
		t.Errorf("UpPct = %v", p.UpPct)
	}
	if math.Abs(p.DownPct-100.0/3) > 1e-9 {
		t.Errorf("DownPct = %v", p.DownPct)
	}
	if ChurnSeries(nil) != nil {
		t.Error("short series should be nil")
	}
}

func TestChurnByWindow(t *testing.T) {
	// 8 days alternating between two disjoint sets: daily churn is
	// 100%, 2-day windows see stable unions (0% churn).
	a := setOf("10.0.0.1", "10.0.0.2")
	b := setOf("10.0.0.3", "10.0.0.4")
	daily := []*ipv4.Set{a, b, a, b, a, b, a, b}
	res := ChurnByWindow(daily, []int{1, 2})
	if res[0].Up.Median != 100 {
		t.Errorf("daily churn median = %v", res[0].Up.Median)
	}
	if res[1].Up.Median != 0 {
		t.Errorf("2-day churn median = %v", res[1].Up.Median)
	}
}

func TestVersusBaseline(t *testing.T) {
	s0 := setOf("10.0.0.1", "10.0.0.2")
	s1 := setOf("10.0.0.1", "10.0.0.3", "10.0.0.4")
	out := VersusBaseline([]*ipv4.Set{s0, s1})
	if out[0].Appear != 0 || out[0].Disappear != 0 {
		t.Errorf("baseline vs itself = %+v", out[0])
	}
	if out[1].Appear != 2 || out[1].Disappear != 1 {
		t.Errorf("snapshot 1 = %+v", out[1])
	}
	if VersusBaseline(nil) != nil {
		t.Error("empty input")
	}
}

func TestPerASChurn(t *testing.T) {
	// Two ASes: AS1 blocks churn fully; AS2 stays constant.
	as1blk := ipv4.MustParseAddr("10.0.0.0").Block()
	as2blk := ipv4.MustParseAddr("20.0.0.0").Block()
	asOf := func(b ipv4.Block) bgp.ASN {
		if b == as1blk {
			return 1
		}
		return 2
	}
	mk := func(h1 byte) *ipv4.Set {
		s := ipv4.NewSet()
		for i := 0; i < 10; i++ {
			s.Add(as1blk.Addr(h1 + byte(i)))
			s.Add(as2blk.Addr(byte(i)))
		}
		return s
	}
	snaps := []*ipv4.Set{mk(0), mk(50), mk(100), mk(150)}
	s := WalkTransitions(snaps, 1, asOf, nil, 0)
	got := s.PerASChurn(1)
	if got[1] != 100 {
		t.Errorf("AS1 churn = %v, want 100", got[1])
	}
	if got[2] != 0 {
		t.Errorf("AS2 churn = %v, want 0", got[2])
	}
	// minActive filter.
	got = s.PerASChurn(10000)
	if len(got) != 0 {
		t.Errorf("minActive filter ignored: %v", got)
	}
}

func TestEventMaskSingles(t *testing.T) {
	// Previous window has a neighbour active: event is /32-ish.
	prev := setOf("10.0.0.1")
	addr := ipv4.MustParseAddr("10.0.0.0")
	m := EventMask(addr, prev, 8)
	if m != 32 {
		t.Errorf("mask = %d, want 32 (neighbour active)", m)
	}
	// Neighbour at distance 2: a /31 is clean.
	prev2 := setOf("10.0.0.2")
	if m := EventMask(addr, prev2, 8); m != 31 {
		t.Errorf("mask = %d, want 31", m)
	}
}

func TestEventMaskWholeBlock(t *testing.T) {
	// Empty previous: expansion runs to the floor.
	prev := ipv4.NewSet()
	addr := ipv4.MustParseAddr("10.0.0.7")
	if m := EventMask(addr, prev, 16); m != 16 {
		t.Errorf("mask = %d, want floor 16", m)
	}
	// Violator in the adjacent /24 stops expansion at /24.
	prev.Add(ipv4.MustParseAddr("10.0.1.9"))
	if m := EventMask(addr, prev, 8); m != 24 {
		t.Errorf("mask = %d, want 24", m)
	}
}

func TestEventMaskConditionHolds(t *testing.T) {
	// Property: the returned prefix never contains a violator... except
	// that the violator check applies to sibling ranges joined during
	// expansion; the event address itself is never a violator by
	// construction (up events are disjoint from prev).
	prev := setOf("10.0.3.200", "10.0.0.40")
	for _, a := range []string{"10.0.0.0", "10.0.0.41", "10.0.2.9"} {
		addr := ipv4.MustParseAddr(a)
		m := EventMask(addr, prev, 8)
		p, _ := ipv4.NewPrefix(addr, m)
		// No violator may sit in the half of p that does not contain addr.
		if m < 32 {
			half, _ := ipv4.NewPrefix(addr, m+1)
			prev.ForEach(func(v ipv4.Addr) {
				if p.Contains(v) && !half.Contains(v) {
					t.Errorf("addr %v mask /%d: violator %v inside joined range", addr, m, v)
				}
			})
		}
	}
}

// eventSizes is Figure 5b's distribution of the one transition
// prev → next.
func eventSizes(prev, next *ipv4.Set) [5]float64 {
	s := WalkTransitions([]*ipv4.Set{prev, next}, 1, func(ipv4.Block) bgp.ASN { return 0 }, nil, 0)
	return s.Steps[0].EventSizes()
}

func TestEventSizeDistribution(t *testing.T) {
	// Whole-block event: all addresses of one /24 come up while a
	// neighbouring /24 stays active → masks spread at /24 or larger.
	prev := ipv4.NewSet()
	next := ipv4.NewSet()
	stay := ipv4.MustParseAddr("10.0.4.0").Block() // occupies the sibling /22..
	for i := 0; i < 256; i++ {
		next.Add(ipv4.MustParseAddr("10.0.0.0").Block().Addr(byte(i)))
		prev.Add(stay.Addr(byte(i)))
		next.Add(stay.Addr(byte(i)))
	}
	dist := eventSizes(prev, next)
	sum := 0.0
	for _, f := range dist {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
	// All events share one bulk mask ≤ /22: bins 0..2 get everything.
	if dist[3]+dist[4] > 0 {
		t.Errorf("bulk event tagged as small: %v", dist)
	}

	// Single-address events: one up event next to active addresses.
	prev2 := setOf("10.0.0.1", "10.0.0.3")
	next2 := setOf("10.0.0.1", "10.0.0.3", "10.0.0.2")
	dist2 := eventSizes(prev2, next2)
	if dist2[4] != 1 {
		t.Errorf("single event distribution = %v", dist2)
	}
	// Empty case.
	var zero [5]float64
	if eventSizes(next2, next2) != zero {
		t.Error("no events should give zero distribution")
	}
}

func TestEventSizeBin(t *testing.T) {
	cases := map[int]int{8: 0, 16: 0, 17: 1, 20: 1, 21: 2, 24: 2, 25: 3, 28: 3, 29: 4, 32: 4}
	for mask, bin := range cases {
		if got := EventSizeBin(mask); got != bin {
			t.Errorf("EventSizeBin(%d) = %d, want %d", mask, got, bin)
		}
	}
}

func TestCorrelateBGP(t *testing.T) {
	blkA := ipv4.MustParseAddr("10.0.0.0").Block() // churns, BGP-changed
	blkB := ipv4.MustParseAddr("20.0.0.0").Block() // churns, no BGP
	blkC := ipv4.MustParseAddr("30.0.0.0").Block() // steady

	mk := func(off byte) *ipv4.Set {
		s := ipv4.NewSet()
		for i := 0; i < 8; i++ {
			s.Add(blkA.Addr(off + byte(i)))
			s.Add(blkB.Addr(off + byte(i)))
			s.Add(blkC.Addr(byte(i)))
		}
		return s
	}
	daily := []*ipv4.Set{mk(0), mk(100), mk(200), mk(50)}
	log := bgp.NewChangeLog(bgp.NewTable(), 4)
	log.Record(1, bgp.Change{Kind: bgp.OriginChange, Prefix: blkA.Prefix(), OldOrigin: 1, NewOrigin: 2})
	log.Record(2, bgp.Change{Kind: bgp.OriginChange, Prefix: blkA.Prefix(), OldOrigin: 2, NewOrigin: 3})
	log.Record(3, bgp.Change{Kind: bgp.OriginChange, Prefix: blkA.Prefix(), OldOrigin: 3, NewOrigin: 4})

	c := WalkTransitions(Windows(daily, 1), 1, func(ipv4.Block) bgp.ASN { return 0 }, log, 0).CorrelateBGP()
	if c.UpEvents == 0 || c.DownEvents == 0 || c.Steady == 0 {
		t.Fatalf("empty correlation: %+v", c)
	}
	// Half the churning addresses (blkA's) coincide with BGP changes.
	if c.UpPct < 40 || c.UpPct > 60 {
		t.Errorf("UpPct = %v, want ~50", c.UpPct)
	}
	// Steady addresses live in blkC, untouched by BGP.
	if c.SteadyPct != 0 {
		t.Errorf("SteadyPct = %v", c.SteadyPct)
	}
}

func TestCompareLongTerm(t *testing.T) {
	blkFull := ipv4.MustParseAddr("10.0.0.0").Block() // whole block appears
	blkPart := ipv4.MustParseAddr("10.0.1.0").Block() // partial appear
	blkGone := ipv4.MustParseAddr("10.0.2.0").Block() // whole block disappears

	early := ipv4.NewSet()
	late := ipv4.NewSet()
	for i := 0; i < 10; i++ {
		late.Add(blkFull.Addr(byte(i)))  // appear, full block
		early.Add(blkGone.Addr(byte(i))) // disappear, full block
		early.Add(blkPart.Addr(byte(i)))
		late.Add(blkPart.Addr(byte(i)))
	}
	late.Add(blkPart.Addr(200)) // partial appear: block already active

	log := bgp.NewChangeLog(bgp.NewTable(), 100)
	log.Record(50, bgp.Change{Kind: bgp.OriginChange, Prefix: blkFull.Prefix(), OldOrigin: 1, NewOrigin: 2})

	got := CompareLongTerm(early, late, log, 0, 99)
	if got.Appear != 11 || got.Disappear != 10 {
		t.Fatalf("appear/disappear = %d/%d", got.Appear, got.Disappear)
	}
	// 10 of 11 appear addresses are in a fully-appearing /24.
	if math.Abs(got.AppearFull24Pct-100*10.0/11) > 1e-9 {
		t.Errorf("AppearFull24Pct = %v", got.AppearFull24Pct)
	}
	if got.DisappearFull24Pct != 100 {
		t.Errorf("DisappearFull24Pct = %v", got.DisappearFull24Pct)
	}
	// BGP: the 10 blkFull appears saw an origin change; blkPart's 1 did not.
	if math.Abs(got.AppearBGP.OriginChangePct-100*10.0/11) > 1e-9 {
		t.Errorf("AppearBGP = %+v", got.AppearBGP)
	}
	if got.DisappearBGP.NoChangePct != 100 {
		t.Errorf("DisappearBGP = %+v", got.DisappearBGP)
	}
	// Nil log tolerated.
	got2 := CompareLongTerm(early, late, nil, 0, 0)
	if got2.AppearBGP.NoChangePct != 100 {
		t.Errorf("nil log breakdown = %+v", got2.AppearBGP)
	}
}

func TestTopContributors(t *testing.T) {
	blkA := ipv4.MustParseAddr("10.0.0.0").Block()
	blkB := ipv4.MustParseAddr("20.0.0.0").Block()
	s := ipv4.NewSet()
	for i := 0; i < 20; i++ {
		s.Add(blkA.Addr(byte(i)))
	}
	for i := 0; i < 5; i++ {
		s.Add(blkB.Addr(byte(i)))
	}
	asOf := func(b ipv4.Block) bgp.ASN {
		if b == blkA {
			return 7
		}
		return 9
	}
	top := TopContributors(s, asOf, 10)
	if len(top) != 2 || top[0].AS != 7 || top[0].Count != 20 || top[1].Count != 5 {
		t.Errorf("top = %+v", top)
	}
	if got := TopContributors(s, asOf, 1); len(got) != 1 {
		t.Errorf("k=1 gave %d", len(got))
	}
}
