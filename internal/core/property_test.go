package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ipscope/internal/bgp"
	"ipscope/internal/ipv4"
)

// randomSnapshot builds a snapshot confined to a few blocks so that
// overlaps are common.
func randomSnapshot(rng *rand.Rand, n int) *ipv4.Set {
	s := ipv4.NewSet()
	for i := 0; i < n; i++ {
		blk := ipv4.Block(0x0a0000 + uint32(rng.Intn(6)))
		s.Add(blk.Addr(byte(rng.Intn(256))))
	}
	return s
}

// TestChurnConservation: up, down and the steady overlap partition the
// two snapshots exactly.
func TestChurnConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		prev := randomSnapshot(rng, 200)
		next := randomSnapshot(rng, 200)
		up, down := Events(prev, next)
		steady := prev.IntersectCount(next)
		if up.Len()+steady != next.Len() {
			t.Fatalf("up(%d)+steady(%d) != next(%d)", up.Len(), steady, next.Len())
		}
		if down.Len()+steady != prev.Len() {
			t.Fatalf("down(%d)+steady(%d) != prev(%d)", down.Len(), steady, prev.Len())
		}
		// Up and down events are disjoint from each other and from the
		// steady set.
		if up.IntersectCount(down) != 0 {
			t.Fatal("up ∩ down non-empty")
		}
		if up.IntersectCount(prev) != 0 || down.IntersectCount(next) != 0 {
			t.Fatal("events overlap their defining windows")
		}
	}
}

// TestChurnSymmetry: swapping the snapshots swaps up and down.
func TestChurnSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		a := randomSnapshot(rng, 150)
		b := randomSnapshot(rng, 150)
		upAB, downAB := Events(a, b)
		upBA, downBA := Events(b, a)
		if !upAB.Equal(downBA) || !downAB.Equal(upBA) {
			t.Fatal("Events not symmetric under snapshot swap")
		}
	}
}

// TestWindowsCoarseningReducesChurn: unioning consecutive windows can
// only remove up events relative to per-snapshot churn totals (an
// address flapping within a window stops being an event).
func TestWindowsCoarseningReducesChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		daily := make([]*ipv4.Set, 8)
		for i := range daily {
			daily[i] = randomSnapshot(rng, 120)
		}
		fine := ChurnSeries(daily)
		coarse := ChurnSeries(Windows(daily, 2))
		var fineUp, coarseUp int
		for _, p := range fine {
			fineUp += p.Up
		}
		for _, p := range coarse {
			coarseUp += p.Up
		}
		if coarseUp > fineUp {
			t.Fatalf("coarse up events %d exceed fine %d", coarseUp, fineUp)
		}
	}
}

// TestSTUAveragesOverMonths: the whole-window STU equals the mean of
// the per-month STUs when months tile the window exactly.
func TestSTUAveragesOverMonths(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	blk := ipv4.Block(0x0a0000)
	daily := make([]*ipv4.Set, 12)
	for i := range daily {
		s := ipv4.NewSet()
		for j := 0; j < rng.Intn(200); j++ {
			s.Add(blk.Addr(byte(rng.Intn(256))))
		}
		daily[i] = s
	}
	whole := STU(daily, blk)
	months := MonthlySTU(daily, blk, 4)
	mean := (months[0] + months[1] + months[2]) / 3
	if math.Abs(whole-mean) > 1e-12 {
		t.Fatalf("STU %v != mean monthly %v", whole, mean)
	}
}

// TestFillingDegreeMonotone: FD over a longer window can never shrink.
func TestFillingDegreeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	blk := ipv4.Block(0x0a0001)
	daily := make([]*ipv4.Set, 10)
	for i := range daily {
		s := ipv4.NewSet()
		for j := 0; j < 30; j++ {
			s.Add(blk.Addr(byte(rng.Intn(256))))
		}
		daily[i] = s
	}
	prev := 0
	for n := 1; n <= len(daily); n++ {
		fd := FillingDegree(daily[:n], blk)
		if fd < prev {
			t.Fatalf("FD shrank: %d -> %d at n=%d", prev, fd, n)
		}
		prev = fd
	}
}

// TestRecaptureProperty: Lincoln–Petersen inverts exactly on
// constructed populations where sampling is proportional.
func TestRecaptureProperty(t *testing.T) {
	f := func(nRaw, aRaw, bRaw uint16) bool {
		n := int(nRaw%5000) + 100
		// Sample sizes between 10% and 90% of the population.
		n1 := n/10 + int(aRaw)%(n*8/10)
		n2 := n/10 + int(bRaw)%(n*8/10)
		// Expected overlap under independence.
		m := n1 * n2 / n
		if m == 0 {
			return true
		}
		e, err := Recapture(n1, n2, m)
		if err != nil {
			return false
		}
		// LP recovers a value close to n (integer truncation of m
		// introduces at most one unit of slack per overlap count: a
		// relative error below 1/m, which exceeds 15 % for m < 7).
		lpErr := math.Abs(e.LincolnPetersen-float64(n)) / float64(n)
		return lpErr < max(0.15, 1/float64(m)) && e.Chapman > 0 && e.CI95Hi >= e.CI95Lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVisibilityPartition: OnlyA/Both/OnlyB partition the union at
// every granularity.
func TestVisibilityPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 100; trial++ {
		a := randomSnapshot(rng, 150)
		b := randomSnapshot(rng, 150)
		v := CompareIPs(a, b)
		if v.Total() != a.Union(b).Len() {
			t.Fatalf("IP partition: %d != %d", v.Total(), a.Union(b).Len())
		}
		if v.OnlyA != a.DiffCount(b) || v.OnlyB != b.DiffCount(a) {
			t.Fatal("asymmetric parts wrong")
		}
		vb := CompareBlocks(a, b)
		if vb.Total() != a.Union(b).NumBlocks() {
			t.Fatal("block partition wrong")
		}
	}
}

// TestEventMaskMonotoneFloor: raising the floor can only raise the mask.
func TestEventMaskMonotoneFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		viol := randomSnapshot(rng, 50)
		addr := ipv4.Block(0x0a0000 + uint32(rng.Intn(6))).Addr(byte(rng.Intn(256)))
		if viol.Contains(addr) {
			continue
		}
		prev := -1
		for _, floor := range []int{8, 16, 24, 30} {
			m := EventMask(addr, viol, floor)
			if m < floor {
				t.Fatalf("mask %d below floor %d", m, floor)
			}
			if m < prev {
				t.Fatalf("mask decreased (%d -> %d) when floor rose to %d", prev, m, floor)
			}
			prev = m
		}
	}
}

// TestWalkTransitionsMatchesSetDefinitions: every tally of the
// transition walk equals the set definition it stands for — up and
// down against Events, steady against IntersectCount, the size bins
// against EventMask over next \ prev, the per-AS tallies and the hit
// counts against a plain group-by over the diff sets.
func TestWalkTransitionsMatchesSetDefinitions(t *testing.T) {
	// randomSnapshot's blocks 0x0a0000..5 map to AS 1 + b%3, except
	// block 3, which is unrouted (AS 0); block 16 alone is AS 9.
	blk := func(i int) ipv4.Block { return ipv4.Block(0x0a0000 + uint32(i)) }
	asOf := func(b ipv4.Block) bgp.ASN {
		switch b {
		case blk(3):
			return 0
		case blk(16):
			return 9
		}
		return bgp.ASN(1 + b%3)
	}
	// A change on blocks 0 and 3 at day 5, on block 5 at day 12: each
	// transition has blocks inside and outside TouchedBlocks.
	log := bgp.NewChangeLog(bgp.NewTable(), 40)
	log.Record(5, bgp.Change{Kind: bgp.Announce, Prefix: blk(0).Prefix()})
	log.Record(5, bgp.Change{Kind: bgp.Withdraw, Prefix: blk(3).Prefix()})
	log.Record(12, bgp.Change{Kind: bgp.OriginChange, Prefix: blk(5).Prefix(), OldOrigin: 1, NewOrigin: 2})

	full := ipv4.NewSet()
	for h := 0; h < 256; h++ {
		full.Add(blk(1).Addr(byte(h)))
	}
	quiet := setOf("10.0.16.7", "10.0.16.8") // AS 9: no up event in "quiet AS"
	rng := rand.New(rand.NewSource(38))
	var random []*ipv4.Set
	for i := 0; i < 6; i++ {
		random = append(random, randomSnapshot(rng, 300))
	}
	cases := []struct {
		name string
		wins []*ipv4.Set
	}{
		{"random", random},
		{"empty prev", []*ipv4.Set{ipv4.NewSet(), random[0]}},
		{"empty next", []*ipv4.Set{random[0], ipv4.NewSet()}},
		{"identical", []*ipv4.Set{random[1], random[1].Clone(), random[1]}},
		{"full /24", []*ipv4.Set{quiet, full, quiet.Union(full), random[2]}},
		{"quiet AS", []*ipv4.Set{quiet.Union(random[3]), quiet.Union(random[4])}},
	}
	const size, startDay = 3, 2
	var hit, missed, unrouted int // coverage of the cases themselves
	for _, c := range cases {
		s := WalkTransitions(c.wins, size, asOf, log, startDay)
		if len(s.Steps) != len(c.wins)-1 || s.WindowDays != size {
			t.Fatalf("%s: %d steps of %d days", c.name, len(s.Steps), s.WindowDays)
		}
		for i, got := range s.Steps {
			prev, next := c.wins[i], c.wins[i+1]
			touched := log.TouchedBlocks(startDay+i*size-1, startDay+(i+2)*size-1)
			up, down := Events(prev, next)
			steady := prev.Diff(down)
			want := Transition{
				PerAS:  map[bgp.ASN]ASTally{},
				Up:     up.Len(),
				Down:   down.Len(),
				Steady: prev.IntersectCount(next),
			}
			hits := func(set *ipv4.Set) (n int) {
				set.ForEachBlock(func(b ipv4.Block, bm *ipv4.Bitmap256) {
					if _, ok := touched[b]; ok {
						n += bm.Count()
					}
				})
				return n
			}
			want.UpHit, want.DownHit, want.SteadyHit = hits(up), hits(down), hits(steady)
			next.ForEachBlock(func(b ipv4.Block, bm *ipv4.Bitmap256) {
				a := want.PerAS[asOf(b)]
				a.Active += bm.Count()
				a.Up += up.BlockCount(b)
				want.PerAS[asOf(b)] = a
			})
			next.Diff(prev).ForEach(func(a ipv4.Addr) {
				want.SizeBins[EventSizeBin(EventMask(a, prev, 8))]++
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s transition %d:\n got %+v\nwant %+v", c.name, i, got, want)
			}
			hit += got.UpHit + got.DownHit + got.SteadyHit
			missed += got.Up + got.Down + got.Steady - got.UpHit - got.DownHit - got.SteadyHit
			unrouted += got.PerAS[0].Active
		}
		wantActive := map[bgp.ASN]int{}
		ipv4.UnionAll(c.wins[1:], 1).ForEachBlock(func(b ipv4.Block, bm *ipv4.Bitmap256) {
			wantActive[asOf(b)] += bm.Count()
		})
		if !reflect.DeepEqual(s.ASActive, wantActive) {
			t.Errorf("%s: ASActive %v, want %v", c.name, s.ASActive, wantActive)
		}
		if c.name == "quiet AS" {
			if a := s.Steps[0].PerAS[9]; a != (ASTally{Up: 0, Active: 2}) {
				t.Errorf("quiet AS tally %+v", a)
			}
			if m, ok := s.PerASChurn(1)[9]; !ok || m != 0 {
				t.Errorf("quiet AS median %v (present %v), want 0", m, ok)
			}
		}
	}
	if hit == 0 || missed == 0 || unrouted == 0 {
		t.Errorf("cases miss a region: %d in touched blocks, %d outside, %d unrouted", hit, missed, unrouted)
	}
}
