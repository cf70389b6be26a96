package scan

import (
	"testing"
	"testing/quick"

	"ipscope/internal/ipv4"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

func TestPermutationIsPermutation(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 7, 16, 100, 257, 1000} {
		for seed := uint64(0); seed < 5; seed++ {
			p, err := NewPermutation(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, n)
			count := uint64(0)
			for {
				v, ok := p.Next()
				if !ok {
					break
				}
				if v >= n {
					t.Fatalf("n=%d seed=%d: out of range %d", n, seed, v)
				}
				if seen[v] {
					t.Fatalf("n=%d seed=%d: duplicate %d", n, seed, v)
				}
				seen[v] = true
				count++
			}
			if count != n {
				t.Fatalf("n=%d seed=%d: emitted %d", n, seed, count)
			}
		}
	}
}

func TestPermutationProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw%2000) + 1
		p, err := NewPermutation(n, seed)
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return uint64(len(seen)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationNotIdentity(t *testing.T) {
	// The scan order should not be sequential (that is the whole point).
	p, _ := NewPermutation(1000, 12345)
	sequentialRun := 0
	var prev uint64
	for i := 0; ; i++ {
		v, ok := p.Next()
		if !ok {
			break
		}
		if i > 0 && v == prev+1 {
			sequentialRun++
		}
		prev = v
	}
	if sequentialRun > 500 {
		t.Errorf("order looks sequential: %d consecutive steps", sequentialRun)
	}
}

func TestPermutationErrors(t *testing.T) {
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewPermutation(1<<33, 1); err == nil {
		t.Error("n>2^32 accepted")
	}
}

func TestScan(t *testing.T) {
	responders := ipv4.NewSet()
	responders.Add(ipv4.MustParseAddr("10.0.0.7"))
	responders.Add(ipv4.MustParseAddr("10.0.1.9"))
	responders.Add(ipv4.MustParseAddr("99.0.0.1")) // outside targets

	targets := []ipv4.Prefix{
		ipv4.MustParsePrefix("10.0.0.0/24"),
		ipv4.MustParsePrefix("10.0.1.0/24"),
	}
	got, err := Scan(SetResponder{responders}, targets, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("scan found %d", got.Len())
	}
	if !got.Contains(ipv4.MustParseAddr("10.0.0.7")) || !got.Contains(ipv4.MustParseAddr("10.0.1.9")) {
		t.Error("missing responders")
	}
	if got.Contains(ipv4.MustParseAddr("99.0.0.1")) {
		t.Error("found address outside targets")
	}
	// Seed must not change the result set.
	got2, _ := Scan(SetResponder{responders}, targets, 99999)
	if !got.Equal(got2) {
		t.Error("scan result depends on seed")
	}
	// Empty targets.
	if empty, err := Scan(SetResponder{responders}, nil, 1); err != nil || empty.Len() != 0 {
		t.Error("empty target scan broken")
	}
}

func TestCampaignFromResult(t *testing.T) {
	w := synthnet.Generate(synthnet.TinyConfig())
	res := sim.Run(w, sim.TinyConfig())
	c := FromObs(&res.Data)
	if c.ICMP.Len() == 0 || len(c.PerScan) == 0 {
		t.Fatal("empty campaign")
	}
	if c.Servers.Len() == 0 || c.Routers.Len() == 0 {
		t.Fatal("missing scan surfaces")
	}
	// The union must contain every per-scan snapshot.
	for i, s := range c.PerScan {
		if s.DiffCount(c.ICMP) != 0 {
			t.Errorf("scan %d not contained in union", i)
		}
	}
	targets := Targets(w)
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	// Scanning the world for the server surface finds exactly the
	// in-target servers.
	found, err := Scan(SetResponder{c.Servers}, targets, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !found.Equal(c.Servers) {
		t.Errorf("scan found %d of %d servers", found.Len(), c.Servers.Len())
	}
}
