package synthnet

import (
	"testing"

	"ipscope/internal/ipv4"
	"ipscope/internal/rdns"
)

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(TinyConfig())
	w2 := Generate(TinyConfig())
	if w1.NumBlocks() != w2.NumBlocks() || len(w1.ASes) != len(w2.ASes) {
		t.Fatal("generation not deterministic in size")
	}
	for i, b := range w1.Blocks {
		o := w2.Blocks[i]
		if b.Block != o.Block || b.Policy != o.Policy || b.Subscribers != o.Subscribers || b.Seed != o.Seed {
			t.Fatalf("block %d differs: %+v vs %+v", i, b, o)
		}
	}
	w3 := Generate(Config{Seed: 2, NumASes: 40, MeanBlocksPerAS: 8})
	same := true
	for i := range w1.Blocks {
		if i >= len(w3.Blocks) || w1.Blocks[i].Policy != w3.Blocks[i].Policy {
			same = false
			break
		}
	}
	if same && len(w1.Blocks) == len(w3.Blocks) {
		t.Error("different seeds produced identical worlds")
	}
}

func TestGenerateStructure(t *testing.T) {
	w := Generate(TinyConfig())
	if len(w.ASes) != 40 {
		t.Fatalf("ASes = %d", len(w.ASes))
	}
	if w.NumBlocks() == 0 {
		t.Fatal("no blocks")
	}
	// Every block indexed, attributed to an AS, routed and registered.
	for _, b := range w.Blocks {
		info, ok := w.BlockInfo(b.Block)
		if !ok || info != b {
			t.Fatalf("BlockInfo broken for %v", b.Block)
		}
		as, ok := w.ASIndex[b.AS]
		if !ok {
			t.Fatalf("block %v has unknown AS %v", b.Block, b.AS)
		}
		covered := false
		for _, p := range as.Prefixes {
			if p.Contains(b.Block.First()) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("block %v not covered by its AS prefixes", b.Block)
		}
		if got := w.BaseRouting.OriginOf(b.Block.First()); got != b.AS {
			t.Fatalf("routing origin %v != %v for %v", got, b.AS, b.Block)
		}
		if _, ok := w.Registry.LookupBlock(b.Block); !ok {
			t.Fatalf("block %v not registered", b.Block)
		}
		if w.Registry.CountryOf(b.Block) != as.Country {
			t.Fatalf("registry country mismatch for %v", b.Block)
		}
	}
}

func TestGenerateNoOverlappingPrefixes(t *testing.T) {
	w := Generate(TinyConfig())
	seen := map[ipv4.Block]bool{}
	for _, as := range w.ASes {
		for _, p := range as.Prefixes {
			p.Blocks(func(b ipv4.Block) {
				if seen[b] {
					t.Fatalf("block %v allocated twice", b)
				}
				seen[b] = true
			})
		}
	}
	if len(seen) != w.NumBlocks() {
		t.Fatalf("prefix blocks %d != world blocks %d", len(seen), w.NumBlocks())
	}
}

func TestPolicyInvariants(t *testing.T) {
	w := Generate(DefaultConfig())
	for _, b := range w.Blocks {
		if b.Policy == Unused && b.Subscribers != 0 {
			t.Fatalf("unused block %v has subscribers", b.Block)
		}
		if b.Policy != Unused && b.Subscribers <= 0 {
			t.Fatalf("%v block %v has no subscribers", b.Policy, b.Block)
		}
		if b.Devices < b.Subscribers {
			t.Fatalf("devices < subscribers on %v", b.Block)
		}
		if b.Policy == Gateway && b.Devices < 1000 {
			t.Fatalf("gateway block %v has few devices", b.Block)
		}
		if b.PingableP < 0 || b.PingableP > 1 {
			t.Fatalf("bad pingable prob %v", b.PingableP)
		}
		if b.Policy == Unused && b.RDNS != rdns.StyleNone {
			t.Fatalf("unused block has PTR records")
		}
	}
}

func TestPolicyMixMatchesKinds(t *testing.T) {
	w := Generate(DefaultConfig())
	byPolicy := make(map[Policy]int)
	clients, capacity := 0, 0
	for _, b := range w.Blocks {
		byPolicy[b.Policy]++
		capacity += b.Subscribers
		if b.Policy.IsClient() {
			clients++
		}
	}
	if clients == 0 {
		t.Fatal("no client blocks")
	}
	// The dominant client policies must all be present at scale.
	for _, p := range []Policy{StaticSparse, DynamicRoundRobin, DynamicLongLease,
		DynamicDaily, Gateway, ServerFarm, Unused} {
		if byPolicy[p] == 0 {
			t.Errorf("no blocks with policy %v", p)
		}
	}
	// Client blocks should dominate but not exhaust the space.
	frac := float64(clients) / float64(len(w.Blocks))
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("client block fraction = %.2f", frac)
	}
	if capacity == 0 {
		t.Error("zero capacity")
	}
}

func TestPolicyStringAndPredicates(t *testing.T) {
	if !DynamicDaily.IsDynamicPool() || StaticSparse.IsDynamicPool() {
		t.Error("IsDynamicPool wrong")
	}
	if !Gateway.IsClient() || ServerFarm.IsClient() || Unused.IsClient() {
		t.Error("IsClient wrong")
	}
	for p := Unused; p < numPolicies; p++ {
		if p.String() == "unknown" {
			t.Errorf("policy %d lacks a name", p)
		}
	}
	for k := ResidentialISP; k < numASKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d lacks a name", k)
		}
	}
}

func TestRDNSZoneStyles(t *testing.T) {
	w := Generate(DefaultConfig())
	dynTagged, dynTotal := 0, 0
	statTagged, statTotal := 0, 0
	for _, b := range w.Blocks[:min(len(w.Blocks), 800)] {
		z := w.RDNSZone(b)
		tag := rdns.ClassifyZone(z, 0.6)
		if b.Policy.IsDynamicPool() {
			dynTotal++
			if tag == rdns.Dynamic {
				dynTagged++
			}
			if tag == rdns.Static {
				t.Errorf("dynamic block %v tagged static", b.Block)
			}
		}
		if b.Policy == StaticSparse || b.Policy == StaticDense {
			statTotal++
			if tag == rdns.Static {
				statTagged++
			}
			if tag == rdns.Dynamic {
				t.Errorf("static block %v tagged dynamic", b.Block)
			}
		}
	}
	if dynTotal == 0 || statTotal == 0 {
		t.Fatal("sample has no static/dynamic blocks")
	}
	if float64(dynTagged)/float64(dynTotal) < 0.5 {
		t.Errorf("only %d/%d dynamic blocks taggable", dynTagged, dynTotal)
	}
	if float64(statTagged)/float64(statTotal) < 0.4 {
		t.Errorf("only %d/%d static blocks taggable", statTagged, statTotal)
	}
}
