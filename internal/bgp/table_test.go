package bgp

import (
	"math/rand"
	"testing"

	"ipscope/internal/ipv4"
)

func mkRoute(p string, as ASN) Route {
	return Route{Prefix: ipv4.MustParsePrefix(p), Origin: as}
}

func TestTableLookupLongestMatch(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mkRoute("10.0.0.0/8", 100))
	tbl.Insert(mkRoute("10.1.0.0/16", 200))
	tbl.Insert(mkRoute("10.1.2.0/24", 300))

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.1.2.3", 300},
		{"10.1.3.4", 200},
		{"10.2.0.1", 100},
		{"11.0.0.1", 0},
	}
	for _, c := range cases {
		got := tbl.OriginOf(ipv4.MustParseAddr(c.addr))
		if got != c.want {
			t.Errorf("OriginOf(%s) = %v, want AS%d", c.addr, got, c.want)
		}
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestTableDefaultRoute(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mkRoute("0.0.0.0/0", 1))
	if got := tbl.OriginOf(ipv4.MustParseAddr("203.0.113.9")); got != 1 {
		t.Errorf("default route not matched: %v", got)
	}
}

func TestTableInsertReplaces(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mkRoute("10.0.0.0/8", 1))
	tbl.Insert(mkRoute("10.0.0.0/8", 2))
	if tbl.Len() != 1 {
		t.Errorf("replace changed Len to %d", tbl.Len())
	}
	if got := tbl.OriginOf(ipv4.MustParseAddr("10.0.0.1")); got != 2 {
		t.Errorf("replace not applied: %v", got)
	}
}

func TestTableRoutesSorted(t *testing.T) {
	tbl := NewTable()
	tbl.Insert(mkRoute("192.0.2.0/24", 3))
	tbl.Insert(mkRoute("10.0.0.0/8", 1))
	tbl.Insert(mkRoute("10.0.0.0/16", 2))
	rs := tbl.Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes len = %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1], rs[i]
		if a.Prefix.Addr() > b.Prefix.Addr() ||
			(a.Prefix.Addr() == b.Prefix.Addr() && a.Prefix.Bits() >= b.Prefix.Bits()) {
			t.Fatalf("routes not sorted: %v", rs)
		}
	}
}

// TestTrieMatchesLinear cross-checks the trie against the reference
// linear implementation on random tables and probes.
func TestTrieMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var routes []Route
		trie := NewTable()
		for i := 0; i < 200; i++ {
			bits := 8 + rng.Intn(17) // /8../24
			addr := ipv4.Addr(rng.Uint32())
			p, _ := ipv4.NewPrefix(addr, bits)
			r := Route{Prefix: p, Origin: ASN(rng.Intn(1000) + 1)}
			routes = append(routes, r)
			trie.Insert(r)
		}
		// Deduplicate same-prefix routes the way the trie does
		// (last insert wins) for the linear reference.
		byPrefix := make(map[ipv4.Prefix]Route)
		for _, r := range routes {
			byPrefix[r.Prefix] = r
		}
		var dedup []Route
		for _, r := range byPrefix {
			dedup = append(dedup, r)
		}
		lin := NewLinearTable(dedup)
		for probe := 0; probe < 500; probe++ {
			addr := ipv4.Addr(rng.Uint32())
			tr, tok := trie.Lookup(addr)
			lr, lok := lin.Lookup(addr)
			if tok != lok {
				t.Fatalf("presence mismatch for %v: trie=%v linear=%v", addr, tok, lok)
			}
			if tok && tr.Prefix.Bits() != lr.Prefix.Bits() {
				t.Fatalf("length mismatch for %v: trie=%v linear=%v", addr, tr.Prefix, lr.Prefix)
			}
		}
	}
}

func TestASNString(t *testing.T) {
	if ASN(64500).String() != "AS64500" {
		t.Errorf("ASN.String = %q", ASN(64500).String())
	}
}
