package bgp

import (
	"testing"

	"ipscope/internal/ipv4"
)

func buildLog() *ChangeLog {
	base := NewTable()
	base.Insert(mkRoute("10.0.0.0/16", 1))
	base.Insert(mkRoute("192.0.2.0/24", 2))
	l := NewChangeLog(base, 10)
	l.Record(3, Change{Kind: OriginChange, Prefix: ipv4.MustParsePrefix("192.0.2.0/24"), OldOrigin: 2, NewOrigin: 5})
	l.Record(5, Change{Kind: Announce, Prefix: ipv4.MustParsePrefix("203.0.113.0/24"), NewOrigin: 7})
	l.Record(8, Change{Kind: Withdraw, Prefix: ipv4.MustParsePrefix("10.0.0.0/16"), OldOrigin: 1})
	return l
}

func TestChangeLogChangesIn(t *testing.T) {
	l := buildLog()
	if got := l.ChangesIn(0, 2); len(got) != 0 {
		t.Errorf("(0,2] = %v", got)
	}
	if got := l.ChangesIn(2, 3); len(got) != 1 || got[0].Kind != OriginChange {
		t.Errorf("(2,3] = %v", got)
	}
	if got := l.ChangesIn(0, 9); len(got) != 3 {
		t.Errorf("full range = %v", got)
	}
	// Clamping.
	if got := l.ChangesIn(-5, 99); len(got) != 3 {
		t.Errorf("clamped = %v", got)
	}
	if l.NumDays() != 10 {
		t.Errorf("NumDays = %d", l.NumDays())
	}
	// Out-of-range record is dropped.
	l.Record(99, Change{Kind: Announce})
	if got := l.ChangesIn(-5, 1000); len(got) != 3 {
		t.Errorf("out-of-range record was kept")
	}
}

func TestChangeLogTouchedBlocks(t *testing.T) {
	l := buildLog()
	blocks := l.TouchedBlocks(2, 5)
	if len(blocks) != 2 {
		t.Fatalf("touched = %v", blocks)
	}
	if blocks[ipv4.MustParseAddr("192.0.2.0").Block()] != OriginChange {
		t.Error("origin change block missing")
	}
	if blocks[ipv4.MustParseAddr("203.0.113.0").Block()] != Announce {
		t.Error("announce block missing")
	}
	// Withdraw of the /16 covers 256 blocks.
	all := l.TouchedBlocks(0, 9)
	if len(all) != 2+256 {
		t.Errorf("full touched = %d", len(all))
	}
}

func TestChangeLogOriginChangePrecedence(t *testing.T) {
	base := NewTable()
	l := NewChangeLog(base, 5)
	p := ipv4.MustParsePrefix("198.51.100.0/24")
	l.Record(1, Change{Kind: Announce, Prefix: p, NewOrigin: 1})
	l.Record(2, Change{Kind: OriginChange, Prefix: p, OldOrigin: 1, NewOrigin: 2})
	got := l.TouchedBlocks(0, 4)
	if got[p.FirstBlock()] != OriginChange {
		t.Errorf("kind = %v, want origin-change", got[p.FirstBlock()])
	}
}

func TestChangeLogCountsByKind(t *testing.T) {
	l := buildLog()
	c := l.CountsByKind(0, 9)
	if c[Announce] != 1 || c[Withdraw] != 1 || c[OriginChange] != 1 {
		t.Errorf("counts = %v", c)
	}
}

func TestChangeKindString(t *testing.T) {
	for k, want := range map[ChangeKind]string{
		Announce: "announce", Withdraw: "withdraw",
		OriginChange: "origin-change", ChangeKind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
