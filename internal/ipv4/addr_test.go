package ipv4

import (
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.1", 0xc0000201, true},
		{"10.1.2.3", 0x0a010203, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, uint32(got), uint32(c.want))
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrOctets(t *testing.T) {
	a := MustParseAddr("1.2.3.4")
	if a.Block() != Block(0x010203) {
		t.Errorf("Block() = %#x, want 0x010203", uint32(a.Block()))
	}
	if a.Host() != 4 {
		t.Errorf("Host() = %d, want 4", a.Host())
	}
}

func TestBlock(t *testing.T) {
	a := MustParseAddr("198.51.100.77")
	b := a.Block()
	if got := b.String(); got != "198.51.100.0/24" {
		t.Errorf("Block.String() = %q", got)
	}
	if b.Addr(77) != a {
		t.Errorf("Block.Addr(77) != original address")
	}
	if b.First() != MustParseAddr("198.51.100.0") {
		t.Errorf("Block.First() wrong")
	}
}

func TestPrefixParseAndContains(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.1.2")) {
		t.Error("10/8 should contain 10.255.1.2")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
	if p.NumAddrs() != 1<<24 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if p.Last() != MustParseAddr("10.255.255.255") {
		t.Errorf("Last = %v", p.Last())
	}
	if _, err := ParsePrefix("10.0.0.0/33"); err == nil {
		t.Error("expected error for /33")
	}
	if _, err := ParsePrefix("10.0.0.0"); err == nil {
		t.Error("expected error for missing slash")
	}
	// Host bits must be zeroed.
	q := MustParsePrefix("10.0.0.255/24")
	if q.Addr() != MustParseAddr("10.0.0.0") {
		t.Errorf("host bits not zeroed: %v", q.Addr())
	}
}

func TestPrefixZeroValue(t *testing.T) {
	var p Prefix
	if p.String() != "0.0.0.0/0" {
		t.Errorf("zero prefix = %q", p.String())
	}
	if !p.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("default route should contain everything")
	}
	if p.NumAddrs() != 1<<32 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
}

func TestPrefixBlocks(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/23")
	if p.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", p.NumBlocks())
	}
	var got []Block
	p.Blocks(func(b Block) { got = append(got, b) })
	if len(got) != 2 || got[0].String() != "192.0.2.0/24" || got[1].String() != "192.0.3.0/24" {
		t.Errorf("Blocks = %v", got)
	}
	p32 := MustParsePrefix("192.0.2.7/32")
	if p32.NumBlocks() != 1 {
		t.Errorf("/32 NumBlocks = %d", p32.NumBlocks())
	}
}
