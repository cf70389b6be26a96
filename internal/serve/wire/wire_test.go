package wire

import (
	"math"
	"testing"

	"ipscope/internal/ipv4"
)

// The error texts asserted below are the 400 bodies API.md documents:
// every tier that rejects a value answers with these bytes.

func TestParse24(t *testing.T) {
	want := ipv4.MustParseAddr("10.1.2.0").Block()
	for _, c := range []struct {
		raw     string
		wantErr string // "" = accepted as want
	}{
		{"10.1.2.0/24", ""},
		{"10.1.2.77/24", ""}, // host bits are masked off
		{"10.1.2.0", ""},
		{"10.1.2.255", ""}, // any bare address inside the block
		{"10.1.2.0/23", "block endpoint wants a /24, got /23"},
		{"10.1.2.0/32", "block endpoint wants a /24, got /32"},
		{"10.1.2.0/", "*"},
		{"10.1.2.0/x", "*"},
		{"10.1.2.0/33", "*"},
		{"10.1.2", "*"},
		{"10.1.2.256", "*"},
		{"banana", "*"},
		{"", "*"},
	} {
		got, err := Parse24(c.raw)
		switch {
		case c.wantErr == "":
			if err != nil || got != want {
				t.Errorf("Parse24(%q) = %v, %v; want %v", c.raw, got, err, want)
			}
		case err == nil:
			t.Errorf("Parse24(%q) = %v, want an error", c.raw, got)
		case c.wantErr != "*" && err.Error() != c.wantErr:
			t.Errorf("Parse24(%q) error %q, want %q", c.raw, err, c.wantErr)
		}
	}
}

func TestParseASN(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want uint32
		ok   bool
	}{
		{"64500", 64500, true},
		{"AS64500", 64500, true},
		{"as64500", 64500, true},
		{"0", 0, true},
		{"4294967295", math.MaxUint32, true},
		{"4294967296", 0, false},
		{"banana", 0, false},
		{"AS", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{"AS 7", 0, false},
		{"64500x", 0, false},
	} {
		got, err := ParseASN(c.raw)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseASN(%q) = %d, %v; want %d", c.raw, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseASN(%q) = %d, want an error", c.raw, got)
		}
	}
	// The rejection quotes the value as sent, not as normalized.
	if _, err := ParseASN("banana"); err == nil || err.Error() != `invalid ASN "banana"` {
		t.Errorf(`ParseASN("banana") error = %v, want invalid ASN "banana"`, err)
	}
}

func TestParseEpoch(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want uint64
		ok   bool
	}{
		{"", 0, true}, // absent: the live snapshot
		{"0", 0, true},
		{"7", 7, true},
		{"18446744073709551615", math.MaxUint64, true},
		{"18446744073709551616", 0, false},
		{"x", 0, false},
		{"-1", 0, false},
		{"1.5", 0, false},
		{" 7", 0, false},
	} {
		got, err := ParseEpoch(c.raw)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseEpoch(%q) = %d, %v; want %d", c.raw, got, err, c.want)
			}
			continue
		}
		if err == nil || err.Error() != ErrInvalidEpoch(c.raw) {
			t.Errorf("ParseEpoch(%q) = %d, %v; want error %q", c.raw, got, err, ErrInvalidEpoch(c.raw))
		}
	}
	if got := ErrInvalidEpoch("x"); got != `invalid epoch "x"` {
		t.Errorf("ErrInvalidEpoch text = %s", got)
	}
}

func TestParseDeltaSpan(t *testing.T) {
	if from, to, err := ParseDeltaSpan("3", "9"); err != nil || from != 3 || to != 9 {
		t.Errorf(`ParseDeltaSpan("3", "9") = %d, %d, %v`, from, to, err)
	}
	if from, to, err := ParseDeltaSpan("0", "1"); err != nil || from != 0 || to != 1 {
		t.Errorf(`ParseDeltaSpan("0", "1") = %d, %d, %v`, from, to, err)
	}
	// One text for every rejection — missing, non-integer, or not an
	// increasing span — quoting both values as sent.
	for _, c := range [][2]string{
		{"", ""},
		{"3", ""},
		{"", "9"},
		{"x", "9"},
		{"3", "y"},
		{"-1", "9"},
		{"9", "3"},
		{"5", "5"}, // from >= to, not only from > to
		{"0", "0"},
	} {
		from, to, err := ParseDeltaSpan(c[0], c[1])
		if err == nil || err.Error() != ErrDeltaParams(c[0], c[1]) || from != 0 || to != 0 {
			t.Errorf("ParseDeltaSpan(%q, %q) = %d, %d, %v; want error %q",
				c[0], c[1], from, to, err, ErrDeltaParams(c[0], c[1]))
		}
	}
	const documented = `delta wants ?from=E&to=E epochs with from < to (got from="" to="")`
	if got := ErrDeltaParams("", ""); got != documented {
		t.Errorf("ErrDeltaParams text = %s, want %s", got, documented)
	}
}

func TestParseLast(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want int
		ok   bool
	}{
		{"", 0, true}, // absent: the whole ring
		{"1", 1, true},
		{"40", 40, true},
		{"0", 0, false}, // an explicit window must hold at least one entry
		{"-3", 0, false},
		{"x", 0, false},
		{"2.0", 0, false},
		{"99999999999999999999", 0, false},
	} {
		got, err := ParseLast(c.raw)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseLast(%q) = %d, %v; want %d", c.raw, got, err, c.want)
			}
			continue
		}
		if err == nil || err.Error() != ErrInvalidLast(c.raw) {
			t.Errorf("ParseLast(%q) = %d, %v; want error %q", c.raw, got, err, ErrInvalidLast(c.raw))
		}
	}
	if got := ErrInvalidLast("x"); got != `invalid last "x"` {
		t.Errorf("ErrInvalidLast text = %s", got)
	}
}

func TestETagRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 1, 42, math.MaxUint64} {
		tag := ETagFor(epoch)
		got, ok := ETagEpoch(tag)
		if !ok || got != epoch {
			t.Errorf("ETagEpoch(ETagFor(%d) = %s) = %d, %v", epoch, tag, got, ok)
		}
		if !ETagMatch(tag, tag) {
			t.Errorf("ETagMatch(%s, itself) = false", tag)
		}
	}
	if got := ETagFor(7); got != `"ips-e7"` {
		t.Errorf("ETagFor(7) = %s", got)
	}
	for _, bad := range []string{
		"", `ips-e7`, `"ips-e7`, `ips-e7"`, `"ips-e"`, `"ips-ex"`, `"ips-e-1"`,
		`"ips-e18446744073709551616"`, `W/"ips-e7"`, `"other-7"`,
	} {
		if epoch, ok := ETagEpoch(bad); ok {
			t.Errorf("ETagEpoch(%q) = %d, true; want rejected", bad, epoch)
		}
	}
}

func TestETagMatch(t *testing.T) {
	tag := ETagFor(7)
	for _, c := range []struct {
		inm  string
		want bool
	}{
		{"", false}, // no header: never a 304
		{tag, true},
		{"*", true},
		{ETagFor(6), false},
		{ETagFor(6) + ", " + tag, true},
		{ETagFor(6) + "," + tag + " ", true},
		{ETagFor(6) + ", " + ETagFor(8), false},
		{`ips-e7`, false},    // unquoted is another tag
		{`"ips-e70"`, false}, // no prefix match
	} {
		if got := ETagMatch(c.inm, tag); got != c.want {
			t.Errorf("ETagMatch(%q, %s) = %v, want %v", c.inm, tag, got, c.want)
		}
	}
}
