package registry

import (
	"testing"
	"time"

	"ipscope/internal/ipv4"
)

func TestRIRNames(t *testing.T) {
	for i, r := range AllRIRs {
		if got, want := r.String(), [...]string{"ARIN", "RIPE", "APNIC", "LACNIC", "AFRINIC"}[i]; got != want {
			t.Errorf("AllRIRs[%d].String() = %q, want %q", i, got, want)
		}
	}
	if RIR(250).String() != "UNKNOWN" {
		t.Error("out-of-range RIR should be UNKNOWN")
	}
}

func TestExhaustionDatesOrdered(t *testing.T) {
	// Paper: APNIC (2011) < RIPE (2012) < LACNIC (2014) < ARIN (2015).
	order := []RIR{APNIC, RIPE, LACNIC, ARIN}
	var prev time.Time
	for _, r := range order {
		d, ok := r.ExhaustionDate()
		if !ok {
			t.Fatalf("%v missing exhaustion date", r)
		}
		if !d.After(prev) {
			t.Fatalf("%v exhaustion %v not after %v", r, d, prev)
		}
		prev = d
	}
	if _, ok := AFRINIC.ExhaustionDate(); ok {
		t.Error("AFRINIC should not be exhausted in study period")
	}
	if !IANAExhaustion.Before(mustDate(APNIC)) {
		t.Error("IANA exhaustion should precede APNIC")
	}
}

func mustDate(r RIR) time.Time {
	d, _ := r.ExhaustionDate()
	return d
}

func TestCountryTableConsistent(t *testing.T) {
	seen := map[Country]bool{}
	perRIR := map[RIR]int{}
	for _, c := range Countries {
		if seen[c.Code] {
			t.Errorf("duplicate country %v", c.Code)
		}
		seen[c.Code] = true
		perRIR[c.RIR]++
		if c.Weight <= 0 {
			t.Errorf("%v has nonpositive weight", c.Code)
		}
		if c.ICMPResponseRate <= 0 || c.ICMPResponseRate > 1 {
			t.Errorf("%v has invalid ICMP rate %v", c.Code, c.ICMPResponseRate)
		}
	}
	for _, r := range AllRIRs {
		if perRIR[r] == 0 {
			t.Errorf("no countries for %v", r)
		}
	}
	// The paper's key contrast: CN responds to ICMP far more than JP.
	cn, _ := CountryByCode("CN")
	jp, _ := CountryByCode("JP")
	if cn.ICMPResponseRate <= jp.ICMPResponseRate {
		t.Error("CN ICMP response rate must exceed JP per paper §3.4")
	}
	if _, ok := CountryByCode("XX"); ok {
		t.Error("unknown country found")
	}
}

func TestTableLookup(t *testing.T) {
	allocs := []Allocation{
		{Prefix: ipv4.MustParsePrefix("10.0.0.0/16"), Country: "US", RIR: ARIN},
		{Prefix: ipv4.MustParsePrefix("10.1.0.0/16"), Country: "DE", RIR: RIPE},
	}
	tbl := NewTable(allocs)
	if got := tbl.CountryOf(ipv4.MustParseAddr("10.0.5.1").Block()); got != "US" {
		t.Errorf("CountryOf = %v", got)
	}
	if got := tbl.RIROf(ipv4.MustParseAddr("10.1.200.1").Block()); got != RIPE {
		t.Errorf("RIROf = %v", got)
	}
	if _, ok := tbl.LookupBlock(ipv4.MustParseAddr("192.0.2.1").Block()); ok {
		t.Error("lookup outside allocations should fail")
	}
	if got := tbl.RIROf(ipv4.MustParseAddr("192.0.2.1").Block()); got != ARIN {
		t.Error("unallocated space should default to ARIN")
	}
}

func TestTableOverlapLaterWins(t *testing.T) {
	allocs := []Allocation{
		{Prefix: ipv4.MustParsePrefix("10.0.0.0/16"), Country: "US", RIR: ARIN},
		{Prefix: ipv4.MustParsePrefix("10.0.1.0/24"), Country: "BR", RIR: LACNIC},
	}
	tbl := NewTable(allocs)
	if got := tbl.CountryOf(ipv4.MustParseAddr("10.0.1.9").Block()); got != "BR" {
		t.Errorf("overlap: got %v, want BR", got)
	}
	if got := tbl.CountryOf(ipv4.MustParseAddr("10.0.2.9").Block()); got != "US" {
		t.Errorf("non-overlapped block: got %v, want US", got)
	}
}
