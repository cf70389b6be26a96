package rdns

import (
	"fmt"
	"strings"
	"testing"

	"ipscope/internal/ipv4"
	"ipscope/internal/xrand"
)

// refLookup is Zone.Lookup as it stood before the name kernel: the
// Sprintf/ReplaceAll pipeline, kept here as the reference every name
// byte is compared against.
func refLookup(z *Zone, h byte) string {
	if z.Style == StyleNone {
		return ""
	}
	r := xrand.Derive(z.seed, fmt.Sprintf("%d/%d", z.Block, h))
	noisy := float64(r%1000)/1000 < z.Noise
	a := z.Block.Addr(h)
	dashed := strings.ReplaceAll(a.String(), ".", "-")
	if noisy {
		if r%3 == 0 {
			return ""
		}
		return fmt.Sprintf("host-%s.%s", dashed, z.Domain)
	}
	switch z.Style {
	case StyleStatic:
		return fmt.Sprintf("static-%s.%s", dashed, z.Domain)
	case StyleDynamic:
		if r%2 == 0 {
			return fmt.Sprintf("dynamic-%s.pool.%s", dashed, z.Domain)
		}
		return fmt.Sprintf("pool-%s.%s", dashed, z.Domain)
	default:
		return fmt.Sprintf("host-%s.%s", dashed, z.Domain)
	}
}

// refClassifyName is the strings.ToLower/Contains matcher of the same
// vintage.
func refClassifyName(name string) Tag {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "static"):
		return Static
	case strings.Contains(n, "dynamic"), strings.Contains(n, "pool"),
		strings.Contains(n, "dhcp"), strings.Contains(n, "dyn."),
		strings.HasPrefix(n, "dyn-"):
		return Dynamic
	}
	return Untagged
}

// refClassifyZone is the reference tagger: the reference names through
// the reference matcher, counted and thresholded independently of
// ClassifyBlock.
func refClassifyZone(z *Zone, minConsistent float64) Tag {
	var counts [3]int
	resolvable := 0
	for h := 0; h < 256; h++ {
		name := refLookup(z, byte(h))
		if name == "" {
			continue
		}
		resolvable++
		counts[refClassifyName(name)]++
	}
	if resolvable == 0 {
		return Untagged
	}
	need := int(minConsistent * float64(resolvable))
	if need < 1 {
		need = 1
	}
	switch {
	case counts[Static] >= need && counts[Static] > counts[Dynamic]:
		return Static
	case counts[Dynamic] >= need && counts[Dynamic] > counts[Static]:
		return Dynamic
	}
	return Untagged
}

// tagDomains stress the argument that lets ClassifyZone match one name
// per variant — that no keyword can match across a name's digit runs:
// keywords in mixed case in the domain, "dyn-" that counts only as a
// name's prefix, "dyn." at the very end, digits and dashes beside the
// keywords, and a domain longer than nameBuf.
var tagDomains = []string{
	"Static.Pool.example",
	"dyn-x.net",
	"X.DYN.",
	"10-0-0-1.dyn-7.static-2-3.net",
	strings.Repeat("ab-12.", 24) + "dyn.net",
}

// TestZoneMatchesReference compares every name and every zone tag with
// the reference, exhaustively over styles × noise × edge blocks × hosts
// × seeds and over domains that exercise the matcher (upper case, a
// keyword in the domain itself).
func TestZoneMatchesReference(t *testing.T) {
	styles := []NamingStyle{StyleNone, StyleStatic, StyleDynamic, StyleGeneric}
	noises := []float64{0, 0.1, 0.5, 1}
	blocks := []ipv4.Block{0, 1, 255, 65536, 1 << 23, 1<<24 - 1, blk("203.0.113.0")}
	domains := append([]string{"", "isp.net", "CUST.Example.NET", "DHCP.Big-ISP.com", "dyn.carrier.example"}, tagDomains...)
	seeds := []uint64{0, 7, 1 << 63}
	for _, style := range styles {
		for _, noise := range noises {
			for _, b := range blocks {
				for _, domain := range domains {
					for _, seed := range seeds {
						z := NewZone(b, style, domain, noise, seed)
						for h := 0; h < 256; h++ {
							got, want := z.Lookup(byte(h)), refLookup(z, byte(h))
							if got != want {
								t.Fatalf("style=%d noise=%v block=%d domain=%q seed=%d host=%d: Lookup = %q, reference %q",
									style, noise, b, domain, seed, h, got, want)
							}
							if gt, wt := ClassifyName(got), refClassifyName(want); gt != wt {
								t.Fatalf("ClassifyName(%q) = %v, reference %v", got, gt, wt)
							}
						}
						for _, min := range []float64{0.6, 0.95} {
							if got, want := ClassifyZone(z, min), refClassifyZone(z, min); got != want {
								t.Fatalf("style=%d noise=%v block=%d domain=%q seed=%d min=%v: ClassifyZone = %v, reference %v",
									style, noise, b, domain, seed, min, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// benchZone is a world-shaped zone: a dynamic pool at the 10 % noise
// synthnet uses, so all three name shapes and missing records occur.
func benchZone() *Zone { return NewZone(blk("198.51.100.0"), StyleDynamic, "", 0.1, 42) }

// TestClassifyZoneZeroAllocs is the deterministic gate on the tagger
// kernel (a world is ~900 k names at every process start): names are
// built and matched in one stack buffer, so tagging a zone allocates
// nothing.
func TestClassifyZoneZeroAllocs(t *testing.T) {
	z := benchZone()
	if avg := testing.AllocsPerRun(20, func() { ClassifyZone(z, 0.6) }); avg != 0 {
		t.Errorf("ClassifyZone allocates %v times per zone, want 0", avg)
	}
}

var sinkTag Tag

func BenchmarkClassifyZone(b *testing.B) {
	z := benchZone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTag = ClassifyZone(z, 0.6)
	}
}

// FuzzClassifyZone holds ClassifyZone, which matches one name per
// variant, to the reference tagger, which matches all 256, over
// arbitrary blocks, styles, domains, noise levels and seeds. The
// reference lower-cases Unicode and the matcher ASCII only (RFC 4343),
// so a domain with a non-ASCII byte is held to ClassifyBlock over
// Zone.Lookup instead: every name built and matched.
func FuzzClassifyZone(f *testing.F) {
	for i, domain := range append([]string{"", "isp.net"}, tagDomains...) {
		for style := StyleNone; style <= StyleGeneric; style++ {
			f.Add(uint32(0xcb0071+i), uint8(style), domain, 0.1, uint64(i))
		}
	}
	f.Add(uint32(1<<24-1), uint8(StyleDynamic), "dyn-x.net", 0.5, uint64(1<<63))
	f.Add(uint32(0), uint8(StyleStatic), "X.DYN.", 1.0, uint64(7))
	f.Fuzz(func(t *testing.T, block uint32, style uint8, domain string, noise float64, seed uint64) {
		z := NewZone(ipv4.Block(block%(1<<24)), NamingStyle(style), domain, noise, seed)
		ascii := true
		for i := 0; i < len(domain); i++ {
			ascii = ascii && domain[i] < 0x80
		}
		for _, min := range []float64{0.6, 0.95} {
			got := ClassifyZone(z, min)
			want := ClassifyBlock(z.Lookup, min)
			if ascii {
				want = refClassifyZone(z, min)
			}
			if got != want {
				t.Fatalf("block=%d style=%d domain=%q noise=%v seed=%d min=%v: ClassifyZone = %v, reference %v",
					z.Block, style, domain, noise, seed, min, got, want)
			}
		}
	})
}
