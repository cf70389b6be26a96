package query

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ipscope/internal/binenc"
)

// wireFixtures returns value/encode/decode triples covering every wire
// codec, with fixtures chosen to exercise the fidelity rules: nil vs
// empty slices, negative ints, NaN/Inf floats, empty and non-ASCII
// strings.
type wireFixture struct {
	name   string
	value  any
	encode func(b []byte) []byte
	read   func(d *binenc.Dec) any
}

// decode runs the fixture's reader over p, returning the bytes left.
func (fx wireFixture) decode(p []byte) (any, []byte, error) {
	d := binenc.NewDec(be, wireFormat, p)
	v := fx.read(d)
	return v, d.Rest(), d.Err()
}

func wireFixtures() []wireFixture {
	var fx []wireFixture
	add := func(name string, value any, encode func([]byte) []byte, read func(*binenc.Dec) any) {
		fx = append(fx, wireFixture{name, value, encode, read})
	}

	for _, v := range []BlockView{
		{},
		{Block: "198.51.100.0/24", AS: 64500, Prefix: "198.51.0.0/16", Country: "DE",
			RIR: "RIPE", RDNS: "dsl-pool", Pattern: "dense", FD: 201, STU: 0.75,
			ActiveDays: 12, TotalHits: 9000.5, UASamples: 40, UAUnique: 17.2},
	} {
		v := v
		add("block/"+v.Block, v,
			func(b []byte) []byte { return AppendBlockViewWire(b, &v) },
			func(d *binenc.Dec) any { return ReadBlockViewWire(d) })
	}

	for _, v := range []AddrView{
		{FirstDay: -1, LastDay: -1},
		{Addr: "198.51.100.7", Block: "198.51.100.0/24", AS: 64500, Prefix: "198.51.0.0/16",
			Country: "JP", RIR: "APNIC", RDNS: "cable", Pattern: "sparse", Active: true,
			ActiveDays: 3, FirstDay: 0, LastDay: 83, Timeline: "##..#", Hits: 12.5,
			MeanDailyHits: 0.25, ICMPResponder: true, Server: true, Router: false},
	} {
		v := v
		add("addr/"+v.Addr, v,
			func(b []byte) []byte { return AppendAddrViewWire(b, &v) },
			func(d *binenc.Dec) any { return ReadAddrViewWire(d) })
	}

	for i, v := range []SummaryPartial{
		{},
		{Seed: 17, NumASes: 150, WorldBlocks: 1500, Days: 112, DailyStart: 28, DailyLen: 84,
			Weeks: 16, ActiveBlocks: 900, DailyUnion: 120000, YearUnion: 220000, ICMPUnion: 40000,
			Daily: SeriesPartial{Snapshots: 84, UnionIPs: 120000, UnionBlocks: 900, IPSum: 9999999,
				BlockSum: 70000, SnapASes: [][]uint32{{1, 2, 3}, nil, {}}},
			Weekly:   SeriesPartial{Snapshots: 16, SnapASes: [][]uint32{}},
			CDNMonth: 5000, CDNBoth: 1200, DayLens: []int{3, 2, 1}, Ups: []int{0, 5},
			Downs: []int{}, WeekBase: 100, WeekLastAppear: 40, UASamples: 88,
			UAPrecision: 12, UARegisters: []byte{0, 1, 2, 255}},
	} {
		v := v
		add("summary/"+string(rune('a'+i)), v,
			func(b []byte) []byte { return AppendSummaryPartialWire(b, &v) },
			func(d *binenc.Dec) any { return ReadSummaryPartialWire(d) })
	}

	for i, v := range []ASPartial{
		{AS: 64500},
		{Found: true, AS: 64501, Kind: "isp", Country: "BR", RIR: "LACNIC",
			Prefixes: []string{"203.0.0.0/12", ""}, RoutedBlocks: 4096, ActiveBlocks: 300,
			ActiveAddrs: 70000, Hits: []float64{0, math.MaxFloat64, -1.5, 0.1}},
		{Found: true, Prefixes: []string{}, Hits: []float64{}},
	} {
		v := v
		add("as/"+string(rune('a'+i)), v,
			func(b []byte) []byte { return AppendASPartialWire(b, &v) },
			func(d *binenc.Dec) any { return ReadASPartialWire(d) })
	}

	for i, v := range []PrefixPartial{
		{Prefix: "10.0.0.0/8", Blocks: 65536},
		{Prefix: "198.51.0.0/16", Blocks: 256, ActiveBlocks: 2, ActiveAddrs: 300,
			STU: []float64{0.5, 0.25}, Hits: []float64{10, 20}, Origins: []uint32{64500},
			BlockList: []BlockView{{Block: "198.51.100.0/24", AS: 64500}, {}}},
		{BlockList: []BlockView{}},
	} {
		v := v
		add("prefix/"+string(rune('a'+i)), v,
			func(b []byte) []byte { return AppendPrefixPartialWire(b, &v) },
			func(d *binenc.Dec) any { return ReadPrefixPartialWire(d) })
	}
	return fx
}

func TestWireCodecRoundTrip(t *testing.T) {
	for _, fx := range wireFixtures() {
		enc := fx.encode(nil)
		got, rest, err := fx.decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", fx.name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d bytes left over", fx.name, len(rest))
		}
		if !reflect.DeepEqual(got, fx.value) {
			t.Fatalf("%s: round trip = %+v, want %+v", fx.name, got, fx.value)
		}
		// Canonical: re-encoding the decode is the identity.
		if again := fx.encode(nil); string(again) != string(enc) {
			t.Fatalf("%s: re-encode differs", fx.name)
		}
		// Appending to a prefix leaves the prefix alone.
		withPrefix := fx.encode([]byte("prefix"))
		if string(withPrefix[:6]) != "prefix" || string(withPrefix[6:]) != string(enc) {
			t.Fatalf("%s: append clobbered its prefix", fx.name)
		}
	}
}

// TestWireCodecJSONFidelity pins the reason the codec distinguishes nil
// from empty slices: the reconstructed value must marshal to the same
// JSON bytes as the original, and for fields without omitempty
// (ASView.Prefixes is the live case downstream) nil and [] marshal
// differently.
func TestWireCodecJSONFidelity(t *testing.T) {
	for _, fx := range wireFixtures() {
		wantJSON, err := json.Marshal(fx.value)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := fx.decode(fx.encode(nil))
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: JSON after round trip %s, want %s", fx.name, gotJSON, wantJSON)
		}
	}
}

func TestWireCodecTruncated(t *testing.T) {
	for _, fx := range wireFixtures() {
		enc := fx.encode(nil)
		for n := 0; n < len(enc); n++ {
			if _, _, err := fx.decode(enc[:n]); err == nil {
				t.Fatalf("%s: decoding %d of %d bytes succeeded", fx.name, n, len(enc))
			} else if _, ok := err.(*binenc.Error); !ok {
				t.Fatalf("%s[:%d]: error %T (%v), want *binenc.Error", fx.name, n, err, err)
			}
		}
	}
}

func TestWireCodecCorrupt(t *testing.T) {
	v := ASPartial{Found: true, AS: 1, Prefixes: []string{"a"}, Hits: []float64{1}}
	enc := AppendASPartialWire(nil, &v)
	decode := func(p []byte) error {
		d := binenc.NewDec(be, wireFormat, p)
		ReadASPartialWire(d)
		return d.Err()
	}

	t.Run("bad-bool", func(t *testing.T) {
		bad := append([]byte{}, enc...)
		bad[0] = 2 // Found byte
		if decode(bad) == nil {
			t.Fatal("non-canonical bool accepted")
		}
	})
	t.Run("bad-presence", func(t *testing.T) {
		bad := append([]byte{}, enc...)
		// The Prefixes presence byte follows Found(1)+AS(4)+3 empty
		// strings (4 each).
		bad[1+4+12] = 7
		if decode(bad) == nil {
			t.Fatal("non-canonical presence byte accepted")
		}
	})
	// The merges and the summary's AS union assume every AS set strictly
	// ascending: a set out of order or with a repeat is a decode error.
	t.Run("as-set-order", func(t *testing.T) {
		for _, set := range [][]uint32{{3, 2}, {2, 2}, {1, 5, 5, 9}} {
			sp := SummaryPartial{Daily: SeriesPartial{Snapshots: 2, SnapASes: [][]uint32{{1}, set}}}
			if _, _, err := DecodeSummaryPartialWire(AppendSummaryPartialWire(nil, &sp)); err == nil {
				t.Errorf("summary partial with AS set %v decoded", set)
			} else if _, ok := err.(*binenc.Error); !ok {
				t.Errorf("AS set %v: error %T (%v), want *binenc.Error", set, err, err)
			}
			mp := MovementPartial{Entries: []MovementEntryPartial{{ASes: set}}}
			d := binenc.NewDec(be, wireFormat, AppendMovementPartialWire(nil, &mp))
			if ReadMovementPartialWire(d); d.Err() == nil {
				t.Errorf("movement partial with AS set %v decoded", set)
			}
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		// A count far beyond the remaining payload must error before
		// allocating.
		bad := append([]byte{}, enc[:1+4+12+1]...)
		bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF)
		if decode(bad) == nil {
			t.Fatal("implausible count accepted")
		}
	})
}
