package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"ipscope/internal/binenc"
	"ipscope/internal/ipv4"
)

// filterTestData hand-builds a small dataset spanning several /24
// blocks (no simulator: sim imports obs).
func filterTestData(t *testing.T) *Data {
	t.Helper()
	d := &Data{}
	meta := Meta{Run: RunConfig{Days: 14, DailyStart: 0, DailyLen: 3, ICMPScanDays: []int{1}}}
	events := []Event{MetaEvent{Meta: meta}}

	blockAddrs := func(blocks []string, hosts int) *ipv4.Set {
		s := ipv4.NewSet()
		for _, b := range blocks {
			blk := ipv4.MustParsePrefix(b).FirstBlock()
			for h := 0; h < hosts; h++ {
				s.Add(blk.Addr(byte(h)))
			}
		}
		return s
	}
	days := []*ipv4.Set{
		blockAddrs([]string{"10.0.0.0/24", "10.0.9.0/24", "192.168.3.0/24"}, 5),
		blockAddrs([]string{"10.0.0.0/24", "192.168.3.0/24"}, 9),
		blockAddrs([]string{"10.0.9.0/24", "172.16.0.0/24"}, 2),
	}
	for i, s := range days {
		events = append(events, DayEvent{Index: i, Active: s, TotalHits: float64(100 + i)})
	}
	events = append(events,
		WeekEvent{Index: 0, Active: blockAddrs([]string{"10.0.0.0/24", "172.16.0.0/24"}, 4), TopShare: 0.5},
		WeekEvent{Index: 1, Active: blockAddrs([]string{"192.168.3.0/24"}, 4), TopShare: 0.6},
		ICMPScanEvent{Index: 0, Responders: blockAddrs([]string{"10.0.0.0/24", "192.168.3.0/24"}, 3)},
		BlockStatsEvent{Block: ipv4.MustParsePrefix("10.0.0.0/24").FirstBlock(), Traffic: &BlockTraffic{}},
		BlockStatsEvent{Block: ipv4.MustParsePrefix("192.168.3.0/24").FirstBlock(), UA: &UAStat{Samples: 7}},
		SurfacesEvent{
			Servers: blockAddrs([]string{"10.0.9.0/24"}, 2),
			Routers: blockAddrs([]string{"172.16.0.0/24"}, 2),
		},
	)
	for _, e := range events {
		if err := d.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestFilterSourcePartitions pins the property cluster sharding builds
// on: filtering a dataset through the complementary halves of a block
// partition yields disjoint slices whose per-day cardinalities sum to
// the original's, with stream-global payloads intact.
func TestFilterSourcePartitions(t *testing.T) {
	d := filterTestData(t)
	pivot := ipv4.MustParsePrefix("172.16.0.0/24").FirstBlock()
	keepLo := func(b ipv4.Block) bool { return b < pivot }
	keepHi := func(b ipv4.Block) bool { return b >= pivot }

	lo, err := FilterSource(d, keepLo).Observations()
	if err != nil {
		t.Fatal(err)
	}
	hi, err := FilterSource(d, keepHi).Observations()
	if err != nil {
		t.Fatal(err)
	}

	if len(lo.Daily) != len(d.Daily) || len(hi.Daily) != len(d.Daily) {
		t.Fatal("filtering must keep the window geometry")
	}
	for day := range d.Daily {
		if got := lo.Daily[day].Len() + hi.Daily[day].Len(); got != d.Daily[day].Len() {
			t.Fatalf("day %d: partition lens %d != original %d", day, got, d.Daily[day].Len())
		}
		if lo.Daily[day].IntersectCount(hi.Daily[day]) != 0 {
			t.Fatalf("day %d: partitions overlap", day)
		}
		if lo.DailyTotalHits[day] != d.DailyTotalHits[day] {
			t.Fatalf("day %d: global total hits must pass through", day)
		}
	}
	for wk := range d.Weekly {
		if got := lo.Weekly[wk].Len() + hi.Weekly[wk].Len(); got != d.Weekly[wk].Len() {
			t.Fatalf("week %d: partition lens %d != original %d", wk, got, d.Weekly[wk].Len())
		}
		if lo.WeeklyTopShare[wk] != d.WeeklyTopShare[wk] {
			t.Fatalf("week %d: global top share must pass through", wk)
		}
	}
	if len(lo.Traffic) != 1 || len(hi.Traffic) != 0 {
		t.Fatalf("traffic events misrouted: lo=%d hi=%d", len(lo.Traffic), len(hi.Traffic))
	}
	if len(lo.UA) != 0 || len(hi.UA) != 1 {
		t.Fatalf("UA events misrouted: lo=%d hi=%d", len(lo.UA), len(hi.UA))
	}
	if got := lo.ICMPUnion().Len() + hi.ICMPUnion().Len(); got != d.ICMPUnion().Len() {
		t.Fatalf("ICMP union partition lens %d != original %d", got, d.ICMPUnion().Len())
	}
	if lo.ServerSet.Len() != d.ServerSet.Len() || hi.ServerSet.Len() != 0 {
		t.Fatal("server surface misrouted")
	}
	if hi.RouterSet.Len() != d.RouterSet.Len() || lo.RouterSet.Len() != 0 {
		t.Fatal("router surface misrouted")
	}
	// The filtered datasets must not alias the original's sets.
	lo.Daily[0].Add(ipv4.MustParseAddr("10.0.0.250"))
	if d.Daily[0].Contains(ipv4.MustParseAddr("10.0.0.250")) {
		t.Fatal("filtered set aliases the original")
	}
}

// events collects what a decode delivers.
type events []Event

func (es *events) Observe(e Event) error { *es = append(*es, e); return nil }

// filtered is what FilterSink(sink, keep) delivers of es.
func (es events) filtered(t testing.TB, keep func(ipv4.Block) bool) events {
	t.Helper()
	var out events
	f := FilterSink(&out, keep)
	for _, e := range es {
		if err := f.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// handCount is a Restricter that counts the events it is handed itself.
type handCount struct {
	Restricter
	handed int
}

func (h *handCount) Observe(e Event) error {
	h.handed++
	return h.Restricter.Observe(e)
}

// keepEven is a block predicate that splits sampleData's sets and its
// block-stats frames in half; FuzzDecode restricts every input by it.
func keepEven(b ipv4.Block) bool { return b%2 == 0 }

// corruptForeignStats returns stream with the flags byte of its first
// block-stats frame of a block keep rejects cleared, so the frame's
// traffic and UA bytes become trailing garbage: a decoder that reads the
// frame fails, one restricted by keep discards it unread.
func corruptForeignStats(t testing.TB, stream []byte, keep func(ipv4.Block) bool) []byte {
	t.Helper()
	s := bytes.Clone(stream)
	for off := len(magic) + 2; off+5 <= len(s); {
		kind, n := s[off], int(binary.BigEndian.Uint32(s[off+1:]))
		if kind == kindBlockStats && !keep(ipv4.Block(binary.BigEndian.Uint32(s[off+5:]))) {
			s[off+5+4] = 0
			return s
		}
		off += 5 + n
	}
	t.Fatal("the stream has no foreign block-stats frame")
	return nil
}

// TestRestrictedDecodeMatchesFilterSink holds the decoder's restriction
// to its definition: decoding sampleData through a Restricter delivers,
// frame kind by frame kind, exactly what FilterSink delivers of the full
// decode — a foreign block's stats frame yields no event — and hands the
// Restricter itself nothing but the meta event.
func TestRestrictedDecodeMatchesFilterSink(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleData(t, 4)); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var full events
	if err := StreamDecode(bytes.NewReader(stream), &full); err != nil {
		t.Fatal(err)
	}
	is := func(e Event, kind byte) bool {
		k, _ := encodeEvent(nil, e)
		return k == kind
	}
	kinds := []struct {
		name string
		kind byte
	}{
		{"meta", kindMeta}, {"day", kindDay}, {"week", kindWeek}, {"ICMP", kindICMP},
		{"block-stats", kindBlockStats}, {"surfaces", kindSurfaces},
		{"routing", kindRouting}, {"restructures", kindRestructures},
	}
	of := func(es events, kind byte) events {
		var out events
		for _, e := range es {
			if is(e, kind) {
				out = append(out, e)
			}
		}
		return out
	}
	for _, k := range kinds {
		if len(of(full, k.kind)) == 0 {
			t.Fatalf("sampleData has no %s frame", k.name)
		}
	}

	for _, p := range []struct {
		name string
		keep func(ipv4.Block) bool
	}{
		{"all", func(ipv4.Block) bool { return true }},
		{"none", func(ipv4.Block) bool { return false }},
		{"even", keepEven},
		{"range", func(b ipv4.Block) bool { return b >= 0x0a0004 && b < 0x0a0080 }},
	} {
		t.Run(p.name, func(t *testing.T) {
			want := full.filtered(t, p.keep)
			var got events
			head := &handCount{Restricter: FilterSink(&got, p.keep).(Restricter)}
			if err := StreamDecode(bytes.NewReader(stream), head); err != nil {
				t.Fatal(err)
			}
			for _, k := range kinds {
				if g, w := of(got, k.kind), of(want, k.kind); !reflect.DeepEqual(g, w) {
					t.Errorf("%s events: the restricted decode delivered %d, FilterSink %d, and they differ", k.name, len(g), len(w))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("the restricted decode delivers the events in another order")
			}
			for _, e := range of(got, kindBlockStats) {
				if b := e.(BlockStatsEvent).Block; !p.keep(b) {
					t.Errorf("block %v's stats delivered", b)
				}
			}
			if head.handed != 1 {
				t.Errorf("the Restricter was handed %d events, want the meta event only", head.handed)
			}
		})
	}

	// The documented price of not decoding a foreign frame: its corruption
	// goes unseen by the shard, while an unsharded decode rejects it.
	t.Run("corrupt-foreign-stats", func(t *testing.T) {
		bad := corruptForeignStats(t, stream, keepEven)
		var fe *binenc.Error
		if err := StreamDecode(bytes.NewReader(bad), &events{}); !errors.As(err, &fe) {
			t.Fatalf("unrestricted decode: %v, want *binenc.Error", err)
		}
		var got events
		if err := StreamDecode(bytes.NewReader(bad), FilterSink(&got, keepEven)); err != nil {
			t.Fatalf("restricted decode: %v", err)
		}
		if !reflect.DeepEqual(got, full.filtered(t, keepEven)) {
			t.Error("restricted decode of the corrupt stream differs from FilterSink over the intact one")
		}
	})
}
