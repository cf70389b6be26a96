// Package obs is the observation layer between simulation (or, in
// production, the CDN edge fleet) and analysis: typed observation
// events, a Sink interface the generation side emits into, a versioned
// binary dataset codec (Writer/Reader), and a Source interface the
// analysis side consumes.
//
// The paper's deployment is a pipeline — edge servers emit aggregates,
// a collection tier merges and stores them, and analyses run later over
// the stored year of observations. This package is that seam: a
// simulation streamed through a Writer produces a dataset file that can
// be shipped, stored, replayed under scenarios (see scenario.go) and
// analyzed many times without re-simulation.
package obs

import (
	"errors"
	"sort"

	"ipscope/internal/bgp"
	"ipscope/internal/binenc"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/synthnet"
	"ipscope/internal/useragent"
)

// RunConfig controls a simulation run. It lives here (aliased as
// sim.Config) so a stored dataset is self-describing: analyses need the
// window geometry, and world regeneration needs nothing beyond Meta.
type RunConfig struct {
	// Days is the total number of simulated days; defaults to 364
	// (52 weeks, standing in for calendar year 2015).
	Days int
	// DailyStart/DailyLen delimit the high-resolution "daily dataset"
	// window (the paper's 2015-08-17..2015-12-06 = 112 days).
	DailyStart, DailyLen int
	// UADays is how many trailing days of the daily window sample
	// User-Agent strings (the paper restricts to the last month).
	UADays int
	// ICMPScanDays are the days (absolute) on which an ICMP campaign
	// snapshot is taken; defaults to 8 days spread over the month
	// starting at day DailyStart+56 (the paper's October).
	ICMPScanDays []int
	// PrefixChangeFrac is the fraction of routed prefixes that undergo
	// a bulk restructuring during the year.
	PrefixChangeFrac float64
	// BlockChangeFrac is the fraction of individual /24 blocks that
	// undergo a single-block assignment change.
	BlockChangeFrac float64
	// BGPCoupleProb is the probability a restructuring is accompanied
	// by a visible BGP change (Table 2 suggests ~10-13%).
	BGPCoupleProb float64
	// BGPNoisePerDay is the expected number of unrelated BGP events
	// per day per 1000 prefixes (background flapping).
	BGPNoisePerDay float64
	// JoinFrac/LeaveFrac are the fractions of subscribers whose
	// lifetime starts/ends mid-year (long-term single-address churn).
	JoinFrac, LeaveFrac float64
	// TrafficGrowth is the relative growth of heavy-hitter (gateway,
	// bot) traffic from the first to the last day, driving the
	// traffic-consolidation trend of Figure 9(c).
	TrafficGrowth float64
	// Workers is the number of shards the /24 address space is split
	// into for the observation loop; <= 0 means GOMAXPROCS. Every block
	// evolves from its own seeded stream and shards merge in block
	// order, so results are identical for any worker count.
	Workers int
}

// NumWeeks returns the number of weekly snapshots a run of this
// configuration produces (at least 1; a trailing partial week folds
// into the last snapshot).
func (c RunConfig) NumWeeks() int {
	w := c.Days / 7
	if w == 0 {
		w = 1
	}
	return w
}

// CampaignWindow returns the daily-window days [from, to) of the month
// the ICMP campaign ran, as far as its first scans scans (> 0) pin it:
// from the first scan's day to the last one's, expanded symmetrically
// to at least 28 days (the paper compares a full month of CDN logs
// against 8 ICMP snapshots, Section 3.2). The window is not clamped: a
// caller clamps it to the days it holds.
func (c RunConfig) CampaignWindow(scans int) (from, to int) {
	from = c.ICMPScanDays[0] - c.DailyStart
	to = c.ICMPScanDays[scans-1] - c.DailyStart + 1
	if span := to - from; span < 28 {
		from -= (28 - span) / 2
		to = from + 28
	}
	return from, to
}

// Meta identifies a dataset: the world it was generated from and the
// run configuration that produced it. Because world generation is
// deterministic, Meta.World is sufficient to regenerate the full
// synthetic Internet on the analysis side.
type Meta struct {
	World synthnet.Config
	Run   RunConfig
}

// RestructureKind classifies a ground-truth assignment change.
type RestructureKind uint8

// Restructure kinds (Section 5: reallocation, reconfiguration,
// repurposing; plus activation/deactivation of whole ranges).
const (
	PolicySwitch RestructureKind = iota // new assignment practice
	Deactivate                          // range goes dark
	Activate                            // unused range brought into service
)

// String returns the kind name.
func (k RestructureKind) String() string {
	switch k {
	case PolicySwitch:
		return "policy-switch"
	case Deactivate:
		return "deactivate"
	case Activate:
		return "activate"
	}
	return "unknown"
}

// Restructure records one scheduled assignment change (ground truth).
type Restructure struct {
	Prefix     ipv4.Prefix
	Day        int
	Kind       RestructureKind
	BGPVisible bool
	BGPKind    bgp.ChangeKind // meaningful if BGPVisible
}

// BlockTraffic aggregates per-address activity over the daily window.
type BlockTraffic struct {
	DaysActive [256]uint16
	Hits       [256]float64
}

// UAStat summarizes sampled User-Agent strings for one /24 block.
type UAStat struct {
	Samples int
	Sketch  *useragent.HLL
}

// Unique returns the estimated number of distinct UA strings sampled.
func (u *UAStat) Unique() float64 {
	if u.Sketch == nil {
		return 0
	}
	return u.Sketch.Estimate()
}

// Event is one typed observation emitted by the generation side.
// Receivers switch on the concrete type.
type Event interface{ isEvent() }

// MetaEvent opens a stream: it carries the dataset identity and sizes
// every per-day/per-week structure that follows.
type MetaEvent struct{ Meta Meta }

// DayEvent is one completed day of the high-resolution daily window.
// Index is relative to RunConfig.DailyStart.
type DayEvent struct {
	Index     int
	Active    *ipv4.Set
	TotalHits float64
}

// WeekEvent is one completed week: the union of its days' activity and
// the share of its traffic carried by the top 10% of addresses.
type WeekEvent struct {
	Index    int
	Active   *ipv4.Set
	TopShare float64
}

// ICMPScanEvent is one ICMP campaign snapshot; Index addresses
// RunConfig.ICMPScanDays.
type ICMPScanEvent struct {
	Index      int
	Responders *ipv4.Set
}

// BlockStatsEvent carries one block's daily-window aggregates: traffic
// per address and/or the UA sampling sketch. Either field may be nil.
type BlockStatsEvent struct {
	Block   ipv4.Block
	Traffic *BlockTraffic
	UA      *UAStat
}

// SurfacesEvent carries the static scan surfaces: addresses answering
// service-port scans and router addresses seen on traceroute paths.
type SurfacesEvent struct {
	Servers *ipv4.Set
	Routers *ipv4.Set
}

// RoutingEvent carries the year's BGP history.
type RoutingEvent struct{ Log *bgp.ChangeLog }

// RestructuresEvent carries the ground-truth change schedule.
type RestructuresEvent struct{ Restructures []Restructure }

func (MetaEvent) isEvent()         {}
func (DayEvent) isEvent()          {}
func (WeekEvent) isEvent()         {}
func (ICMPScanEvent) isEvent()     {}
func (BlockStatsEvent) isEvent()   {}
func (SurfacesEvent) isEvent()     {}
func (RoutingEvent) isEvent()      {}
func (RestructuresEvent) isEvent() {}

// Sink receives observation events. The generation side guarantees a
// serialized stream: Observe is never called concurrently, a MetaEvent
// arrives first, and event payloads are never mutated after emission —
// sinks may retain them without copying. A Sink that returns an error
// receives no further events.
type Sink interface {
	Observe(Event) error
}

// SinkFunc adapts a function to the Sink interface, the way
// http.HandlerFunc adapts handlers.
type SinkFunc func(Event) error

// Observe calls f(e).
func (f SinkFunc) Observe(e Event) error { return f(e) }

// TeeSink fans one serialized event stream out to several sinks, so a
// single live stream can feed storage and indexing (or any other pair
// of consumers) concurrently. A sink that returns an error is dropped
// from the fan-out and receives no further events; the stream keeps
// flowing to the remaining sinks. Observe itself only fails once every
// sink has failed, so the producer is not stopped by one bad consumer.
type TeeSink struct {
	sinks []Sink
	errs  []error
}

// Tee returns a TeeSink delivering every event to each sink in order.
func Tee(sinks ...Sink) *TeeSink {
	return &TeeSink{sinks: sinks, errs: make([]error, len(sinks))}
}

// Observe delivers e to every sink that has not previously failed.
func (t *TeeSink) Observe(e Event) error {
	healthy := false
	for i, s := range t.sinks {
		if t.errs[i] != nil {
			continue
		}
		if err := s.Observe(e); err != nil {
			t.errs[i] = err
		} else {
			healthy = true
		}
	}
	if !healthy && len(t.sinks) > 0 {
		return t.Err()
	}
	return nil
}

// Err joins the errors of every failed sink (nil if none failed).
func (t *TeeSink) Err() error { return errors.Join(t.errs...) }

// Source yields a complete observation dataset. Implementations
// include *Data itself (a decoded dataset) and *sim.Result (a live
// run).
type Source interface {
	Observations() (*Data, error)
}

// Data is the canonical in-memory observation dataset: everything the
// analyses consume, decoupled from how it was produced (live
// simulation, dataset file, network ingest). It implements both Sink
// (collecting events) and Source (serving itself).
type Data struct {
	Meta Meta

	// Daily[i] is the set of addresses active on day DailyStart+i.
	Daily []*ipv4.Set
	// DailyTotalHits[i] is the total request volume on day DailyStart+i.
	DailyTotalHits []float64
	// Weekly[wk] is the set of addresses active during week wk
	// (union of its 7 days) across the whole run.
	Weekly []*ipv4.Set
	// WeeklyTopShare[wk] is the fraction of that week's traffic that
	// went to the top 10% of addresses by traffic (Figure 9c).
	WeeklyTopShare []float64
	// Traffic holds per-address aggregates over the daily window.
	Traffic map[ipv4.Block]*BlockTraffic
	// UA holds per-block User-Agent sampling statistics for the UA window.
	UA map[ipv4.Block]*UAStat
	// ICMPScans[i] is the set of addresses that answered the ICMP
	// campaign on Meta.Run.ICMPScanDays[i].
	ICMPScans []*ipv4.Set
	// ServerSet are addresses answering service-port scans (HTTP(S),
	// SMTP, ...): the ZMap service-scan substitute.
	ServerSet *ipv4.Set
	// RouterSet are router addresses appearing in traceroutes (the
	// Ark substitute).
	RouterSet *ipv4.Set
	// Routing is the year's BGP history as a change log.
	Routing *bgp.ChangeLog
	// Restructures is the ground-truth change schedule.
	Restructures []Restructure
}

// Observe applies one event to the dataset. Later events for the same
// index supersede earlier ones; an index outside the geometry declared
// by the MetaEvent is an error, so a corrupted stream cannot decode
// into a silently incomplete dataset.
func (d *Data) Observe(e Event) error {
	switch ev := e.(type) {
	case MetaEvent:
		d.Meta = ev.Meta
		run := ev.Meta.Run
		d.Daily = newSets(run.DailyLen)
		d.DailyTotalHits = make([]float64, run.DailyLen)
		// Weekly slots stay nil until their event arrives: the week
		// count derives from the campaign length, not the applied
		// prefix, so on a stream prefix the unclosed tail must remain
		// distinguishable from closed-but-empty weeks (WriteTo skips it,
		// keeping prefix datasets faithful through a round trip).
		d.Weekly = make([]*ipv4.Set, run.NumWeeks())
		d.WeeklyTopShare = make([]float64, run.NumWeeks())
		d.ICMPScans = newSets(len(run.ICMPScanDays))
		d.Traffic = make(map[ipv4.Block]*BlockTraffic)
		d.UA = make(map[ipv4.Block]*UAStat)
		d.ServerSet = ipv4.NewSet()
		d.RouterSet = ipv4.NewSet()
	case DayEvent:
		if ev.Index < 0 || ev.Index >= len(d.Daily) {
			return binenc.Errorf(formatName, "day event index %d outside window of %d days", ev.Index, len(d.Daily))
		}
		d.Daily[ev.Index] = ev.Active
		d.DailyTotalHits[ev.Index] = ev.TotalHits
	case WeekEvent:
		if ev.Index < 0 || ev.Index >= len(d.Weekly) {
			return binenc.Errorf(formatName, "week event index %d outside run of %d weeks", ev.Index, len(d.Weekly))
		}
		d.Weekly[ev.Index] = ev.Active
		d.WeeklyTopShare[ev.Index] = ev.TopShare
	case ICMPScanEvent:
		if ev.Index < 0 || ev.Index >= len(d.ICMPScans) {
			return binenc.Errorf(formatName, "ICMP scan event index %d outside campaign of %d snapshots", ev.Index, len(d.ICMPScans))
		}
		d.ICMPScans[ev.Index] = ev.Responders
	case BlockStatsEvent:
		if ev.Traffic != nil {
			d.Traffic[ev.Block] = ev.Traffic
		}
		if ev.UA != nil {
			d.UA[ev.Block] = ev.UA
		}
	case SurfacesEvent:
		d.ServerSet, d.RouterSet = ev.Servers, ev.Routers
	case RoutingEvent:
		d.Routing = ev.Log
	case RestructuresEvent:
		d.Restructures = ev.Restructures
	}
	return nil
}

// Observations returns the dataset itself: *Data is a Source.
func (d *Data) Observations() (*Data, error) { return d, nil }

// WriteTo replays the dataset as events into sink, in canonical order:
// meta, restructures, routing, days, ICMP scans, weeks, per-block
// stats (ascending block order), surfaces. Encoding a Data this way is
// deterministic: equal datasets produce byte-identical streams.
func (d *Data) WriteTo(sink Sink) error {
	events := make([]Event, 0, 8)
	events = append(events,
		MetaEvent{Meta: d.Meta},
		RestructuresEvent{Restructures: d.Restructures},
		RoutingEvent{Log: d.Routing},
	)
	for i, s := range d.Daily {
		events = append(events, DayEvent{Index: i, Active: s, TotalHits: d.DailyTotalHits[i]})
	}
	for i, s := range d.ICMPScans {
		events = append(events, ICMPScanEvent{Index: i, Responders: s})
	}
	for i, s := range d.Weekly {
		if s == nil {
			continue // week not closed at this stream prefix
		}
		events = append(events, WeekEvent{Index: i, Active: s, TopShare: d.WeeklyTopShare[i]})
	}
	for _, blk := range d.statBlocks() {
		events = append(events, BlockStatsEvent{Block: blk, Traffic: d.Traffic[blk], UA: d.UA[blk]})
	}
	events = append(events, SurfacesEvent{Servers: d.ServerSet, Routers: d.RouterSet})
	for _, e := range events {
		if err := sink.Observe(e); err != nil {
			return err
		}
	}
	return nil
}

// statBlocks returns the union of Traffic and UA keys in ascending
// block order.
func (d *Data) statBlocks() []ipv4.Block {
	seen := make(map[ipv4.Block]bool, len(d.Traffic)+len(d.UA))
	for b := range d.Traffic {
		seen[b] = true
	}
	for b := range d.UA {
		seen[b] = true
	}
	return sortedBlocks(seen)
}

// DailyWindowUnion returns the union of all daily sets.
func (d *Data) DailyWindowUnion() *ipv4.Set {
	return ipv4.UnionAll(d.Daily, d.Meta.Run.Workers)
}

// YearUnion returns the union of all weekly sets.
func (d *Data) YearUnion() *ipv4.Set {
	return ipv4.UnionAll(d.Weekly, d.Meta.Run.Workers)
}

// ICMPUnion returns the union of all ICMP campaign snapshots.
func (d *Data) ICMPUnion() *ipv4.Set {
	return ipv4.UnionAll(d.ICMPScans, d.Meta.Run.Workers)
}

// CampaignMonthUnion returns the set of addresses active during the
// month the ICMP campaign ran (RunConfig.CampaignWindow over every scan
// day), clamped to the daily window; with no campaign, the whole daily
// window. The query index's applier derives its capture–recapture month
// from the same CampaignWindow, which is what keeps the visibility
// figures and the index's numbers on one window.
func (d *Data) CampaignMonthUnion() *ipv4.Set {
	cfg := d.Meta.Run
	if len(cfg.ICMPScanDays) == 0 {
		return d.DailyWindowUnion()
	}
	from, to := cfg.CampaignWindow(len(cfg.ICMPScanDays))
	return core.WindowUnion(d.Daily, from, to)
}

// TrafficBlocks returns the blocks with traffic aggregates in ascending
// order. Analyses that fold per-address traffic into floating-point
// accumulators must iterate in this order to stay deterministic (Go map
// order is randomized).
func (d *Data) TrafficBlocks() []ipv4.Block {
	out := make([]ipv4.Block, 0, len(d.Traffic))
	for b := range d.Traffic {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedBlocks(seen map[ipv4.Block]bool) []ipv4.Block {
	out := make([]ipv4.Block, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func newSets(n int) []*ipv4.Set {
	out := make([]*ipv4.Set, n)
	for i := range out {
		out[i] = ipv4.NewSet()
	}
	return out
}
