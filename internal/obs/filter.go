package obs

import "ipscope/internal/ipv4"

// FilterSink wraps sink so it only sees the slice of the observation
// stream that belongs to the /24 blocks keep accepts — the primitive
// behind cluster shards, where each serving node applies (and pays
// for) only its partition of the block space. Set-valued events
// (days, weeks, ICMP scans, surfaces) are restricted to kept blocks,
// per-block stats events for foreign blocks are dropped, and
// stream-global events (meta, routing, restructures) pass through
// unchanged. Scalar fields that aggregate over the whole address space
// (DayEvent.TotalHits, WeekEvent.TopShare) also pass through: they are
// not block-partitionable, and no partitioned consumer derives shard
// totals from them.
//
// Filtering preserves the Sink contract: payloads handed downstream
// are fresh copies, never mutations of the originals. Over events in
// memory (FilterSource) the filter copies what it keeps. A stream
// decoder (StreamDecodeFrom) given the returned sink hands it only meta
// events: it is a Restricter, so the decoder applies keep as it decodes
// and delivers to sink what this filter would have — this filter is the
// definition the decoder is tested against.
func FilterSink(sink Sink, keep func(ipv4.Block) bool) Sink {
	return &filterSink{sink: sink, keep: keep}
}

// Restricter is a Sink that passes each event on to another sink
// restricted to some /24 blocks, as FilterSink does. Restrict returns
// the block predicate and that downstream sink, or a nil keep while the
// predicate is not known yet (a partition sink before its meta event).
// StreamDecodeFrom uses it to restrict a stream as it decodes it, so for
// every event but meta, observing it must equal observing it through
// FilterSink(downstream, keep).
type Restricter interface {
	Sink
	Restrict() (keep func(ipv4.Block) bool, downstream Sink)
}

type filterSink struct {
	sink Sink
	keep func(ipv4.Block) bool
}

func (f *filterSink) Restrict() (func(ipv4.Block) bool, Sink) { return f.keep, f.sink }

func (f *filterSink) Observe(e Event) error {
	switch ev := e.(type) {
	case DayEvent:
		ev.Active = ev.Active.FilterBlocks(f.keep)
		return f.sink.Observe(ev)
	case WeekEvent:
		ev.Active = ev.Active.FilterBlocks(f.keep)
		return f.sink.Observe(ev)
	case ICMPScanEvent:
		ev.Responders = ev.Responders.FilterBlocks(f.keep)
		return f.sink.Observe(ev)
	case BlockStatsEvent:
		if !f.keep(ev.Block) {
			return nil
		}
		return f.sink.Observe(ev)
	case SurfacesEvent:
		ev.Servers = ev.Servers.FilterBlocks(f.keep)
		ev.Routers = ev.Routers.FilterBlocks(f.keep)
		return f.sink.Observe(ev)
	default:
		return f.sink.Observe(e)
	}
}

// FilterSource restricts src to the blocks keep accepts: Observations
// replays the underlying dataset through a FilterSink into a fresh
// Data, so a shard build over the result pays index cost only for its
// partition. The filtered dataset keeps the full window geometry (every
// day/week slot exists; foreign blocks are simply absent from the
// sets), which is what makes per-shard summaries mergeable slot by
// slot.
func FilterSource(src Source, keep func(ipv4.Block) bool) Source {
	return &filterSource{src: src, keep: keep}
}

type filterSource struct {
	src  Source
	keep func(ipv4.Block) bool
}

func (f *filterSource) Observations() (*Data, error) {
	d, err := f.src.Observations()
	if err != nil {
		return nil, err
	}
	out := &Data{}
	if err := d.WriteTo(FilterSink(out, f.keep)); err != nil {
		return nil, err
	}
	return out, nil
}
