package query

// Binary wire codec for the query views and mergeable partials — the
// payloads of the shard↔router RPC protocol (internal/rpc). Field
// encodings and the checks on untrusted bytes are internal/binenc's
// (big-endian); this file is only the layouts. Each Read*Wire decodes
// from the caller's *binenc.Dec, so an RPC frame decodes in one pass
// and reports one sticky error.
//
// Two fidelity rules keep RPC-reconstructed JSON byte-identical to the
// HTTP path:
//
//   - every slice is encoded behind a presence byte (0 = nil,
//     1 = present + count), because encoding/json distinguishes nil
//     (null) from empty ([]) for fields without omitempty —
//     ASView.Prefixes is the live example;
//   - ints travel as two's-complement u64 (AddrView.FirstDay/LastDay
//     can be -1) and floats as raw IEEE-754 bits, so no value is
//     rounded or clamped in transit.

import "ipscope/internal/binenc"

// be is the wire byte order; wireFormat labels the codec's
// *binenc.Error values.
const (
	be         = binenc.BE
	wireFormat = "query"
)

// --- BlockView -------------------------------------------------------

// AppendBlockViewWire appends v's canonical wire encoding to b.
func AppendBlockViewWire(b []byte, v *BlockView) []byte {
	b = be.String(b, v.Block)
	b = be.U32(b, v.AS)
	b = be.String(b, v.Prefix)
	b = be.String(b, v.Country)
	b = be.String(b, v.RIR)
	b = be.String(b, v.RDNS)
	b = be.String(b, v.Pattern)
	b = be.Int(b, v.FD)
	b = be.F64(b, v.STU)
	b = be.Int(b, v.ActiveDays)
	b = be.F64(b, v.TotalHits)
	b = be.Int(b, v.UASamples)
	b = be.F64(b, v.UAUnique)
	return b
}

// ReadBlockViewWire decodes one BlockView from d.
func ReadBlockViewWire(d *binenc.Dec) BlockView {
	var v BlockView
	v.Block = d.Str()
	v.AS = d.U32()
	v.Prefix = d.Str()
	v.Country = d.Str()
	v.RIR = d.Str()
	v.RDNS = d.Str()
	v.Pattern = d.Str()
	v.FD = d.Int()
	v.STU = d.F64()
	v.ActiveDays = d.Int()
	v.TotalHits = d.F64()
	v.UASamples = d.Int()
	v.UAUnique = d.F64()
	return v
}

// --- AddrView --------------------------------------------------------

// AppendAddrViewWire appends v's canonical wire encoding to b.
func AppendAddrViewWire(b []byte, v *AddrView) []byte {
	b = be.String(b, v.Addr)
	b = be.String(b, v.Block)
	b = be.U32(b, v.AS)
	b = be.String(b, v.Prefix)
	b = be.String(b, v.Country)
	b = be.String(b, v.RIR)
	b = be.String(b, v.RDNS)
	b = be.String(b, v.Pattern)
	b = be.Bool(b, v.Active)
	b = be.Int(b, v.ActiveDays)
	b = be.Int(b, v.FirstDay)
	b = be.Int(b, v.LastDay)
	b = be.String(b, v.Timeline)
	b = be.F64(b, v.Hits)
	b = be.F64(b, v.MeanDailyHits)
	b = be.Bool(b, v.ICMPResponder)
	b = be.Bool(b, v.Server)
	b = be.Bool(b, v.Router)
	return b
}

// ReadAddrViewWire decodes one AddrView from d.
func ReadAddrViewWire(d *binenc.Dec) AddrView {
	var v AddrView
	v.Addr = d.Str()
	v.Block = d.Str()
	v.AS = d.U32()
	v.Prefix = d.Str()
	v.Country = d.Str()
	v.RIR = d.Str()
	v.RDNS = d.Str()
	v.Pattern = d.Str()
	v.Active = d.Bool()
	v.ActiveDays = d.Int()
	v.FirstDay = d.Int()
	v.LastDay = d.Int()
	v.Timeline = d.Str()
	v.Hits = d.F64()
	v.MeanDailyHits = d.F64()
	v.ICMPResponder = d.Bool()
	v.Server = d.Bool()
	v.Router = d.Bool()
	return v
}

// --- SummaryPartial --------------------------------------------------

func appendSeriesPartial(b []byte, p *SeriesPartial) []byte {
	b = be.Int(b, p.Snapshots)
	b = be.Int(b, p.UnionIPs)
	b = be.Int(b, p.UnionBlocks)
	b = be.Int(b, p.IPSum)
	b = be.Int(b, p.BlockSum)
	b = be.Presence(b, p.SnapASes == nil, len(p.SnapASes))
	for _, s := range p.SnapASes {
		b = be.U32s(b, s)
	}
	return b
}

func readSeriesPartial(d *binenc.Dec) SeriesPartial {
	var p SeriesPartial
	p.Snapshots = d.Int()
	p.UnionIPs = d.Int()
	p.UnionBlocks = d.Int()
	p.IPSum = d.Int()
	p.BlockSum = d.Int()
	present, n := d.Presence(1) // 1 = minimum encoded size of a nil inner slice
	if present {
		p.SnapASes = make([][]uint32, n)
		for i := range p.SnapASes {
			p.SnapASes[i] = readASSet(d)
		}
	}
	return p
}

// readASSet reads a set of ASNs: strictly ascending, as the partials'
// merges and the summary's AS union assume, or a decode error.
func readASSet(d *binenc.Dec) []uint32 {
	s := d.U32s()
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			d.Failf("AS set not strictly ascending: %d after %d", s[i], s[i-1])
			return nil
		}
	}
	return s
}

// AppendSummaryPartialWire appends p's canonical wire encoding to b.
func AppendSummaryPartialWire(b []byte, p *SummaryPartial) []byte {
	b = be.U64(b, p.Seed)
	b = be.Int(b, p.NumASes)
	b = be.Int(b, p.WorldBlocks)
	b = be.Int(b, p.Days)
	b = be.Int(b, p.DailyStart)
	b = be.Int(b, p.DailyLen)
	b = be.Int(b, p.Weeks)
	b = be.Int(b, p.ActiveBlocks)
	b = be.Int(b, p.DailyUnion)
	b = be.Int(b, p.YearUnion)
	b = be.Int(b, p.ICMPUnion)
	b = appendSeriesPartial(b, &p.Daily)
	b = appendSeriesPartial(b, &p.Weekly)
	b = be.Int(b, p.CDNMonth)
	b = be.Int(b, p.CDNBoth)
	b = be.Ints(b, p.DayLens)
	b = be.Ints(b, p.Ups)
	b = be.Ints(b, p.Downs)
	b = be.Int(b, p.WeekBase)
	b = be.Int(b, p.WeekLastAppear)
	b = be.Int(b, p.UASamples)
	b = be.U8(b, p.UAPrecision)
	b = be.Bytes(b, p.UARegisters)
	return b
}

// DecodeSummaryPartialWire decodes one SummaryPartial from p, returning
// the remaining bytes.
func DecodeSummaryPartialWire(p []byte) (SummaryPartial, []byte, error) {
	d := binenc.NewDec(be, wireFormat, p)
	v := ReadSummaryPartialWire(d)
	if err := d.Err(); err != nil {
		return SummaryPartial{}, nil, err
	}
	return v, d.Rest(), nil
}

// ReadSummaryPartialWire decodes one SummaryPartial from d.
func ReadSummaryPartialWire(d *binenc.Dec) SummaryPartial {
	var v SummaryPartial
	v.Seed = d.U64()
	v.NumASes = d.Int()
	v.WorldBlocks = d.Int()
	v.Days = d.Int()
	v.DailyStart = d.Int()
	v.DailyLen = d.Int()
	v.Weeks = d.Int()
	v.ActiveBlocks = d.Int()
	v.DailyUnion = d.Int()
	v.YearUnion = d.Int()
	v.ICMPUnion = d.Int()
	v.Daily = readSeriesPartial(d)
	v.Weekly = readSeriesPartial(d)
	v.CDNMonth = d.Int()
	v.CDNBoth = d.Int()
	v.DayLens = d.Ints()
	v.Ups = d.Ints()
	v.Downs = d.Ints()
	v.WeekBase = d.Int()
	v.WeekLastAppear = d.Int()
	v.UASamples = d.Int()
	v.UAPrecision = d.U8()
	v.UARegisters = d.Bytes()
	return v
}

// --- ASPartial -------------------------------------------------------

// AppendASPartialWire appends p's canonical wire encoding to b.
func AppendASPartialWire(b []byte, p *ASPartial) []byte {
	b = be.Bool(b, p.Found)
	b = be.U32(b, p.AS)
	b = be.String(b, p.Kind)
	b = be.String(b, p.Country)
	b = be.String(b, p.RIR)
	b = be.Strings(b, p.Prefixes)
	b = be.Int(b, p.RoutedBlocks)
	b = be.Int(b, p.ActiveBlocks)
	b = be.Int(b, p.ActiveAddrs)
	b = be.F64s(b, p.Hits)
	return b
}

// ReadASPartialWire decodes one ASPartial from d.
func ReadASPartialWire(d *binenc.Dec) ASPartial {
	var v ASPartial
	v.Found = d.Bool()
	v.AS = d.U32()
	v.Kind = d.Str()
	v.Country = d.Str()
	v.RIR = d.Str()
	v.Prefixes = d.Strings()
	v.RoutedBlocks = d.Int()
	v.ActiveBlocks = d.Int()
	v.ActiveAddrs = d.Int()
	v.Hits = d.F64s()
	return v
}

// --- PrefixPartial ---------------------------------------------------

// AppendPrefixPartialWire appends p's canonical wire encoding to b.
func AppendPrefixPartialWire(b []byte, p *PrefixPartial) []byte {
	b = be.String(b, p.Prefix)
	b = be.Int(b, p.Blocks)
	b = be.Int(b, p.ActiveBlocks)
	b = be.Int(b, p.ActiveAddrs)
	b = be.F64s(b, p.STU)
	b = be.F64s(b, p.Hits)
	b = be.U32s(b, p.Origins)
	b = be.Presence(b, p.BlockList == nil, len(p.BlockList))
	for i := range p.BlockList {
		b = AppendBlockViewWire(b, &p.BlockList[i])
	}
	return b
}

// --- DeltaPartial ----------------------------------------------------

func appendBlockChange(b []byte, c *BlockChange) []byte {
	b = be.String(b, c.Block)
	b = be.U32(b, c.AS)
	b = be.Int(b, c.FDDelta)
	b = be.Int(b, c.ActiveDaysDelta)
	b = be.F64(b, c.HitsDelta)
	return b
}

func readBlockChange(d *binenc.Dec) BlockChange {
	var c BlockChange
	c.Block = d.Str()
	c.AS = d.U32()
	c.FDDelta = d.Int()
	c.ActiveDaysDelta = d.Int()
	c.HitsDelta = d.F64()
	return c
}

// 32 = minimum encoded BlockChange: one empty string (4) + the AS u32 +
// two ints and one float (8 bytes each).
func appendBlockChanges(b []byte, s []BlockChange) []byte {
	b = be.Presence(b, s == nil, len(s))
	for i := range s {
		b = appendBlockChange(b, &s[i])
	}
	return b
}

func readBlockChanges(d *binenc.Dec) []BlockChange {
	present, n := d.Presence(32)
	if !present {
		return nil
	}
	out := make([]BlockChange, n)
	for i := range out {
		out[i] = readBlockChange(d)
	}
	return out
}

// AppendDeltaPartialWire appends p's canonical wire encoding to b.
func AppendDeltaPartialWire(b []byte, p *DeltaPartial) []byte {
	b = be.U64(b, p.Seed)
	b = be.U64(b, p.FromEpoch)
	b = be.U64(b, p.ToEpoch)
	b = be.Int(b, p.FromDays)
	b = be.Int(b, p.ToDays)
	b = be.Int(b, p.NewBlocks)
	b = be.Int(b, p.GoneDarkBlocks)
	b = be.Int(b, p.ChangedBlocks)
	b = be.Int(b, p.ActiveBlocksDelta)
	b = be.Int(b, p.ActiveAddrsDelta)
	b = be.Int(b, p.YearUnionDelta)
	b = be.Int(b, p.ICMPUnionDelta)
	b = be.Int(b, p.ChurnUp)
	b = be.Int(b, p.ChurnDown)
	b = be.Int(b, p.WeeksAdded)
	b = appendBlockChanges(b, p.NewSample)
	b = appendBlockChanges(b, p.GoneDarkSample)
	b = appendBlockChanges(b, p.ChangedSample)
	// 30 = minimum encoded ASMovementPartial: the AS u32 + three ints +
	// two nil-slice presence bytes.
	b = be.Presence(b, p.ASMovement == nil, len(p.ASMovement))
	for i := range p.ASMovement {
		m := &p.ASMovement[i]
		b = be.U32(b, m.AS)
		b = be.Int(b, m.FromBlocks)
		b = be.Int(b, m.ToBlocks)
		b = be.Int(b, m.BothBlocks)
		b = be.F64s(b, m.FromHits)
		b = be.F64s(b, m.ToHits)
	}
	return b
}

// ReadDeltaPartialWire decodes one DeltaPartial from d.
func ReadDeltaPartialWire(d *binenc.Dec) DeltaPartial {
	var v DeltaPartial
	v.Seed = d.U64()
	v.FromEpoch = d.U64()
	v.ToEpoch = d.U64()
	v.FromDays = d.Int()
	v.ToDays = d.Int()
	v.NewBlocks = d.Int()
	v.GoneDarkBlocks = d.Int()
	v.ChangedBlocks = d.Int()
	v.ActiveBlocksDelta = d.Int()
	v.ActiveAddrsDelta = d.Int()
	v.YearUnionDelta = d.Int()
	v.ICMPUnionDelta = d.Int()
	v.ChurnUp = d.Int()
	v.ChurnDown = d.Int()
	v.WeeksAdded = d.Int()
	v.NewSample = readBlockChanges(d)
	v.GoneDarkSample = readBlockChanges(d)
	v.ChangedSample = readBlockChanges(d)
	present, n := d.Presence(30)
	if present {
		v.ASMovement = make([]ASMovementPartial, n)
		for i := range v.ASMovement {
			m := &v.ASMovement[i]
			m.AS = d.U32()
			m.FromBlocks = d.Int()
			m.ToBlocks = d.Int()
			m.BothBlocks = d.Int()
			m.FromHits = d.F64s()
			m.ToHits = d.F64s()
		}
	}
	return v
}

// --- MovementPartial -------------------------------------------------

// AppendMovementPartialWire appends p's canonical wire encoding to b.
func AppendMovementPartialWire(b []byte, p *MovementPartial) []byte {
	b = be.U64(b, p.Seed)
	b = be.U64(b, p.OldestEpoch)
	b = be.U64(b, p.NewestEpoch)
	// 57 = minimum encoded MovementEntryPartial: two u64 epochs + five
	// ints + a nil-slice presence byte.
	b = be.Presence(b, p.Entries == nil, len(p.Entries))
	for i := range p.Entries {
		e := &p.Entries[i]
		b = be.U64(b, e.Epoch)
		b = be.Int(b, e.Days)
		b = be.U64(b, e.BaseEpoch)
		b = be.Int(b, e.ActiveBlocks)
		b = be.Int(b, e.ActiveAddrs)
		b = be.Int(b, e.ChurnUp)
		b = be.Int(b, e.ChurnDown)
		b = be.U32s(b, e.ASes)
	}
	return b
}

// ReadMovementPartialWire decodes one MovementPartial from d.
func ReadMovementPartialWire(d *binenc.Dec) MovementPartial {
	var v MovementPartial
	v.Seed = d.U64()
	v.OldestEpoch = d.U64()
	v.NewestEpoch = d.U64()
	present, n := d.Presence(57)
	if present {
		v.Entries = make([]MovementEntryPartial, n)
		for i := range v.Entries {
			e := &v.Entries[i]
			e.Epoch = d.U64()
			e.Days = d.Int()
			e.BaseEpoch = d.U64()
			e.ActiveBlocks = d.Int()
			e.ActiveAddrs = d.Int()
			e.ChurnUp = d.Int()
			e.ChurnDown = d.Int()
			e.ASes = readASSet(d)
		}
	}
	return v
}

// ReadPrefixPartialWire decodes one PrefixPartial from d.
func ReadPrefixPartialWire(d *binenc.Dec) PrefixPartial {
	var v PrefixPartial
	v.Prefix = d.Str()
	v.Blocks = d.Int()
	v.ActiveBlocks = d.Int()
	v.ActiveAddrs = d.Int()
	v.STU = d.F64s()
	v.Hits = d.F64s()
	v.Origins = d.U32s()
	// 76 = minimum encoded BlockView: 6 empty strings (4 bytes each) +
	// 3 ints + 3 floats (8 bytes each) + the AS u32.
	present, n := d.Presence(76)
	if present {
		v.BlockList = make([]BlockView, n)
		for i := range v.BlockList {
			v.BlockList[i] = ReadBlockViewWire(d)
		}
	}
	return v
}
