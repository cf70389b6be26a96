package query

import (
	"encoding/binary"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"ipscope/internal/binenc"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/par"
	"ipscope/internal/rdns"
	"ipscope/internal/synthnet"
	"ipscope/internal/useragent"
)

// errNoMmap signals that the platform (or this particular file) cannot
// be mapped; the loader falls back to a plain read.
var errNoMmap = &binenc.Error{Format: snapFormat, Msg: "mmap unavailable"}

// snapErr reports structurally invalid snapshot bytes.
func snapErr(msg string, args ...any) error {
	return binenc.Errorf(snapFormat, msg, args...)
}

// LoadOptions controls snapshot loading.
type LoadOptions struct {
	// Workers bounds the load fan-out (block view assembly); <= 0 means
	// GOMAXPROCS. The loaded index is identical for any value.
	Workers int
}

// Loaded is a decoded snapshot: the reconstructed Index plus everything
// needed to verify, re-encode or resume from it.
//
// The Index may alias the snapshot's backing bytes (the zero-copy
// timeline section); when the snapshot was mmapped, Close unmaps them
// and the Index — and any Applier resumed from it — must not be used
// afterwards. A serving process simply never calls Close.
type Loaded struct {
	Index *Index
	Info  SnapshotInfo

	meta   obs.Meta
	resume *resumeState
	munmap func() error
}

// Close releases the snapshot's mapping, if any. See the type comment
// for the aliasing caveat.
func (l *Loaded) Close() error {
	if l.munmap == nil {
		return nil
	}
	f := l.munmap
	l.munmap = nil
	return f()
}

// Meta returns the identity of the dataset the snapshot was built from.
func (l *Loaded) Meta() obs.Meta { return l.meta }

// Resumable reports whether this snapshot is an Applier checkpoint
// (carries resume state) rather than a plain index image.
func (l *Loaded) Resumable() bool { return l.resume != nil }

// Encode re-serializes the loaded snapshot. For a canonical file this
// is a byte-for-byte fixed point: Encode(Decode(data)) == data — the
// inspect tool's -verify check and the fuzz invariant.
func (l *Loaded) Encode() []byte {
	return encodeSnapshot(l.Index, l.Info.Shard, l.resume)
}

// hostLittleEndian reports whether native byte order matches the
// snapshot's on-disk order, the precondition for casting bulk sections
// in place.
var hostLittleEndian = func() bool {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 0x0102)
	return buf[0] == 0x02
}()

// castU64s reinterprets b as a []uint64 without copying when the host
// is little-endian and the data is 8-byte aligned (mmap pages and the
// loader's fallback buffers both are); nil means the caller must
// decode-copy instead.
func castU64s(b []byte) []uint64 {
	if !hostLittleEndian || len(b)%8 != 0 {
		return nil
	}
	if len(b) == 0 {
		return []uint64{}
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// LoadSnapshotFile loads a snapshot from disk: mmap where the platform
// supports it (zero-copy for the bulk sections), a plain read otherwise.
func LoadSnapshotFile(path string, opts LoadOptions) (*Loaded, error) {
	if data, unmap, err := mmapFile(path); err == nil {
		l, derr := decodeSnapshot(data, opts)
		if derr != nil {
			unmap() //nolint:errcheck // decode error wins
			return nil, derr
		}
		l.munmap = unmap
		return l, nil
	}
	// mmap unavailable or failed: the portable path.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, opts)
}

// DecodeSnapshot decodes a snapshot from an in-memory image. The
// returned Index aliases data's timeline section; callers must not
// mutate data afterwards.
func DecodeSnapshot(data []byte) (*Loaded, error) {
	return decodeSnapshot(data, LoadOptions{})
}

// decodeSnapSet decodes one canonical address set: ascending blocks,
// zero padding, no empty bitmaps.
func decodeSnapSet(d *binenc.Dec) *ipv4.Set {
	n := d.Count64(40)
	s := ipv4.NewSet()
	prev := int64(-1)
	for i := 0; i < n && d.Err() == nil; i++ {
		blk := d.U32()
		if int64(blk) <= prev {
			d.Failf("set blocks not ascending at %d", blk)
			return s
		}
		prev = int64(blk)
		if d.U32() != 0 {
			d.Failf("nonzero set padding")
			return s
		}
		var bm ipv4.Bitmap256
		for w := 0; w < 4; w++ {
			bm[w] = d.U64()
		}
		if d.Err() == nil && bm.IsEmpty() {
			d.Failf("empty set bitmap for block %v", ipv4.Block(blk))
			return s
		}
		s.AddBlockBitmap(ipv4.Block(blk), &bm)
	}
	return s
}

// snapInfo is the decoded info section.
type snapInfo struct {
	days, words, nblocks int
	shard                *ShardRange
}

func decodeSnapshot(data []byte, opts LoadOptions) (*Loaded, error) {
	if len(data) < len(snapMagic) {
		return nil, ErrSnapshotTruncated
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, snapErr("bad magic")
	}
	if len(data) < snapPrefaceLen {
		return nil, ErrSnapshotTruncated
	}
	version := binary.LittleEndian.Uint16(data[8:])
	flags := binary.LittleEndian.Uint16(data[10:])
	count := binary.LittleEndian.Uint32(data[12:])
	epoch := binary.LittleEndian.Uint64(data[16:])
	total := binary.LittleEndian.Uint64(data[24:])
	if version != snapVersion {
		return nil, snapErr("unsupported version %d", version)
	}
	if flags&^uint16(snapFlagResume) != 0 {
		return nil, snapErr("unknown flags %#x", flags)
	}
	resumable := flags&snapFlagResume != 0
	want := uint32(numSections - 1)
	if resumable {
		want = numSections
	}
	if count != want {
		return nil, snapErr("section count %d, want %d", count, want)
	}
	if total > uint64(len(data)) {
		return nil, ErrSnapshotTruncated
	}
	if total < uint64(len(data)) {
		return nil, snapErr("%d trailing bytes after declared end", uint64(len(data))-total)
	}
	tableLen := snapPrefaceLen + snapTableEntry*int(count)
	if total < uint64(tableLen) {
		return nil, snapErr("declared length %d shorter than section table", total)
	}

	// Section table: ids sequential, offsets 8-aligned and strictly
	// sequential, inter-section gap bytes zero.
	sections := make([][]byte, count)
	infos := make([]SectionInfo, count)
	expected := uint64(align8(tableLen))
	prevEnd := uint64(tableLen)
	for i := 0; i < int(count); i++ {
		e := data[snapPrefaceLen+snapTableEntry*i:]
		id := binary.LittleEndian.Uint32(e)
		reserved := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if id != uint32(i+1) {
			return nil, snapErr("section %d has id %d, want %d", i, id, i+1)
		}
		if reserved != 0 {
			return nil, snapErr("nonzero reserved field in section table")
		}
		if off != expected {
			return nil, snapErr("section %s at offset %d, want %d", sectionNames[id], off, expected)
		}
		if length > total-off {
			return nil, snapErr("section %s overruns file", sectionNames[id])
		}
		for _, gap := range data[prevEnd:off] {
			if gap != 0 {
				return nil, snapErr("nonzero gap byte before section %s", sectionNames[id])
			}
		}
		sections[i] = data[off : off+length]
		infos[i] = SectionInfo{ID: id, Name: sectionNames[id], Offset: off, Length: length}
		prevEnd = off + length
		expected = uint64(align8(int(prevEnd)))
	}
	if prevEnd != total {
		return nil, snapErr("file length %d does not match last section end %d", total, prevEnd)
	}

	info, err := decodeInfo(sections[secInfo-1])
	if err != nil {
		return nil, err
	}
	meta, err := decodeMetaSection(sections[secMeta-1])
	if err != nil {
		return nil, err
	}
	if meta.Run.DailyLen > 0 && info.days > meta.Run.DailyLen {
		return nil, snapErr("days %d exceed daily window %d", info.days, meta.Run.DailyLen)
	}
	keys, err := decodeBlocksSection(sections[secBlocks-1], info.nblocks)
	if err != nil {
		return nil, err
	}
	timelines, err := decodeTimelinesSection(sections[secTimelines-1], info)
	if err != nil {
		return nil, err
	}
	views := sections[secViews-1]
	if len(views) != 48*info.nblocks {
		return nil, snapErr("views section length %d, want %d", len(views), 48*info.nblocks)
	}
	trafAt, err := decodeTrafficSection(sections[secTraffic-1], info.nblocks)
	if err != nil {
		return nil, err
	}
	tags, err := decodeTagsSection(sections[secTags-1])
	if err != nil {
		return nil, err
	}
	sd := binenc.NewDec(le, snapFormat, sections[secSets-1])
	icmp, servers, routers := decodeSnapSet(sd), decodeSnapSet(sd), decodeSnapSet(sd)
	if err := sd.Finish("sets section"); err != nil {
		return nil, err
	}
	// The partial section embeds the big-endian wire encoding verbatim.
	pd := binenc.NewDec(be, snapFormat, sections[secPartial-1])
	partial := ReadSummaryPartialWire(pd)
	if err := pd.Finish("partial section"); err != nil {
		return nil, err
	}
	if partial.DailyLen != info.days {
		return nil, snapErr("partial daily window %d does not match info days %d",
			partial.DailyLen, info.days)
	}
	var resume *resumeState
	if resumable {
		resume, err = decodeResumeSection(sections[secResume-1], meta)
		if err != nil {
			return nil, err
		}
		if resume.weeks != partial.Weeks {
			return nil, snapErr("resume weeks %d does not match partial weeks %d",
				resume.weeks, partial.Weeks)
		}
	}

	// Assemble the Index: regenerate the world (deterministic from the
	// meta), then join every block's view strings exactly as the Applier
	// does — stored scalars plus recomputed enrichment cannot drift between
	// the two paths.
	world := synthnet.Generate(meta.World)
	if partial.Seed != world.Seed || partial.NumASes != len(world.ASes) {
		return nil, snapErr("partial identity does not match regenerated world")
	}
	x := &Index{
		epoch:   epoch,
		meta:    metaInfo{seed: world.Seed, numASes: len(world.ASes)},
		obsMeta: meta,
		days:    info.days,
		words:   info.words,
		stride:  info.words,
		open:    -1,
		keys:    keys,
		routing: world.BaseRouting,
		world:   world,
		tags:    tags,
		icmp:    icmp,
		servers: servers,
		routers: routers,
	}
	p := partial
	x.partial = &p
	x.summary = p.Finalize()

	stride := 256 * info.words
	x.blocks = par.Map(info.nblocks, opts.Workers, func(i int) blockData {
		blk := keys[i]
		bd := blockData{
			blk:       blk,
			timelines: timelines[i*stride : (i+1)*stride],
			traffic:   trafAt[i],
		}
		v := &bd.view
		w := views[i*48 : (i+1)*48]
		v.FD = int(int64(binary.LittleEndian.Uint64(w)))
		v.STU = math.Float64frombits(binary.LittleEndian.Uint64(w[8:]))
		v.ActiveDays = int(int64(binary.LittleEndian.Uint64(w[16:])))
		v.TotalHits = math.Float64frombits(binary.LittleEndian.Uint64(w[24:]))
		v.UASamples = int(int64(binary.LittleEndian.Uint64(w[32:])))
		v.UAUnique = math.Float64frombits(binary.LittleEndian.Uint64(w[40:]))
		v.Block = blk.String()
		e := join(world.BaseRouting, world, tags, blk)
		e.enrich(v)
		return bd
	})
	x.ases = foldAS(asTable(world), x.blocks)

	l := &Loaded{
		Index: x,
		Info: SnapshotInfo{
			Epoch:     epoch,
			Days:      info.days,
			Words:     info.words,
			Blocks:    info.nblocks,
			Resumable: resumable,
			Shard:     info.shard,
			Sections:  infos,
		},
		meta:   meta,
		resume: resume,
	}
	return l, nil
}

func decodeInfo(sec []byte) (snapInfo, error) {
	if len(sec) != 48 {
		return snapInfo{}, snapErr("info section length %d, want 48", len(sec))
	}
	d := binenc.NewDec(le, snapFormat, sec)
	var info snapInfo
	info.days = d.Int()
	info.words = d.Int()
	info.nblocks = d.Int()
	present := d.U32()
	shardIndex := d.U32()
	shardCount := d.U32()
	lo := d.U32()
	hi := d.U32()
	pad := d.U32()
	if err := d.Finish("info section"); err != nil {
		return snapInfo{}, err
	}
	if pad != 0 {
		return snapInfo{}, snapErr("nonzero info padding")
	}
	if info.days < 1 || info.days > 1<<20 {
		return snapInfo{}, snapErr("implausible days %d", info.days)
	}
	if info.words != (info.days+63)/64 {
		return snapInfo{}, snapErr("words %d inconsistent with days %d", info.words, info.days)
	}
	if info.nblocks < 0 || info.nblocks > 1<<24 {
		return snapInfo{}, snapErr("implausible block count %d", info.nblocks)
	}
	switch present {
	case 0:
		if shardIndex|shardCount|lo|hi != 0 {
			return snapInfo{}, snapErr("shard fields set without shard flag")
		}
	case 1:
		if shardCount == 0 || shardCount > 1<<20 || shardIndex >= shardCount {
			return snapInfo{}, snapErr("implausible shard %d/%d", shardIndex, shardCount)
		}
		if lo > hi || hi > 1<<24 {
			return snapInfo{}, snapErr("implausible shard range [%d,%d)", lo, hi)
		}
		info.shard = &ShardRange{Index: int(shardIndex), Count: int(shardCount), Lo: lo, Hi: hi}
	default:
		return snapInfo{}, snapErr("invalid shard presence %d", present)
	}
	return info, nil
}

// decodeMetaSection reads the dataset identity, under the obs codec's
// own plausibility bounds.
func decodeMetaSection(sec []byte) (obs.Meta, error) {
	d := binenc.NewDec(le, snapFormat, sec)
	m := obs.ReadMeta(d)
	return m, d.Finish("meta section")
}

func decodeBlocksSection(sec []byte, nblocks int) ([]ipv4.Block, error) {
	if len(sec) != 4*nblocks {
		return nil, snapErr("blocks section length %d, want %d", len(sec), 4*nblocks)
	}
	keys := make([]ipv4.Block, nblocks)
	prev := int64(-1)
	for i := range keys {
		v := binary.LittleEndian.Uint32(sec[4*i:])
		if int64(v) <= prev {
			return nil, snapErr("blocks not strictly ascending at index %d", i)
		}
		prev = int64(v)
		keys[i] = ipv4.Block(v)
	}
	return keys, nil
}

// decodeTimelinesSection returns the packed timeline words: a zero-copy
// cast of the section where the host allows it, otherwise one
// allocation plus a decode pass.
func decodeTimelinesSection(sec []byte, info snapInfo) ([]uint64, error) {
	wantWords := uint64(info.nblocks) * 256 * uint64(info.words)
	if uint64(len(sec)) != 8*wantWords {
		return nil, snapErr("timelines section length %d, want %d", len(sec), 8*wantWords)
	}
	if words := castU64s(sec); words != nil {
		return words, nil
	}
	words := make([]uint64, wantWords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(sec[8*i:])
	}
	return words, nil
}

const trafficRecLen = 8 + 256*2 + 256*8

func decodeTrafficSection(sec []byte, nblocks int) ([]*blockTraffic, error) {
	d := binenc.NewDec(le, snapFormat, sec)
	m := d.Count64(trafficRecLen)
	if d.Err() != nil {
		return nil, d.Err()
	}
	trafAt := make([]*blockTraffic, nblocks)
	prev := int64(-1)
	for i := 0; i < m; i++ {
		idx := d.U32()
		if int64(idx) <= prev {
			return nil, snapErr("traffic records not ascending at %d", idx)
		}
		prev = int64(idx)
		if int(idx) >= nblocks {
			return nil, snapErr("traffic record for block index %d of %d", idx, nblocks)
		}
		if d.U32() != 0 {
			return nil, snapErr("nonzero traffic padding")
		}
		rec := d.Take(256*2 + 256*8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		t := &blockTraffic{}
		for h := 0; h < 256; h++ {
			t.daysActive[h] = binary.LittleEndian.Uint16(rec[2*h:])
		}
		hitsB := rec[256*2:]
		for h := 0; h < 256; h++ {
			t.hits[h] = math.Float64frombits(binary.LittleEndian.Uint64(hitsB[8*h:]))
		}
		trafAt[idx] = t
	}
	if err := d.Finish("traffic section"); err != nil {
		return nil, err
	}
	return trafAt, nil
}

func decodeTagsSection(sec []byte) (*rdns.TagIndex, error) {
	d := binenc.NewDec(le, snapFormat, sec)
	n := d.Count64(8)
	pairs := make([]rdns.BlockTag, 0, n)
	prev := int64(-1)
	for i := 0; i < n && d.Err() == nil; i++ {
		blk := d.U32()
		tag := d.U32()
		if int64(blk) <= prev {
			return nil, snapErr("tag blocks not ascending at %d", blk)
		}
		prev = int64(blk)
		if tag > uint32(rdns.Dynamic) {
			return nil, snapErr("invalid rDNS tag %d", tag)
		}
		pairs = append(pairs, rdns.BlockTag{Block: ipv4.Block(blk), Tag: rdns.Tag(tag)})
	}
	if err := d.Finish("tags section"); err != nil {
		return nil, err
	}
	return rdns.NewTagIndex(pairs), nil
}

func decodeResumeSection(sec []byte, meta obs.Meta) (*resumeState, error) {
	d := binenc.NewDec(le, snapFormat, sec)
	r := &resumeState{}
	r.weeks = d.Int()
	r.scans = d.Int()
	r.surfacesSeen = d.Bool()
	if d.Err() == nil {
		if r.weeks < 0 || r.weeks > meta.Run.NumWeeks() {
			return nil, snapErr("implausible resume weeks %d", r.weeks)
		}
		if r.scans < 0 || r.scans > len(meta.Run.ICMPScanDays) {
			return nil, snapErr("implausible resume scans %d", r.scans)
		}
	}
	r.yearUnion = decodeSnapSet(d)
	if r.weeks > 0 {
		r.week0 = decodeSnapSet(d)
		r.weekLast = decodeSnapSet(d)
	}
	if r.scans > 0 {
		r.cdnFrom = d.Int()
		r.cdnTo = d.Int()
		r.cdn = decodeSnapSet(d)
	}
	n := d.Count64(13) // minimum entry: block u32 + samples u64 + prec u8
	r.ua = make(map[ipv4.Block]*obs.UAStat, n)
	prev := int64(-1)
	for i := 0; i < n && d.Err() == nil; i++ {
		blk := d.U32()
		if int64(blk) <= prev {
			return nil, snapErr("resume UA blocks not ascending at %d", blk)
		}
		prev = int64(blk)
		samples := d.U64()
		st := &obs.UAStat{Samples: int(samples)}
		p := d.U8()
		if p != 0 {
			if p < 4 || p > 16 {
				return nil, snapErr("invalid HLL precision %d", p)
			}
			regs := d.Take(1 << p)
			if d.Err() != nil {
				break
			}
			sk, err := useragent.HLLFromRegisters(p, regs)
			if err != nil {
				return nil, snapErr("bad HLL registers: %v", err)
			}
			st.Sketch = sk
		}
		r.uaBlocks = append(r.uaBlocks, ipv4.Block(blk))
		r.ua[ipv4.Block(blk)] = st
	}
	if err := d.Finish("resume section"); err != nil {
		return nil, err
	}
	return r, nil
}

// ResumeApplier reconstructs the Applier whose EncodeCheckpoint
// produced this snapshot: same published epoch, same accumulated state,
// ready to keep applying the tail of the obs stream. The returned
// SkipCounts tell the stream layer which already-applied indexed events
// to discard at the frame level (obs.StreamDecodeFrom) — the ordering
// contract is satisfied without replaying them.
//
// Call at most once per Loaded: the Applier takes over (clones of) the
// resume state. The accepted lossiness is documented in DESIGN.md:
// traffic-only stats for never-active blocks are dropped — exactly as
// Build drops them.
func (l *Loaded) ResumeApplier(opts Options) (*Applier, obs.SkipCounts, error) {
	r := l.resume
	if r == nil {
		return nil, obs.SkipCounts{}, snapErr("not a resumable checkpoint")
	}
	x := l.Index
	p := x.partial
	a := NewApplier(opts)
	a.bind(l.meta, x.world, x.tags)
	if x.days > l.meta.Run.DailyLen {
		return nil, obs.SkipCounts{}, snapErr("days %d exceed daily window %d", x.days, l.meta.Run.DailyLen)
	}
	if len(p.DayLens) != x.days || len(p.Ups) != x.days-1 || len(p.Downs) != x.days-1 {
		return nil, obs.SkipCounts{}, snapErr("churn series (%d days, %d ups, %d downs) do not match a window of %d days",
			len(p.DayLens), len(p.Ups), len(p.Downs), x.days)
	}
	a.days, a.weeks, a.scans = x.days, r.weeks, r.scans
	a.accs = make(map[ipv4.Block]*blockAcc, len(x.keys))
	a.keys = x.keys

	// Restore each accumulator from its packed timelines in one pass: bit
	// d of host h's timeline says h was active on day d, which is exactly
	// the information applyDay folded in. beyond masks the bits of a
	// timeline's last word that lie past the window (none when the shift
	// is the whole word). A mid-word checkpoint's open word goes on taking
	// days, so each block gets back the tail a live applier holds.
	beyond := ^uint64(0) << uint(x.days-(x.words-1)*64)
	midWord := x.days%64 != 0 && x.days < a.window
	dayMask := make([]uint64, x.words)
	for i, blk := range x.keys {
		bd := &x.blocks[i]
		acc := &blockAcc{
			name:      bd.view.Block,
			timelines: make([]uint64, 256*a.fullWords),
			traffic:   bd.traffic,
			totalHits: bd.view.TotalHits, // read only beside traffic
			e:         join(x.routing, x.world, x.tags, blk),
			view:      bd.view,
			asCol:     a.asCol(blk),
		}
		clear(dayMask)
		for h := 0; h < 256; h++ {
			src := bd.timelines[h*x.words : (h+1)*x.words]
			copy(acc.timelines[h*a.fullWords:], src)
			var any uint64
			for wi, wv := range src {
				any |= wv
				dayMask[wi] |= wv
				acc.addrDays += bits.OnesCount64(wv)
			}
			if any != 0 {
				acc.union.Set(byte(h))
			}
		}
		if acc.union.IsEmpty() {
			return nil, obs.SkipCounts{}, snapErr("indexed block %v has an empty timeline", blk)
		}
		if late := dayMask[x.words-1] & beyond; late != 0 {
			return nil, obs.SkipCounts{}, snapErr("block %v active on day %d beyond window %d",
				blk, (x.words-1)*64+bits.TrailingZeros64(late), x.days)
		}
		for _, wv := range dayMask {
			acc.activeDays += bits.OnesCount64(wv)
		}
		if midWord {
			acc.tail = tailFrom(acc.timelines, a.fullWords, x.words-1, x.days, a.window)
		}
		a.accs[blk] = acc
	}
	// The one daily set the next event reads: the newest day's, for its
	// churn transition.
	a.lastDay = a.windowUnion(a.days-1, a.days)
	a.dayLens = append([]int(nil), p.DayLens...)

	a.icmpUnion = x.icmp
	a.dSum, a.wSum = p.Daily.clone(), p.Weekly.clone()
	a.yearUnion = r.yearUnion.Clone()
	a.week0, a.weekLast, a.weekLastAppear = r.week0, r.weekLast, p.WeekLastAppear
	if r.scans > 0 {
		a.cdnFrom, a.cdnTo = r.cdnFrom, r.cdnTo
		a.cdn = r.cdn.Clone()
	}
	a.ups = append([]int(nil), p.Ups...)
	a.downs = append([]int(nil), p.Downs...)
	for _, blk := range r.uaBlocks {
		a.acc(blk).ua = r.ua[blk]
	}
	if r.surfacesSeen {
		a.servers, a.routers = x.servers, x.routers
	}
	a.epoch = x.epoch
	a.prev = x

	return a, a.Applied(), nil
}
