package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ipscope/internal/bgp"
	"ipscope/internal/binenc"
	"ipscope/internal/ipv4"
	"ipscope/internal/useragent"
)

// Dataset wire format (all integers big endian): a fixed magic guards
// against desynchronized streams and every frame is length-prefixed so
// unknown event kinds can be skipped. Payload fields are written and checked by
// internal/binenc (counts validated before allocation, sticky first
// error, trailing bytes rejected).
//
//	stream := magic("ipsobs") version(2) frame* endFrame
//	frame  := kind(1) length(4) payload[length]
//
// Frame kinds mirror the Event types; an end frame (kindEnd, empty
// payload) marks clean termination — a stream without one is truncated.

const (
	// Version is the current dataset format version.
	Version = 1

	maxFrameLen = 1 << 28 // 256 MiB: far above any real frame

	kindMeta         = 0x01
	kindDay          = 0x02
	kindWeek         = 0x03
	kindICMP         = 0x04
	kindBlockStats   = 0x05
	kindSurfaces     = 0x06
	kindRouting      = 0x07
	kindRestructures = 0x08
	kindEnd          = 0xFF
)

var magic = []byte("ipsobs")

// ErrTruncated is returned when a dataset stream ends before its end
// frame: the producer died mid-write or the file was cut short.
var ErrTruncated = errors.New("obs: truncated dataset stream")

// be is the dataset stream's byte order; formatName labels its
// *binenc.Error values — structurally invalid dataset input: bad magic,
// an unsupported version, or a malformed frame.
const (
	be         = binenc.BE
	formatName = "obs"
)

// Writer encodes observation events to an output stream. It implements
// Sink, so it can be attached directly to a live simulation
// (sim.RunTo) and stream the dataset as days and weeks complete.
// Writes are buffered; Close writes the end frame and flushes.
type Writer struct {
	bw  *bufio.Writer
	err error
	buf []byte
}

// NewWriter returns a Writer over w. The stream header is written on
// the first event.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Observe encodes one event as a frame.
func (w *Writer) Observe(e Event) error {
	if w.err != nil {
		return w.err
	}
	if w.buf == nil { // first event: header
		if _, err := w.bw.Write(magic); err != nil {
			return w.fail(err)
		}
		var v [2]byte
		binary.BigEndian.PutUint16(v[:], Version)
		if _, err := w.bw.Write(v[:]); err != nil {
			return w.fail(err)
		}
		w.buf = make([]byte, 0, 1<<16)
	}
	frame, err := AppendFrame(w.buf[:0], e)
	if err != nil {
		return w.fail(err)
	}
	w.buf = frame[:0]
	if _, err := w.bw.Write(frame); err != nil {
		return w.fail(err)
	}
	return nil
}

// AppendFrame appends e to b as one stream frame — kind, length,
// payload: the bytes a Writer emits for it — so a consumer that must
// persist events it has applied (a checkpoint journal) stores them in the
// dataset's own encoding. It fails, appending nothing, on an event too
// large for the format: Decode rejects oversized frames, so writing one
// would produce an unrecoverable store.
func AppendFrame(b []byte, e Event) ([]byte, error) {
	start := len(b)
	kind, b := encodeEvent(append(b, 0, 0, 0, 0, 0), e)
	n := len(b) - start - 5
	if n > maxFrameLen {
		return b[:start], binenc.Errorf(formatName, "event frame of %d bytes exceeds the %d-byte format limit", n, maxFrameLen)
	}
	b[start] = kind
	binary.BigEndian.PutUint32(b[start+1:], uint32(n))
	return b, nil
}

// DecodeFrames decodes p, back-to-back frames as AppendFrame wrote them,
// and returns their events in order. Every length is checked against the
// bytes that remain before anything is decoded; frames of an unknown kind
// are skipped, as on a stream. The events alias nothing in p.
func DecodeFrames(p []byte) ([]Event, error) {
	var events []Event
	for len(p) > 0 {
		if len(p) < 5 {
			return nil, binenc.Errorf(formatName, "%d trailing bytes are no frame header", len(p))
		}
		kind, n := p[0], binary.BigEndian.Uint32(p[1:])
		if uint64(n) > uint64(len(p)-5) {
			return nil, binenc.Errorf(formatName, "frame 0x%02x announces %d bytes, %d remain", kind, n, len(p)-5)
		}
		e, err := decodeEvent(kind, p[5:5+n], nil)
		if err != nil {
			return nil, err
		}
		if e != nil {
			events = append(events, e)
		}
		p = p[5+n:]
	}
	return events, nil
}

// Flush writes buffered frames to the underlying writer without ending
// the stream, so a live consumer (a tailing reader, a TCP peer) sees
// the events emitted so far promptly instead of at buffer granularity.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.fail(w.bw.Flush())
}

// Close writes the end frame and flushes buffered output. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.buf == nil {
		// No events: still emit a well-formed (empty) stream.
		if err := w.Observe(MetaEvent{}); err != nil {
			return err
		}
	}
	if _, err := w.bw.Write([]byte{kindEnd, 0, 0, 0, 0}); err != nil {
		return w.fail(err)
	}
	return w.fail(w.bw.Flush())
}

func (w *Writer) fail(err error) error {
	if err != nil && w.err == nil {
		w.err = err
	}
	return err
}

// Write encodes a complete dataset to w in canonical event order.
// Equal datasets produce byte-identical output.
func Write(w io.Writer, d *Data) error {
	ew := NewWriter(w)
	if err := d.WriteTo(ew); err != nil {
		return err
	}
	return ew.Close()
}

// WriteFile writes a dataset to path.
func WriteFile(path string, d *Data) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StreamDecode reads one dataset stream from r, delivering each event
// to sink as soon as its frame is decoded — the streaming counterpart
// of Decode, and the read path live consumers (a tailing server, a
// network ingest) attach to. It enforces the stream contract Decode
// does: meta frame first, unknown frame kinds skipped, ErrTruncated if
// the stream ends before its end frame, *binenc.Error for structurally
// invalid input. A sink error stops the decode and is returned as is. A
// Restricter sink is restricted as the stream is decoded
// (StreamDecodeFrom).
func StreamDecode(r io.Reader, sink Sink) error {
	return StreamDecodeFrom(r, SkipCounts{}, sink)
}

// SkipCounts tells a stream decoder how many leading indexed events per
// kind the consumer has already applied (from a persisted checkpoint):
// day, week and ICMP-scan frames whose index is below the respective
// count are discarded at the frame level — four index bytes peeked, the
// rest of the payload skipped without decoding or allocating. Only
// indexed kinds can be skipped: the meta frame is always delivered
// (partition sinks and resuming consumers both need it), and the
// replace-semantics kinds (block stats, surfaces, routing,
// restructures) are always delivered because re-applying them is
// idempotent.
type SkipCounts struct {
	Days  int
	Weeks int
	Scans int
}

// skipLimit returns how many leading frames of this kind skip covers
// (0 = deliver everything).
func (s SkipCounts) skipLimit(kind byte) int {
	switch kind {
	case kindDay:
		return s.Days
	case kindWeek:
		return s.Weeks
	case kindICMP:
		return s.Scans
	}
	return 0
}

// StreamDecodeFrom is StreamDecode with a resume point: frames already
// covered by skip are discarded without decoding. It is the network
// ingest path for a consumer restarting from a snapshot checkpoint.
//
// A sink that is a Restricter has the block filter applied in the
// decoder: once Restrict yields a predicate (it is asked after every
// event until it does, and again after every meta event), set-valued
// frames are decoded with only the kept blocks' records, a block-stats
// frame of a foreign block is discarded after a 4-byte peek, and every
// event but meta goes straight to the restricter's downstream — what
// FilterSink would deliver there, without decoding what it would drop.
// Meta events always go to sink itself. A discarded frame is not
// validated, as with skip: a shard accepts a stream whose corruption
// lies only in another shard's block stats.
//
// Every frame is read into one reused payload buffer; no decoded event
// aliases it.
func StreamDecodeFrom(r io.Reader, skip SkipCounts, sink Sink) error {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return binenc.EOFAs(err, ErrTruncated)
	}
	if string(hdr[:len(magic)]) != string(magic) {
		return binenc.Errorf(formatName, "bad stream magic %q", hdr[:len(magic)])
	}
	if v := binary.BigEndian.Uint16(hdr[len(magic):]); v != Version {
		return binenc.Errorf(formatName, "unsupported dataset version %d (want %d)", v, Version)
	}
	sawMeta := false
	restricter, _ := sink.(Restricter)
	var keep func(ipv4.Block) bool // nil: deliver every block
	to := sink                     // where events other than meta go
	var payload []byte
	var fh [5]byte
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return binenc.EOFAs(err, ErrTruncated)
		}
		kind := fh[0]
		n := binary.BigEndian.Uint32(fh[1:])
		if n > maxFrameLen {
			return binenc.Errorf(formatName, "frame length %d exceeds limit", n)
		}
		if kind == kindEnd {
			if n != 0 {
				return binenc.Errorf(formatName, "end frame with non-empty payload")
			}
			if !sawMeta {
				return binenc.Errorf(formatName, "dataset stream has no meta frame")
			}
			return nil
		}
		if limit := skip.skipLimit(kind); limit > 0 && sawMeta && n >= 4 {
			// Indexed frame with a resume point: peek the big-endian
			// index and discard the payload wholesale when it is already
			// covered by the checkpoint.
			ib, err := br.Peek(4)
			if err != nil {
				return binenc.EOFAs(err, ErrTruncated)
			}
			if binary.BigEndian.Uint32(ib) < uint32(limit) {
				if _, err := br.Discard(int(n)); err != nil {
					return binenc.EOFAs(err, ErrTruncated)
				}
				continue
			}
		}
		if kind == kindBlockStats && keep != nil && n >= 4 {
			// A foreign block's stats: the restricter would drop the
			// event, so the payload is discarded undecoded.
			bb, err := br.Peek(4)
			if err != nil {
				return binenc.EOFAs(err, ErrTruncated)
			}
			if !keep(ipv4.Block(binary.BigEndian.Uint32(bb))) {
				if _, err := br.Discard(int(n)); err != nil {
					return binenc.EOFAs(err, ErrTruncated)
				}
				continue
			}
		}
		var err error
		if payload, err = binenc.ReadPayload(br, int(n), payload, ErrTruncated); err != nil {
			return err
		}
		e, err := decodeEvent(kind, payload, keep)
		if err != nil {
			return err
		}
		if e == nil {
			continue // unknown frame kind: skip for forward compatibility
		}
		if _, ok := e.(MetaEvent); ok {
			sawMeta = true
			if err := sink.Observe(e); err != nil {
				return err
			}
			keep, to = nil, sink // a meta event may re-plan the restriction
		} else if !sawMeta {
			return binenc.Errorf(formatName, "event frame 0x%02x before meta frame", kind)
		} else if err := to.Observe(e); err != nil {
			return err
		}
		if keep == nil && restricter != nil {
			if k, down := restricter.Restrict(); k != nil {
				keep, to = k, down
			}
		}
	}
}

// Decode reads one dataset stream from r. It returns ErrTruncated if
// the stream ends before its end frame and a *binenc.Error for
// structurally invalid input; it never panics on corrupt data.
func Decode(r io.Reader) (*Data, error) {
	d := &Data{}
	if err := StreamDecode(r, d); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeFile reads a dataset from path.
func DecodeFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Tail's reader polls again tailPollMin after a read that returned
// bytes, and doubles the wait on each empty poll up to tailPollMax.
const tailPollMin, tailPollMax = 2 * time.Millisecond, 200 * time.Millisecond

// Tail opens the dataset at path as a stream that is still being
// written: a producer (ipscope-gen -dataset FILE) appends frames while a
// consumer decodes them live. It waits for the file to appear, so the
// consumer can start first, and the reader it returns turns end-of-file
// into "wait for more bytes": Read polls, backing off while the file
// stays the same size, until it grows and never returns io.EOF —
// StreamDecode over it ends at the stream's end frame. Cancelling ctx
// ends either wait with ctx.Err().
func Tail(ctx context.Context, path string) (io.ReadCloser, error) {
	t := &tailReader{ctx: ctx, poll: tailPollMin}
	for {
		f, err := os.Open(path)
		if err == nil {
			t.f = f
			return t, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		if err := t.wait(); err != nil {
			return nil, err
		}
	}
}

type tailReader struct {
	ctx  context.Context
	f    *os.File
	poll time.Duration // the next wait
}

func (t *tailReader) Close() error { return t.f.Close() }

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			t.poll = tailPollMin
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if err := t.wait(); err != nil {
			return 0, err
		}
	}
}

// wait sleeps the current poll interval, then doubles it up to
// tailPollMax; cancelling ctx ends the sleep with ctx.Err().
func (t *tailReader) wait() error {
	select {
	case <-t.ctx.Done():
		return t.ctx.Err()
	case <-time.After(t.poll):
	}
	t.poll = min(2*t.poll, tailPollMax)
	return nil
}

// --- event payload encoding -----------------------------------------

func encodeEvent(b []byte, e Event) (kind byte, payload []byte) {
	switch ev := e.(type) {
	case MetaEvent:
		return kindMeta, AppendMeta(be, b, ev.Meta)
	case DayEvent:
		b = be.U32(b, uint32(ev.Index))
		b = be.F64(b, ev.TotalHits)
		return kindDay, appendSet(b, ev.Active)
	case WeekEvent:
		b = be.U32(b, uint32(ev.Index))
		b = be.F64(b, ev.TopShare)
		return kindWeek, appendSet(b, ev.Active)
	case ICMPScanEvent:
		b = be.U32(b, uint32(ev.Index))
		return kindICMP, appendSet(b, ev.Responders)
	case BlockStatsEvent:
		return kindBlockStats, appendBlockStats(b, ev)
	case SurfacesEvent:
		b = appendSet(b, ev.Servers)
		return kindSurfaces, appendSet(b, ev.Routers)
	case RoutingEvent:
		return kindRouting, appendRouting(b, ev.Log)
	case RestructuresEvent:
		return kindRestructures, appendRestructures(b, ev.Restructures)
	}
	panic(fmt.Sprintf("obs: unknown event type %T", e))
}

// decodeEvent decodes one frame payload; an unknown kind returns a nil
// event for the caller to skip. Reads past the end latch d's error
// instead of panicking, and trailing bytes are an error. A non-nil keep
// restricts set-valued payloads to the blocks it accepts.
func decodeEvent(kind byte, p []byte, keep func(ipv4.Block) bool) (Event, error) {
	d := binenc.NewDec(be, formatName, p)
	var e Event
	var what string
	switch kind {
	case kindMeta:
		e, what = MetaEvent{Meta: ReadMeta(d)}, "meta frame"
	case kindDay:
		e, what = DayEvent{Index: int(d.U32()), TotalHits: d.F64(), Active: decodeSet(d, keep)}, "day frame"
	case kindWeek:
		e, what = WeekEvent{Index: int(d.U32()), TopShare: d.F64(), Active: decodeSet(d, keep)}, "week frame"
	case kindICMP:
		e, what = ICMPScanEvent{Index: int(d.U32()), Responders: decodeSet(d, keep)}, "ICMP frame"
	case kindBlockStats:
		e, what = decodeBlockStats(d), "block-stats frame"
	case kindSurfaces:
		e, what = SurfacesEvent{Servers: decodeSet(d, keep), Routers: decodeSet(d, keep)}, "surfaces frame"
	case kindRouting:
		e, what = decodeRouting(d), "routing frame"
	case kindRestructures:
		e, what = decodeRestructures(d), "restructures frame"
	default:
		return nil, nil
	}
	if err := d.Finish(what); err != nil {
		return nil, err
	}
	return e, nil
}

func appendSet(b []byte, s *ipv4.Set) []byte {
	if s == nil {
		return be.U32(b, 0)
	}
	blocks := s.Blocks()
	b = be.U32(b, uint32(len(blocks)))
	for _, blk := range blocks {
		b = be.U32(b, uint32(blk))
		bm := s.BlockBitmap(blk)
		for i := 0; i < 4; i++ {
			b = be.U64(b, bm[i])
		}
	}
	return b
}

// decodeSet reads a set's records, keeping those of the blocks keep
// accepts (nil keeps all): they are counted over their block keys first,
// so the arrays the set owns are allocated at their final size and only
// kept bitmaps are copied out of the payload.
func decodeSet(d *binenc.Dec, keep func(ipv4.Block) bool) *ipv4.Set {
	const recSize = 36 // block(4) + bitmap(32)
	n := d.Count(recSize)
	// One Take for every record: Count has bounded n×36 by the payload,
	// and this loop is the ingest hot path. A decoder that failed (here
	// or upstream) supplies no records, so none may be indexed.
	recs := d.Take(recSize * n)
	if d.Err() != nil {
		return ipv4.NewSet()
	}
	blockAt := func(i int) ipv4.Block { return ipv4.Block(binary.BigEndian.Uint32(recs[recSize*i:])) }
	kept := n
	if keep != nil {
		kept = 0
		for i := 0; i < n; i++ {
			if keep(blockAt(i)) {
				kept++
			}
		}
	}
	blocks := make([]ipv4.Block, 0, kept)
	bitmaps := make([]ipv4.Bitmap256, kept)
	for i := 0; i < n; i++ {
		blk := blockAt(i)
		if keep != nil && !keep(blk) {
			continue
		}
		bm, rec := &bitmaps[len(blocks)], recs[recSize*i+4:recSize*(i+1)]
		for j := range bm {
			bm[j] = binary.BigEndian.Uint64(rec[8*j:])
		}
		blocks = append(blocks, blk)
	}
	return ipv4.NewSetOwning(blocks, bitmaps)
}

func appendPrefix(b []byte, p ipv4.Prefix) []byte {
	b = be.U32(b, uint32(p.Addr()))
	return be.U8(b, uint8(p.Bits()))
}

func decodePrefix(d *binenc.Dec) ipv4.Prefix {
	addr := ipv4.Addr(d.U32())
	bits := int(d.U8())
	if d.Err() != nil {
		return ipv4.Prefix{}
	}
	p, err := ipv4.NewPrefix(addr, bits)
	if err != nil {
		d.Failf("invalid prefix %v/%d", addr, bits)
	}
	return p
}

// AppendMeta appends m's twenty fields in byte order o. The dataset
// stream's meta frame (big-endian) and the index snapshot's meta section
// (little-endian) are this one layout.
func AppendMeta(o binenc.Order, b []byte, m Meta) []byte {
	b = o.U64(b, m.World.Seed)
	b = o.U32(b, uint32(m.World.NumASes))
	b = o.U32(b, uint32(m.World.MeanBlocksPerAS))
	r := m.Run
	b = o.U32(b, uint32(r.Days))
	b = o.U32(b, uint32(r.DailyStart))
	b = o.U32(b, uint32(r.DailyLen))
	b = o.U32(b, uint32(r.UADays))
	b = o.U32(b, uint32(len(r.ICMPScanDays)))
	for _, d := range r.ICMPScanDays {
		b = o.U32(b, uint32(d))
	}
	for _, f := range []float64{r.PrefixChangeFrac, r.BlockChangeFrac,
		r.BGPCoupleProb, r.BGPNoisePerDay, r.JoinFrac, r.LeaveFrac, r.TrafficGrowth} {
		b = o.F64(b, f)
	}
	return o.U32(b, uint32(int32(r.Workers)))
}

// ReadMeta reads what AppendMeta wrote, in d's byte order, and latches
// d's error on an implausible geometry or world. The world config drives
// synthnet.Generate on the analysis side; the bounds keep a corrupt meta
// from triggering a giant allocation there (2^24 /24 blocks is the
// entire IPv4 space). The negative checks matter where int is 32 bits
// and int(d.U32()) can wrap.
func ReadMeta(d *binenc.Dec) Meta {
	var m Meta
	m.World.Seed = d.U64()
	m.World.NumASes = int(d.U32())
	m.World.MeanBlocksPerAS = int(d.U32())
	r := &m.Run
	r.Days = int(d.U32())
	r.DailyStart = int(d.U32())
	r.DailyLen = int(d.U32())
	r.UADays = int(d.U32())
	n := d.Count(4)
	for i := 0; i < n; i++ {
		r.ICMPScanDays = append(r.ICMPScanDays, int(d.U32()))
	}
	for _, f := range []*float64{&r.PrefixChangeFrac, &r.BlockChangeFrac,
		&r.BGPCoupleProb, &r.BGPNoisePerDay, &r.JoinFrac, &r.LeaveFrac, &r.TrafficGrowth} {
		*f = d.F64()
	}
	r.Workers = int(int32(d.U32()))
	if r.Days < 0 || r.DailyLen < 0 || r.DailyLen > 1<<20 || r.Days > 1<<20 {
		d.Failf("implausible run geometry days=%d dailyLen=%d", r.Days, r.DailyLen)
	}
	if m.World.NumASes < 0 || m.World.MeanBlocksPerAS < 0 ||
		m.World.NumASes > 1<<22 || m.World.MeanBlocksPerAS > 1<<16 ||
		m.World.NumASes*m.World.MeanBlocksPerAS > 1<<24 {
		d.Failf("implausible world config ases=%d blocksPerAS=%d",
			m.World.NumASes, m.World.MeanBlocksPerAS)
	}
	return m
}

// SameDataset reports whether m and o identify the same dataset: every
// field that determines the stream's bytes. Run.Workers does not (the
// engine is bit-identical for any worker count).
func (m Meta) SameDataset(o Meta) bool {
	m.Run.Workers, o.Run.Workers = 0, 0
	return bytes.Equal(AppendMeta(be, nil, m), AppendMeta(be, nil, o))
}

func appendBlockStats(b []byte, ev BlockStatsEvent) []byte {
	b = be.U32(b, uint32(ev.Block))
	var flags uint8
	if ev.Traffic != nil {
		flags |= 1
	}
	if ev.UA != nil && ev.UA.Sketch != nil {
		flags |= 2
	}
	b = be.U8(b, flags)
	if ev.Traffic != nil {
		for _, v := range ev.Traffic.DaysActive {
			b = be.U16(b, v)
		}
		for _, v := range ev.Traffic.Hits {
			b = be.F64(b, v)
		}
	}
	if ev.UA != nil && ev.UA.Sketch != nil {
		b = be.U64(b, uint64(ev.UA.Samples))
		b = be.U8(b, ev.UA.Sketch.Precision())
		b = append(b, ev.UA.Sketch.Registers()...)
	}
	return b
}

func decodeBlockStats(d *binenc.Dec) Event {
	ev := BlockStatsEvent{Block: ipv4.Block(d.U32())}
	flags := d.U8()
	if flags&1 != 0 {
		bt := &BlockTraffic{}
		days, hits := d.Take(2*len(bt.DaysActive)), d.Take(8*len(bt.Hits))
		if d.Err() != nil {
			return nil
		}
		for i := range bt.DaysActive {
			bt.DaysActive[i] = binary.BigEndian.Uint16(days[2*i:])
		}
		for i := range bt.Hits {
			bt.Hits[i] = math.Float64frombits(binary.BigEndian.Uint64(hits[8*i:]))
		}
		ev.Traffic = bt
	}
	if flags&2 != 0 {
		samples := d.U64()
		p := d.U8()
		if p < 4 || p > 16 {
			d.Failf("invalid HLL precision %d", p)
			return nil
		}
		regs := d.Take(1 << p)
		if d.Err() != nil {
			return nil
		}
		sketch, err := useragent.HLLFromRegisters(p, regs)
		if err != nil {
			d.Failf("bad HLL registers: %v", err)
			return nil
		}
		ev.UA = &UAStat{Samples: int(samples), Sketch: sketch}
	}
	return ev
}

func appendRouting(b []byte, log *bgp.ChangeLog) []byte {
	if log == nil {
		b = be.U32(b, 0)
		return be.U32(b, 0)
	}
	b = be.U32(b, uint32(log.NumDays()))
	var routes []bgp.Route
	if log.Base != nil {
		routes = log.Base.Routes()
	}
	b = be.U32(b, uint32(len(routes)))
	for _, r := range routes {
		b = appendPrefix(b, r.Prefix)
		b = be.U32(b, uint32(r.Origin))
	}
	for _, day := range log.DayChanges {
		b = be.U32(b, uint32(len(day)))
		for _, c := range day {
			b = be.U8(b, uint8(c.Kind))
			b = appendPrefix(b, c.Prefix)
			b = be.U32(b, uint32(c.OldOrigin))
			b = be.U32(b, uint32(c.NewOrigin))
		}
	}
	return b
}

func decodeRouting(d *binenc.Dec) Event {
	numDays := d.Count(0) // a day may be empty: bounded below, not by the payload
	if numDays > 1<<20 {
		d.Failf("implausible routing day count %d", numDays)
		return nil
	}
	base := bgp.NewTable()
	nRoutes := d.Count(9)
	for i := 0; i < nRoutes; i++ {
		p := decodePrefix(d)
		origin := bgp.ASN(d.U32())
		if d.Err() != nil {
			return nil
		}
		base.Insert(bgp.Route{Prefix: p, Origin: origin})
	}
	log := bgp.NewChangeLog(base, numDays)
	for day := 0; day < numDays; day++ {
		n := d.Count(14)
		for i := 0; i < n; i++ {
			kind := bgp.ChangeKind(d.U8())
			p := decodePrefix(d)
			oldO := bgp.ASN(d.U32())
			newO := bgp.ASN(d.U32())
			if d.Err() != nil {
				return nil
			}
			log.Record(day, bgp.Change{Kind: kind, Prefix: p, OldOrigin: oldO, NewOrigin: newO})
		}
	}
	return RoutingEvent{Log: log}
}

func appendRestructures(b []byte, rs []Restructure) []byte {
	b = be.U32(b, uint32(len(rs)))
	for _, r := range rs {
		b = appendPrefix(b, r.Prefix)
		b = be.U32(b, uint32(r.Day))
		b = be.U8(b, uint8(r.Kind))
		b = be.Bool(b, r.BGPVisible)
		b = be.U8(b, uint8(r.BGPKind))
	}
	return b
}

func decodeRestructures(d *binenc.Dec) Event {
	n := d.Count(12)
	rs := make([]Restructure, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		rs = append(rs, Restructure{
			Prefix:     decodePrefix(d),
			Day:        int(d.U32()),
			Kind:       RestructureKind(d.U8()),
			BGPVisible: d.Bool(),
			BGPKind:    bgp.ChangeKind(d.U8()),
		})
	}
	return RestructuresEvent{Restructures: rs}
}
