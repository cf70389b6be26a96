// Persistent index snapshots: an epoch-stamped, versioned, canonical
// on-disk format for the complete Index, so a serving node cold-starts
// by loading sections instead of repaying query.Build (or a full obs
// stream replay) — O(sections), not O(addresses).
//
// File layout (all little-endian except the partial section, which
// embeds the existing big-endian SummaryPartial wire encoding verbatim):
//
//	offset  size  field
//	0       8     magic "ipssnap\x00"
//	8       2     version (currently 1)
//	10      2     flags (bit 0: resumable checkpoint)
//	12      4     section count
//	16      8     epoch
//	24      8     total file length
//	32      24*n  section table: id u32, reserved u32, offset u64, length u64
//
// Sections follow in id order, each starting on an 8-byte boundary
// (inter-section gap bytes are zero); the file ends exactly at the last
// section's end. The hot bulk sections — packed day-bitset timelines
// above all — are fixed-stride little-endian arrays, so on a
// little-endian host the loader maps them zero-copy (mmap on linux, one
// read into an aligned buffer elsewhere); graph-shaped sections (meta,
// tags, sets, summary partial) decode normally.
//
// Canonicality discipline mirrors the obs codec: every count is
// validated against the remaining bytes before allocation, every order
// constraint (ascending blocks) and padding byte is checked on decode,
// and decode∘encode is a byte-for-byte fixed point (FuzzSnapshotDecode
// enforces all three).
package query

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"ipscope/internal/binenc"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
)

const (
	snapMagic   = "ipssnap\x00"
	snapVersion = 1

	snapFlagResume = 1 << 0

	snapPrefaceLen = 32
	snapTableEntry = 24
)

// Section ids, in file order.
const (
	secInfo = iota + 1
	secMeta
	secBlocks
	secTimelines
	secViews
	secTraffic
	secTags
	secSets
	secPartial
	secResume
	numSections = secResume
)

var sectionNames = map[uint32]string{
	secInfo:      "info",
	secMeta:      "meta",
	secBlocks:    "blocks",
	secTimelines: "timelines",
	secViews:     "views",
	secTraffic:   "traffic",
	secTags:      "tags",
	secSets:      "sets",
	secPartial:   "partial",
	secResume:    "resume",
}

// le is the byte order of the snapshot's sections (the wire codec is
// big-endian; bulk sections are little-endian so they can be cast in
// place on the dominant hosts). snapFormat labels the *binenc.Error a
// structurally invalid snapshot file reports.
const (
	le         = binenc.LE
	snapFormat = "query: snapshot"
)

// ErrSnapshotTruncated reports a snapshot file shorter than its declared
// length — the one corruption mode retries can fix (a partially written
// file), which is why it is distinguishable from *binenc.Error.
var ErrSnapshotTruncated = errors.New("query: snapshot: truncated file")

// ShardRange records the cluster partition a snapshot was built for, so
// a restarted shard re-announces the same block range.
type ShardRange struct {
	Index int    `json:"shard"`
	Count int    `json:"shards"`
	Lo    uint32 `json:"blockLo"`
	Hi    uint32 `json:"blockHi"`
}

// Contains reports whether blk falls inside the range.
func (r ShardRange) Contains(blk ipv4.Block) bool {
	return uint32(blk) >= r.Lo && uint32(blk) < r.Hi
}

// SectionInfo describes one section table entry, for the inspect tool.
type SectionInfo struct {
	ID     uint32 `json:"id"`
	Name   string `json:"name"`
	Offset uint64 `json:"offset"`
	Length uint64 `json:"length"`
}

// SnapshotInfo is the decoded preface + info section.
type SnapshotInfo struct {
	Epoch     uint64        `json:"epoch"`
	Days      int           `json:"days"`
	Words     int           `json:"words"`
	Blocks    int           `json:"blocks"`
	Resumable bool          `json:"resumable"`
	Shard     *ShardRange   `json:"shard,omitempty"`
	Sections  []SectionInfo `json:"sections"`
}

// resumeState is the Applier state beyond the Index itself that a
// checkpoint must carry so a restarted shard can keep applying the obs
// stream mid-window: everything applyDay/applyScan/assembleSummary read
// that is not reconstructible from the packed timelines.
type resumeState struct {
	weeks        int
	scans        int
	surfacesSeen bool
	yearUnion    *ipv4.Set // wSum union (weekly snapshots fold into it)
	week0        *ipv4.Set // churn baseline (nil when weeks == 0)
	weekLast     *ipv4.Set
	cdnFrom      int // capture–recapture window (valid when scans > 0)
	cdnTo        int
	cdn          *ipv4.Set
	uaBlocks     []ipv4.Block // ascending; includes stats-only blocks
	ua           map[ipv4.Block]*obs.UAStat
}

func align8(n int) int { return (n + 7) &^ 7 }

// EncodeSnapshot serializes x into the canonical snapshot format.
// shard, when non-nil, records the cluster partition range so a
// restarted shard re-announces it. The result round-trips through
// DecodeSnapshot into a view-identical index.
func EncodeSnapshot(x *Index, shard *ShardRange) []byte {
	return encodeSnapshot(x, shard, nil)
}

// encodeSnapshot lays the snapshot out and streams it into a buffer of
// exactly its final size — the same section writer the checkpoint file
// path aims at a file.
func encodeSnapshot(x *Index, shard *ShardRange, r *resumeState) []byte {
	im := layoutSnapshot(x, shard, r)
	buf := bytes.NewBuffer(make([]byte, 0, im.total))
	if err := im.writeTo(buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail: only a layout bug gets here
	}
	return buf.Bytes()
}

// snapImage is a snapshot laid out but not yet written. Every section
// except the timelines is encoded up front (their lengths fix the
// section table); the timeline section — most of the file — has an
// arithmetic length and is streamed from the index's blocks by writeTo,
// so it is never assembled in memory.
type snapImage struct {
	x     *Index
	flags uint16
	secs  []snapSection // file order
	total int
}

type snapSection struct {
	data   []byte // nil for the timelines
	off, n int
}

func layoutSnapshot(x *Index, shard *ShardRange, r *resumeState) *snapImage {
	im := &snapImage{x: x}
	for _, data := range [][]byte{
		encodeInfo(x, shard),
		obs.AppendMeta(le, nil, x.obsMeta),
		encodeBlocksSection(x.keys),
		nil, // timelines: streamed
		encodeViewsSection(x),
		encodeTrafficSection(x),
		encodeTagsSection(x),
		encodeSetsSection(x),
		AppendSummaryPartialWire(nil, x.partial),
	} {
		im.secs = append(im.secs, snapSection{data: data, n: len(data)})
	}
	// Stride per block is 256*words u64s.
	im.secs[secTimelines-1].n = 8 * len(x.keys) * 256 * x.words
	if r != nil {
		im.flags |= snapFlagResume
		data := encodeResumeSection(r)
		im.secs = append(im.secs, snapSection{data: data, n: len(data)})
	}
	total := align8(snapPrefaceLen + snapTableEntry*len(im.secs))
	for i := range im.secs {
		im.secs[i].off = total
		total += im.secs[i].n
		if i+1 < len(im.secs) {
			total = align8(total)
		}
	}
	im.total = total
	return im
}

// writeTo emits the preface, the section table and every section at its
// laid-out offset (zero gap bytes between), exactly im.total bytes.
func (im *snapImage) writeTo(w io.Writer) error {
	sw := &snapWriter{w: w}
	head := make([]byte, 0, snapPrefaceLen+snapTableEntry*len(im.secs))
	head = append(head, snapMagic...)
	head = le.U16(head, snapVersion)
	head = le.U16(head, im.flags)
	head = le.U32(head, uint32(len(im.secs)))
	head = le.U64(head, im.x.epoch)
	head = le.U64(head, uint64(im.total))
	for i, sec := range im.secs {
		head = le.U32(head, uint32(i+1)) // ids are assigned in file order
		head = le.U32(head, 0)
		head = le.U64(head, uint64(sec.off))
		head = le.U64(head, uint64(sec.n))
	}
	sw.write(head)
	for i, sec := range im.secs {
		sw.padTo(sec.off)
		if i == secTimelines-1 {
			writeTimelines(sw, im.x, hostLittleEndian)
		} else {
			sw.write(sec.data)
		}
		// The table above was written from lengths, not from bytes: a
		// section that came out any other size would make a corrupt file.
		if end := sec.off + sec.n; sw.err == nil && sw.n != end {
			sw.err = fmt.Errorf("query: snapshot section %s ends at %d, laid out to end at %d",
				sectionNames[uint32(i+1)], sw.n, end)
		}
	}
	return sw.err
}

// snapWriter counts what it writes and latches the first error.
type snapWriter struct {
	w   io.Writer
	n   int
	err error
}

func (s *snapWriter) write(p []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(p)
	s.n += n
	s.err = err
}

// padTo writes the zero gap bytes up to the 8-aligned offset off.
func (s *snapWriter) padTo(off int) {
	if s.err != nil {
		return
	}
	var zero [8]byte
	s.write(zero[:off-s.n])
}

// writeTimelines streams every block's 256 day-bitsets back to back,
// x.words words each. When the index's array is exactly that (a closed
// window or a loaded index), a block's words are already the section's
// bytes on a little-endian host (native) and are written as a byte view.
// Otherwise — an index an applier shares its array with — each block is
// first repacked through one reused buffer, with its open word
// transposed out of the day tail. Off little-endian hosts the words are
// converted through a second one.
func writeTimelines(sw *snapWriter, x *Index, native bool) {
	var packed []uint64
	var scratch []byte
	for i := range x.blocks {
		bd := &x.blocks[i]
		t := bd.timelines
		if x.stride != x.words || x.open >= 0 {
			var open *[256]uint64
			if x.open >= 0 {
				words := bd.tail.words()
				open = &words
			}
			packed = packed[:0]
			for h := 0; h < 256; h++ {
				packed = x.timeline(packed, bd, h, open)
			}
			t = packed
		}
		if len(t) == 0 {
			continue
		}
		if native {
			sw.write(unsafe.Slice((*byte)(unsafe.Pointer(&t[0])), 8*len(t)))
			continue
		}
		scratch = scratch[:0]
		for _, w := range t {
			scratch = le.U64(scratch, w)
		}
		sw.write(scratch)
	}
}

func encodeInfo(x *Index, shard *ShardRange) []byte {
	b := make([]byte, 0, 48)
	b = le.U64(b, uint64(x.days))
	b = le.U64(b, uint64(x.words))
	b = le.U64(b, uint64(len(x.keys)))
	if shard != nil {
		b = le.U32(b, 1)
		b = le.U32(b, uint32(shard.Index))
		b = le.U32(b, uint32(shard.Count))
		b = le.U32(b, shard.Lo)
		b = le.U32(b, shard.Hi)
	} else {
		b = append(b, make([]byte, 20)...)
	}
	return le.U32(b, 0) // pad to 48
}

func encodeBlocksSection(keys []ipv4.Block) []byte {
	b := make([]byte, 0, 4*len(keys))
	for _, blk := range keys {
		b = le.U32(b, uint32(blk))
	}
	return b
}

// encodeViewsSection stores the scalar view fields (48 bytes per
// block). The view's strings are never stored: they are pure joins over
// the regenerated world + decoded tags, recomputed at load so the two
// construction paths cannot drift.
func encodeViewsSection(x *Index) []byte {
	b := make([]byte, 0, 48*len(x.keys))
	for i := range x.blocks {
		v := &x.blocks[i].view
		b = le.Int(b, v.FD)
		b = le.F64(b, v.STU)
		b = le.Int(b, v.ActiveDays)
		b = le.F64(b, v.TotalHits)
		b = le.Int(b, v.UASamples)
		b = le.F64(b, v.UAUnique)
	}
	return b
}

// encodeTrafficSection stores the sparse per-host traffic rollups:
// count, then per record the key-array index it attaches to and the
// fixed 256-host arrays (little-endian, so the loader bulk-copies).
func encodeTrafficSection(x *Index) []byte {
	m := 0
	for i := range x.blocks {
		if x.blocks[i].traffic != nil {
			m++
		}
	}
	b := make([]byte, 0, 8+m*(8+256*2+256*8))
	b = le.U64(b, uint64(m))
	for i := range x.blocks {
		t := x.blocks[i].traffic
		if t == nil {
			continue
		}
		b = le.U32(b, uint32(i))
		b = le.U32(b, 0)
		for _, v := range t.daysActive {
			b = le.U16(b, v)
		}
		for _, v := range t.hits {
			b = le.F64(b, v)
		}
	}
	return b
}

func encodeTagsSection(x *Index) []byte {
	pairs := x.tags.Tags()
	b := make([]byte, 0, 8+8*len(pairs))
	b = le.U64(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = le.U32(b, uint32(p.Block))
		b = le.U32(b, uint32(p.Tag))
	}
	return b
}

func encodeSetsSection(x *Index) []byte {
	var b []byte
	b = appendSnapSet(b, x.icmp)
	b = appendSnapSet(b, x.servers)
	return appendSnapSet(b, x.routers)
}

// appendSnapSet encodes one address set: block count, then per block
// the /24 and its 256-bit host bitmap (ascending block order; a Set
// never stores an empty bitmap, so canonicality is a free invariant).
func appendSnapSet(b []byte, s *ipv4.Set) []byte {
	if s == nil {
		return le.U64(b, 0)
	}
	blocks := s.Blocks()
	b = le.U64(b, uint64(len(blocks)))
	for _, blk := range blocks {
		bm := s.BlockBitmap(blk)
		b = le.U32(b, uint32(blk))
		b = le.U32(b, 0)
		for _, w := range bm {
			b = le.U64(b, w)
		}
	}
	return b
}

func encodeResumeSection(r *resumeState) []byte {
	var b []byte
	b = le.U64(b, uint64(r.weeks))
	b = le.U64(b, uint64(r.scans))
	b = le.Bool(b, r.surfacesSeen)
	b = appendSnapSet(b, r.yearUnion)
	if r.weeks > 0 {
		b = appendSnapSet(b, r.week0)
		b = appendSnapSet(b, r.weekLast)
	}
	if r.scans > 0 {
		b = le.Int(b, r.cdnFrom)
		b = le.Int(b, r.cdnTo)
		b = appendSnapSet(b, r.cdn)
	}
	b = le.U64(b, uint64(len(r.uaBlocks)))
	for _, blk := range r.uaBlocks {
		st := r.ua[blk]
		b = le.U32(b, uint32(blk))
		b = le.U64(b, uint64(st.Samples))
		if st.Sketch == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, st.Sketch.Precision())
		b = append(b, st.Sketch.Registers()...)
	}
	return b
}

// WriteSnapshotFile writes data to path atomically and durably: a
// same-directory temp file, fsync, rename, then an fsync of the
// directory — a crashed writer never leaves a half-written file under
// the final name, and a file that exists survives power loss.
func WriteSnapshotFile(path string, data []byte) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeFileAtomic runs write against path+".tmp", fsyncs and renames
// it onto path, and fsyncs the directory so that the rename itself is
// durable; on any failure before the rename the temp file is removed.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory: what makes an entry created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
