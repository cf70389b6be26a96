// Package rpc is the compact binary RPC protocol for shard↔router
// traffic — the internal fast path behind the unchanged public /v1/*
// JSON API. A fixed magic plus version preface guards against
// desynchronized or mismatched peers and every message is a
// length-prefixed frame; field encodings and the checks on untrusted
// bytes are internal/binenc's, so decoding never panics on corrupt
// input (typed errors only) and encodings are canonical — decode∘encode
// is the identity, which FuzzRPCDecode enforces.
//
// Wire format (all integers big endian):
//
//	preface := magic("ipsrpc") version(2)        — sent by BOTH peers
//	frame   := kind(1) id(4) length(4) payload[length]
//
// The id echoes from request to response, which is what permits
// pipelining: a client may write any number of request frames before
// reading, and matches responses by id. Response kinds are the request
// kind with the high bit set; kindError (0xFF) answers any request with
// a status code + message instead of its typed response.
//
// Bulk requests page thrift-style: the client sends CurrIndex (the
// offset already consumed), the server answers at most its page size of
// entries from that offset plus NextIndex and More; the client loops
// until More is false. One logical N-address lookup therefore costs
// ceil(N/page) round trips on one persistent connection, instead of N
// HTTP requests.
package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"ipscope/internal/binenc"
	"ipscope/internal/query"
)

// Version is the current protocol version, exchanged in the preface.
// Version 2 added history: epoch-targeted point requests, the
// Delta/Movement frames, retained-range fields on responses, and the
// typed not-retained error.
const Version = 2

const maxFrameLen = 1 << 28 // 256 MiB: far above any real frame

var magic = []byte("ipsrpc")

// Request kinds; the matching response kind is kind|respBit.
const (
	// 0x01 is reserved: it was the Info request no caller sent (routers
	// discover shards over HTTP /v1/cluster/info).
	kindHealth   = 0x02
	kindSummary  = 0x03
	kindAS       = 0x04
	kindPrefix   = 0x05
	kindAddr     = 0x06
	kindBlock    = 0x07
	kindBulkAddr = 0x08
	// 0x09 is reserved: it was the BulkBlock request no caller used.
	kindDelta    = 0x0A
	kindMovement = 0x0B

	respBit   = 0x80
	kindError = 0xFF
)

// ErrTruncated is returned when a peer closes mid-frame or mid-preface.
var ErrTruncated = errors.New("rpc: truncated stream")

// be is the protocol's byte order; formatName labels its *binenc.Error
// values — structurally invalid protocol input: bad magic, an
// unsupported version, a malformed frame, or a corrupt payload.
const (
	be         = binenc.BE
	formatName = "rpc"
)

// Msg is one typed protocol message (request or response).
type Msg interface {
	// Kind returns the frame kind byte identifying the message type.
	Kind() byte
	append(b []byte) []byte
}

// --- message types ---------------------------------------------------

// HealthReq asks for the shard's liveness.
type HealthReq struct{}

// HealthResp carries the health fields the router's aggregate probe
// consumes (the HTTP healthz additionally reports cache counters, which
// are meaningless over RPC — responses are not served from the HTTP
// response cache). OldestEpoch/NewestEpoch report the shard's retained
// history ring for the router's common-range aggregation.
type HealthResp struct {
	Status      string
	Epoch       uint64
	OldestEpoch uint64
	NewestEpoch uint64
	Blocks      int
	DailyLen    int
}

// SummaryReq asks for the shard's mergeable summary partial. A non-zero
// Epoch targets a retained snapshot instead of the live one (likewise
// on every point request below); an unretained epoch answers the typed
// not-retained error.
type SummaryReq struct{ Epoch uint64 }

// SummaryResp is the typed /v1/cluster/summary.
type SummaryResp struct {
	Epoch   uint64
	Partial query.SummaryPartial
}

// ASReq asks for the shard's mergeable share of one AS footprint.
type ASReq struct {
	ASN   uint32
	Epoch uint64
}

// ASResp is the typed /v1/cluster/as/{asn}.
type ASResp struct {
	Epoch   uint64
	Partial query.ASPartial
}

// PrefixReq asks for the shard's mergeable share of a CIDR aggregate.
type PrefixReq struct {
	Prefix    string
	MaxBlocks int
	Epoch     uint64
}

// PrefixResp is the typed /v1/cluster/prefix/{cidr}.
type PrefixResp struct {
	Epoch   uint64
	Partial query.PrefixPartial
}

// AddrReq asks for one address's view (the /v1/addr point lookup).
type AddrReq struct {
	Addr  uint32
	Epoch uint64
}

// AddrResp carries the view plus the snapshot epoch it was computed
// from — the typed form of the JSON body's spliced "epoch" field, from
// which the router re-derives the ETag.
type AddrResp struct {
	Epoch uint64
	View  query.AddrView
}

// BlockReq asks for one /24's view (the /v1/block point lookup).
type BlockReq struct {
	Block uint32
	Epoch uint64
}

// BlockResp carries the view when the block has activity; Found=false
// is the typed form of the HTTP 404.
type BlockResp struct {
	Epoch uint64
	Found bool
	View  query.BlockView
}

// BulkAddrReq asks for many addresses in one round trip, starting at
// offset CurrIndex into Addrs.
type BulkAddrReq struct {
	CurrIndex int
	Addrs     []uint32
}

// BulkAddrResp answers Views for Addrs[CurrIndex : NextIndex); More
// reports whether entries remain past NextIndex.
type BulkAddrResp struct {
	Epoch     uint64
	CurrIndex int
	NextIndex int
	More      bool
	Views     []query.AddrView
}

// DeltaReq asks for the shard's mergeable delta partial between two
// retained epochs (the /v1/cluster/delta equivalent).
type DeltaReq struct {
	From      uint64
	To        uint64
	MaxBlocks int
}

// DeltaResp carries the partial plus the shard's retained ring range,
// which the router folds into the cluster-wide common range.
type DeltaResp struct {
	Oldest  uint64
	Newest  uint64
	Partial query.DeltaPartial
}

// MovementReq asks for the shard's mergeable movement partial over the
// last N retained epochs (0 = the whole ring).
type MovementReq struct{ Last int }

// MovementResp carries the partial plus the shard's retained ring
// range.
type MovementResp struct {
	Oldest  uint64
	Newest  uint64
	Partial query.MovementPartial
}

// ErrorResp answers any request with an HTTP-equivalent status code and
// message instead of its typed response — 503 while the shard is
// warming (Msg = wire.WarmingError), 400 for an invalid prefix, 404
// with NotRetained set (and the ring range) for an epoch outside the
// shard's history ring.
type ErrorResp struct {
	Code        int
	Msg         string
	NotRetained bool
	Oldest      uint64
	Newest      uint64
}

// --- per-message encodings -------------------------------------------

// Kind implements Msg.
func (HealthReq) Kind() byte             { return kindHealth }
func (HealthReq) append(b []byte) []byte { return b }

// Kind implements Msg.
func (HealthResp) Kind() byte { return kindHealth | respBit }
func (m HealthResp) append(b []byte) []byte {
	b = be.String(b, m.Status)
	b = be.U64(b, m.Epoch)
	b = be.U64(b, m.OldestEpoch)
	b = be.U64(b, m.NewestEpoch)
	b = be.Int(b, m.Blocks)
	b = be.Int(b, m.DailyLen)
	return b
}

// Kind implements Msg.
func (SummaryReq) Kind() byte               { return kindSummary }
func (m SummaryReq) append(b []byte) []byte { return be.U64(b, m.Epoch) }

// Kind implements Msg.
func (SummaryResp) Kind() byte { return kindSummary | respBit }
func (m SummaryResp) append(b []byte) []byte {
	b = be.U64(b, m.Epoch)
	return query.AppendSummaryPartialWire(b, &m.Partial)
}

// Kind implements Msg.
func (ASReq) Kind() byte { return kindAS }
func (m ASReq) append(b []byte) []byte {
	b = be.U32(b, m.ASN)
	return be.U64(b, m.Epoch)
}

// Kind implements Msg.
func (ASResp) Kind() byte { return kindAS | respBit }
func (m ASResp) append(b []byte) []byte {
	b = be.U64(b, m.Epoch)
	return query.AppendASPartialWire(b, &m.Partial)
}

// Kind implements Msg.
func (PrefixReq) Kind() byte { return kindPrefix }
func (m PrefixReq) append(b []byte) []byte {
	b = be.String(b, m.Prefix)
	b = be.Int(b, m.MaxBlocks)
	return be.U64(b, m.Epoch)
}

// Kind implements Msg.
func (PrefixResp) Kind() byte { return kindPrefix | respBit }
func (m PrefixResp) append(b []byte) []byte {
	b = be.U64(b, m.Epoch)
	return query.AppendPrefixPartialWire(b, &m.Partial)
}

// Kind implements Msg.
func (AddrReq) Kind() byte { return kindAddr }
func (m AddrReq) append(b []byte) []byte {
	b = be.U32(b, m.Addr)
	return be.U64(b, m.Epoch)
}

// Kind implements Msg.
func (AddrResp) Kind() byte { return kindAddr | respBit }
func (m AddrResp) append(b []byte) []byte {
	b = be.U64(b, m.Epoch)
	return query.AppendAddrViewWire(b, &m.View)
}

// Kind implements Msg.
func (BlockReq) Kind() byte { return kindBlock }
func (m BlockReq) append(b []byte) []byte {
	b = be.U32(b, m.Block)
	return be.U64(b, m.Epoch)
}

// Kind implements Msg.
func (BlockResp) Kind() byte { return kindBlock | respBit }
func (m BlockResp) append(b []byte) []byte {
	b = be.U64(b, m.Epoch)
	b = be.Bool(b, m.Found)
	if m.Found {
		b = query.AppendBlockViewWire(b, &m.View)
	}
	return b
}

// Kind implements Msg.
func (BulkAddrReq) Kind() byte { return kindBulkAddr }
func (m BulkAddrReq) append(b []byte) []byte {
	b = be.Int(b, m.CurrIndex)
	b = be.U32(b, uint32(len(m.Addrs)))
	for _, a := range m.Addrs {
		b = be.U32(b, a)
	}
	return b
}

// Kind implements Msg.
func (BulkAddrResp) Kind() byte { return kindBulkAddr | respBit }
func (m BulkAddrResp) append(b []byte) []byte {
	b = be.U64(b, m.Epoch)
	b = be.Int(b, m.CurrIndex)
	b = be.Int(b, m.NextIndex)
	b = be.Bool(b, m.More)
	b = be.U32(b, uint32(len(m.Views)))
	for i := range m.Views {
		b = query.AppendAddrViewWire(b, &m.Views[i])
	}
	return b
}

// Kind implements Msg.
func (DeltaReq) Kind() byte { return kindDelta }
func (m DeltaReq) append(b []byte) []byte {
	b = be.U64(b, m.From)
	b = be.U64(b, m.To)
	return be.Int(b, m.MaxBlocks)
}

// Kind implements Msg.
func (DeltaResp) Kind() byte { return kindDelta | respBit }
func (m DeltaResp) append(b []byte) []byte {
	b = be.U64(b, m.Oldest)
	b = be.U64(b, m.Newest)
	return query.AppendDeltaPartialWire(b, &m.Partial)
}

// Kind implements Msg.
func (MovementReq) Kind() byte { return kindMovement }
func (m MovementReq) append(b []byte) []byte {
	return be.Int(b, m.Last)
}

// Kind implements Msg.
func (MovementResp) Kind() byte { return kindMovement | respBit }
func (m MovementResp) append(b []byte) []byte {
	b = be.U64(b, m.Oldest)
	b = be.U64(b, m.Newest)
	return query.AppendMovementPartialWire(b, &m.Partial)
}

// Kind implements Msg.
func (ErrorResp) Kind() byte { return kindError }
func (m ErrorResp) append(b []byte) []byte {
	b = be.U32(b, uint32(m.Code))
	b = be.String(b, m.Msg)
	b = be.Bool(b, m.NotRetained)
	b = be.U64(b, m.Oldest)
	return be.U64(b, m.Newest)
}

// EncodePayload returns m's canonical payload bytes (the frame body,
// without the kind/id/length header). Exposed for the codec tests and
// the fuzz target.
func EncodePayload(m Msg) []byte { return m.append(nil) }

// DecodePayload decodes one message payload of the given kind. It
// returns *binenc.Error for structurally invalid input and never
// panics; trailing bytes are an error, so every valid encoding is
// canonical.
func DecodePayload(kind byte, p []byte) (Msg, error) {
	d := binenc.NewDec(be, formatName, p)
	var m Msg
	switch kind {
	case kindHealth:
		m = HealthReq{}
	case kindHealth | respBit:
		var r HealthResp
		r.Status = d.Str()
		r.Epoch = d.U64()
		r.OldestEpoch = d.U64()
		r.NewestEpoch = d.U64()
		r.Blocks = d.Int()
		r.DailyLen = d.Int()
		m = r
	case kindSummary:
		m = SummaryReq{Epoch: d.U64()}
	case kindSummary | respBit:
		var r SummaryResp
		r.Epoch = d.U64()
		r.Partial = query.ReadSummaryPartialWire(d)
		m = r
	case kindAS:
		m = ASReq{ASN: d.U32(), Epoch: d.U64()}
	case kindAS | respBit:
		var r ASResp
		r.Epoch = d.U64()
		r.Partial = query.ReadASPartialWire(d)
		m = r
	case kindPrefix:
		var r PrefixReq
		r.Prefix = d.Str()
		r.MaxBlocks = d.Int()
		r.Epoch = d.U64()
		m = r
	case kindPrefix | respBit:
		var r PrefixResp
		r.Epoch = d.U64()
		r.Partial = query.ReadPrefixPartialWire(d)
		m = r
	case kindAddr:
		m = AddrReq{Addr: d.U32(), Epoch: d.U64()}
	case kindAddr | respBit:
		var r AddrResp
		r.Epoch = d.U64()
		r.View = query.ReadAddrViewWire(d)
		m = r
	case kindBlock:
		m = BlockReq{Block: d.U32(), Epoch: d.U64()}
	case kindBlock | respBit:
		var r BlockResp
		r.Epoch = d.U64()
		r.Found = d.Bool()
		if r.Found {
			r.View = query.ReadBlockViewWire(d)
		}
		m = r
	case kindBulkAddr:
		var r BulkAddrReq
		r.CurrIndex = d.Int()
		r.Addrs = make([]uint32, d.Count(4))
		for i := range r.Addrs {
			r.Addrs[i] = d.U32()
		}
		m = r
	case kindBulkAddr | respBit:
		var r BulkAddrResp
		r.Epoch = d.U64()
		r.CurrIndex = d.Int()
		r.NextIndex = d.Int()
		r.More = d.Bool()
		// 80 = minimum encoded AddrView: 8 empty strings (4 bytes each),
		// 3 ints + 2 floats (8 bytes each), 4 bools, the AS u32.
		n := d.Count(80)
		r.Views = make([]query.AddrView, n)
		for i := range r.Views {
			r.Views[i] = query.ReadAddrViewWire(d)
		}
		m = r
	case kindDelta:
		var r DeltaReq
		r.From = d.U64()
		r.To = d.U64()
		r.MaxBlocks = d.Int()
		m = r
	case kindDelta | respBit:
		var r DeltaResp
		r.Oldest = d.U64()
		r.Newest = d.U64()
		r.Partial = query.ReadDeltaPartialWire(d)
		m = r
	case kindMovement:
		m = MovementReq{Last: d.Int()}
	case kindMovement | respBit:
		var r MovementResp
		r.Oldest = d.U64()
		r.Newest = d.U64()
		r.Partial = query.ReadMovementPartialWire(d)
		m = r
	case kindError:
		var r ErrorResp
		r.Code = int(d.U32())
		r.Msg = d.Str()
		r.NotRetained = d.Bool()
		r.Oldest = d.U64()
		r.Newest = d.U64()
		m = r
	default:
		return nil, binenc.Errorf(formatName, "unknown frame kind 0x%02x", kind)
	}
	if err := d.Finish("frame"); err != nil {
		return nil, err
	}
	return m, nil
}

// --- preface + frame I/O ----------------------------------------------

// writePreface writes the magic + version preface.
func writePreface(w io.Writer) error {
	var buf [8]byte
	copy(buf[:], magic)
	binary.BigEndian.PutUint16(buf[6:], Version)
	_, err := w.Write(buf[:])
	return err
}

// readPreface validates the peer's magic + version preface.
func readPreface(r io.Reader) error {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return binenc.EOFAs(err, ErrTruncated)
	}
	if string(buf[:6]) != string(magic) {
		return binenc.Errorf(formatName, "bad stream magic %q", buf[:6])
	}
	if v := binary.BigEndian.Uint16(buf[6:]); v != Version {
		return binenc.Errorf(formatName, "unsupported protocol version %d (want %d)", v, Version)
	}
	return nil
}

// frameBufPool recycles frame scratch buffers between pipelined
// round trips: the write side assembles header+payload in one pooled
// buffer (one Write, no per-frame payload allocation) and the read side
// reads payloads into a pooled buffer that is safe to reuse because
// DecodePayload copies everything it keeps (strings via string(b),
// slices element-wise or with explicit appends). Buffers above
// maxPooledFrame are dropped so one bulk page cannot pin its footprint
// behind every P.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledFrame = 1 << 20

// recycleFrameBuf returns b (possibly grown by append) to the pool
// through its slot bp, unless it outgrew the retention cap.
func recycleFrameBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledFrame {
		*bp = b[:0]
		frameBufPool.Put(bp)
	}
}

// writeFrame writes one message frame. The caller flushes.
func writeFrame(w io.Writer, id uint32, m Msg) error {
	bp := frameBufPool.Get().(*[]byte)
	b := append((*bp)[:0], m.Kind(), 0, 0, 0, 0, 0, 0, 0, 0)
	b = m.append(b)
	n := len(b) - 9
	if n > maxFrameLen {
		recycleFrameBuf(bp, b)
		return binenc.Errorf(formatName, "frame of %d bytes exceeds the %d-byte limit", n, maxFrameLen)
	}
	binary.BigEndian.PutUint32(b[1:], id)
	binary.BigEndian.PutUint32(b[5:], uint32(n))
	_, err := w.Write(b)
	recycleFrameBuf(bp, b)
	return err
}

// readFrame reads one message frame.
func readFrame(r io.Reader) (id uint32, m Msg, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err // io.EOF between frames = clean close
	}
	kind := hdr[0]
	id = binary.BigEndian.Uint32(hdr[1:])
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > maxFrameLen {
		return 0, nil, binenc.Errorf(formatName, "frame length %d exceeds limit", n)
	}
	bp := frameBufPool.Get().(*[]byte)
	payload, err := binenc.ReadPayload(r, int(n), *bp, ErrTruncated)
	if err != nil {
		frameBufPool.Put(bp)
		return 0, nil, err
	}
	m, err = DecodePayload(kind, payload)
	recycleFrameBuf(bp, payload)
	return id, m, err
}
