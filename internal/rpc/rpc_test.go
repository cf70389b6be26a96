package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ipscope/internal/binenc"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// --- codec tests (mirror the obs codec suite) ------------------------

// testMessages covers every message type with fixtures exercising the
// edge values the codec must carry faithfully: empty and non-empty
// strings, nil vs empty slices, negative ints, extreme floats.
func testMessages() []Msg {
	return []Msg{
		HealthReq{},
		HealthResp{Status: "warming", Epoch: 0, Blocks: 0, DailyLen: 0},
		HealthResp{Status: "ok", Epoch: 3, OldestEpoch: 1, NewestEpoch: 3, Blocks: 12, DailyLen: 84},
		SummaryReq{},
		SummaryReq{Epoch: 7},
		SummaryResp{Epoch: 5, Partial: query.SummaryPartial{Seed: 17, Days: 112,
			Daily:   query.SeriesPartial{Snapshots: 2, SnapASes: [][]uint32{{1, 2}, nil}},
			DayLens: []int{1, 2}, UARegisters: []byte{0, 9}}},
		ASReq{ASN: 64500},
		ASReq{ASN: 64500, Epoch: 2},
		ASResp{Epoch: 1, Partial: query.ASPartial{Found: true, AS: 64500,
			Prefixes: []string{"10.0.0.0/8"}, Hits: []float64{math.MaxFloat64, -1}}},
		ASResp{Partial: query.ASPartial{AS: 7}},
		PrefixReq{Prefix: "10.0.0.0/12", MaxBlocks: 16},
		PrefixReq{Prefix: "10.0.0.0/12", MaxBlocks: 16, Epoch: 4},
		PrefixReq{},
		PrefixResp{Epoch: 2, Partial: query.PrefixPartial{Prefix: "10.0.0.0/12",
			Blocks: 1 << 12, STU: []float64{0.5}, Origins: []uint32{1},
			BlockList: []query.BlockView{{Block: "10.0.0.0/24", AS: 1, FD: 3}}}},
		AddrReq{Addr: 0xC0A80101},
		AddrReq{Addr: 0xC0A80101, Epoch: 9},
		AddrResp{Epoch: 4, View: query.AddrView{Addr: "192.168.1.1", FirstDay: -1, LastDay: -1}},
		BlockReq{Block: 0xC0A801},
		BlockReq{Block: 0xC0A801, Epoch: 3},
		BlockResp{Epoch: 4, Found: true, View: query.BlockView{Block: "192.168.1.0/24", STU: 0.125}},
		BlockResp{Epoch: 4, Found: false},
		BulkAddrReq{CurrIndex: 3, Addrs: []uint32{1, 2, 3, 4}},
		BulkAddrReq{Addrs: []uint32{}},
		BulkAddrResp{Epoch: 1, CurrIndex: 0, NextIndex: 2, More: true,
			Views: []query.AddrView{{Addr: "0.0.0.1"}, {Addr: "0.0.0.2", Active: true}}},
		DeltaReq{From: 3, To: 9, MaxBlocks: 16},
		DeltaReq{},
		DeltaResp{Oldest: 3, Newest: 9, Partial: query.DeltaPartial{
			Seed: 17, FromEpoch: 3, ToEpoch: 9, FromDays: 5, ToDays: 11,
			NewBlocks: 2, GoneDarkBlocks: 1, ChangedBlocks: 4,
			ActiveBlocksDelta: -1, ActiveAddrsDelta: 7, ChurnUp: 3, ChurnDown: 2,
			NewSample: []query.BlockChange{
				{Block: "10.0.0.0/24", AS: 64500, FDDelta: 3, ActiveDaysDelta: 2, HitsDelta: 1.5}},
			ChangedSample: []query.BlockChange{{Block: "10.0.1.0/24", HitsDelta: -0.25}},
			ASMovement: []query.ASMovementPartial{
				{AS: 64500, FromBlocks: 2, ToBlocks: 3, BothBlocks: 2,
					FromHits: []float64{1, 2}, ToHits: []float64{1, 2, math.MaxFloat64}},
				{AS: 64501, FromBlocks: 1}}}},
		DeltaResp{},
		MovementReq{Last: 5},
		MovementReq{},
		MovementResp{Oldest: 2, Newest: 4, Partial: query.MovementPartial{
			Seed: 17, OldestEpoch: 2, NewestEpoch: 4,
			Entries: []query.MovementEntryPartial{
				{Epoch: 2, Days: 3, ActiveBlocks: 9, ActiveAddrs: 120, ASes: []uint32{64500, 64501}},
				{Epoch: 3, Days: 4, BaseEpoch: 2, ChurnUp: 5, ChurnDown: 1, ASes: []uint32{}}}}},
		MovementResp{},
		ErrorResp{Code: 503, Msg: wire.WarmingError},
		ErrorResp{Code: 400, Msg: ""},
		ErrorResp{Code: 404, Msg: "epoch 2 not retained (retained epochs 3..9)",
			NotRetained: true, Oldest: 3, Newest: 9},
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, m := range testMessages() {
		enc := EncodePayload(m)
		got, err := DecodePayload(m.Kind(), enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T: round trip = %+v, want %+v", m, got, m)
		}
		// Canonical: the decode re-encodes to the same bytes.
		if again := EncodePayload(got); !bytes.Equal(again, enc) {
			t.Fatalf("%T: re-encode differs", m)
		}
	}
}

func TestPayloadTruncated(t *testing.T) {
	for _, m := range testMessages() {
		enc := EncodePayload(m)
		for n := 0; n < len(enc); n++ {
			if _, err := DecodePayload(m.Kind(), enc[:n]); err == nil {
				t.Fatalf("%T: decoding %d of %d bytes succeeded", m, n, len(enc))
			}
		}
		// Trailing garbage is rejected: encodings are canonical.
		if _, err := DecodePayload(m.Kind(), append(append([]byte{}, enc...), 0)); err == nil {
			t.Fatalf("%T: trailing byte accepted", m)
		}
	}
}

func TestPayloadCorrupt(t *testing.T) {
	// 0x01/0x81 and 0x09/0x89 are the reserved kinds of the removed Info
	// and BulkBlock RPCs.
	for _, kind := range []byte{0x42, 0x01, 0x01 | respBit, 0x09, 0x09 | respBit} {
		if _, err := DecodePayload(kind, nil); err == nil {
			t.Fatalf("unknown kind 0x%02x accepted", kind)
		}
	}
	// A bulk response whose count field claims far more views than the
	// payload could hold must error before allocating.
	enc := EncodePayload(BulkAddrResp{})
	bad := append([]byte{}, enc[:len(enc)-4]...)
	bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodePayload(kindBulkAddr|respBit, bad); err == nil {
		t.Fatal("implausible view count accepted")
	}
	// A non-canonical More byte is rejected.
	enc = EncodePayload(BulkAddrResp{More: true})
	bad = append([]byte{}, enc...)
	bad[8+8+8] = 3
	if _, err := DecodePayload(kindBulkAddr|respBit, bad); err == nil {
		t.Fatal("non-canonical bool accepted")
	}
}

func TestPrefaceAndFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := writePreface(&buf); err != nil {
		t.Fatal(err)
	}
	if err := readPreface(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Bad magic and wrong version are *binenc.Error.
	if err := readPreface(bytes.NewReader([]byte("HTTP/1.1"))); err == nil {
		t.Fatal("bad magic accepted")
	} else if _, ok := err.(*binenc.Error); !ok {
		t.Fatalf("bad magic: error %T, want *binenc.Error", err)
	}
	future := append([]byte{}, buf.Bytes()...)
	future[7] = 99
	if err := readPreface(bytes.NewReader(future)); err == nil {
		t.Fatal("future version accepted")
	}
	// A short preface is ErrTruncated.
	if err := readPreface(bytes.NewReader(buf.Bytes()[:5])); err != ErrTruncated {
		t.Fatalf("short preface: %v, want ErrTruncated", err)
	}

	// Frame round trip preserves the id and message.
	var fb bytes.Buffer
	want := ASReq{ASN: 9}
	if err := writeFrame(&fb, 77, want); err != nil {
		t.Fatal(err)
	}
	frame := fb.Bytes()
	id, m, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || m != want {
		t.Fatalf("readFrame = (%d, %+v), want (77, %+v)", id, m, want)
	}
	// Every truncation of the frame fails typed: mid-header and
	// mid-payload are ErrTruncated, never a panic.
	for n := 0; n < len(frame); n++ {
		if _, _, err := readFrame(bytes.NewReader(frame[:n])); err == nil {
			t.Fatalf("frame[:%d] accepted", n)
		}
	}
	// An absurd length field is rejected before allocation.
	huge := append([]byte{}, frame...)
	huge[5], huge[6], huge[7], huge[8] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// --- server/client integration ---------------------------------------

var (
	backendOnce sync.Once
	backendSrv  *serve.Server
	backendIdx  *query.Index
	backendData *obs.Data
)

// testBackend builds one tiny-world shard backend shared by the
// integration tests.
func testBackend(t testing.TB) (*serve.Server, *query.Index) {
	t.Helper()
	backendOnce.Do(func() {
		w := synthnet.Generate(synthnet.TinyConfig())
		res := sim.Run(w, sim.TinyConfig())
		backendData = &res.Data
		idx, err := query.Build(backendData, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		backendIdx = idx
		backendSrv = serve.New(idx, serve.Config{})
	})
	return backendSrv, backendIdx
}

// startServer runs an RPC server over the shared backend and returns a
// connected client; both are torn down with the test.
func startServer(t *testing.T, opts Options) *Client {
	t.Helper()
	be, _ := testBackend(t)
	srv := NewServer(be, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	c := NewClient(addr.String(), ClientOptions{})
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerPoint(t *testing.T) {
	c := startServer(t, Options{})
	_, idx := testBackend(t)
	ctx := context.Background()
	epoch := idx.Epoch()

	blk := idx.Blocks()[0]
	view, found, e, err := c.Block(ctx, uint32(blk), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !found || e != epoch {
		t.Fatalf("Block(%v) = found=%v epoch=%d, want true, %d", blk, found, e, epoch)
	}
	if want, _ := idx.Block(blk); view != want {
		t.Fatalf("Block(%v) = %+v, want %+v", blk, view, want)
	}

	// A block with no activity answers found=false, not an error.
	inactive := uint32(blk) + 1
	for _, b := range idx.Blocks() {
		if uint32(b) == inactive {
			inactive++
		}
	}
	if _, found, _, err := c.Block(ctx, inactive, 0); err != nil || found {
		t.Fatalf("inactive block: found=%v err=%v", found, err)
	}

	addr := blk.Addr(7)
	aview, e, err := c.Addr(ctx, uint32(addr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != epoch || aview != idx.Addr(addr) {
		t.Fatalf("Addr(%v) mismatch", addr)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != epoch || h.Blocks != idx.NumBlocks() {
		t.Fatalf("Health = %+v", h)
	}
}

func TestClientServerPartials(t *testing.T) {
	c := startServer(t, Options{})
	_, idx := testBackend(t)
	ctx := context.Background()

	p, e, err := c.Summary(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e != idx.Epoch() {
		t.Fatalf("summary epoch %d, want %d", e, idx.Epoch())
	}
	if got, want := p.Finalize(), idx.Summary(); got != want {
		t.Fatalf("summary partial finalizes to %+v, want %+v", got, want)
	}

	asn := idx.ASNs()[0]
	ap, _, err := c.AS(ctx, uint32(asn), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := idx.ASPartial(asn); !reflect.DeepEqual(ap, want) {
		t.Fatalf("AS partial = %+v, want %+v", ap, want)
	}

	// An invalid prefix answers a 400 StatusError, like the HTTP API.
	if _, _, err := c.Prefix(ctx, "banana", 16, 0); err == nil {
		t.Fatal("invalid prefix accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 400 {
		t.Fatalf("invalid prefix: %v, want 400 StatusError", err)
	}
}

// TestHistoryRPC pins the history surface of the protocol: epoch-
// targeted point lookups answer from retained snapshots, unretained
// epochs fail with the typed *wire.NotRetainedError carrying the
// retained range, Delta/Movement frames agree with the backend ring,
// and Health advertises the range.
func TestHistoryRPC(t *testing.T) {
	testBackend(t)
	a := query.NewApplier(query.Options{})
	if err := backendData.WriteTo(a); err != nil {
		t.Fatal(err)
	}
	snap := func() *query.Index {
		s, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2, s3 := snap(), snap(), snap()
	be := serve.New(nil, serve.Config{RetainEpochs: 2})
	be.Publish(s1)
	be.Publish(s2)
	be.Publish(s3) // ring now retains {s2, s3}; s1 is evicted

	srv := NewServer(be, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := NewClient(addr.String(), ClientOptions{})
	defer c.Close()
	ctx := context.Background()

	// A retained, non-live epoch answers that snapshot.
	p, e, err := c.Summary(ctx, s2.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if e != s2.Epoch() {
		t.Fatalf("as-of summary epoch %d, want %d", e, s2.Epoch())
	}
	if got, want := p.Finalize(), s2.Summary(); got != want {
		t.Fatalf("as-of summary = %+v, want %+v", got, want)
	}
	blk := s2.Blocks()[0]
	view, found, e, err := c.Block(ctx, uint32(blk), s2.Epoch())
	if err != nil || !found || e != s2.Epoch() {
		t.Fatalf("as-of block: found=%v epoch=%d err=%v", found, e, err)
	}
	if want, _ := s2.Block(blk); view != want {
		t.Fatalf("as-of block view = %+v, want %+v", view, want)
	}

	// An evicted epoch is the typed 404 with the retained range.
	var nr *wire.NotRetainedError
	if _, _, err := c.Summary(ctx, s1.Epoch()); !errors.As(err, &nr) {
		t.Fatalf("evicted epoch: err = %v, want *wire.NotRetainedError", err)
	} else if nr.Oldest != s2.Epoch() || nr.Newest != s3.Epoch() {
		t.Fatalf("not-retained range %d..%d, want %d..%d", nr.Oldest, nr.Newest, s2.Epoch(), s3.Epoch())
	}

	// Delta matches the ring's partial and reports the retained range.
	part, oldest, newest, err := c.Delta(ctx, s2.Epoch(), s3.Epoch(), query.DefaultDeltaBlockList)
	if err != nil {
		t.Fatal(err)
	}
	want, err := be.Window().Delta(s2.Epoch(), s3.Epoch(), query.DefaultDeltaBlockList)
	if err != nil {
		t.Fatalf("window delta: %v", err)
	}
	if !reflect.DeepEqual(part, want) {
		t.Fatalf("delta partial = %+v, want %+v", part, want)
	}
	if oldest != s2.Epoch() || newest != s3.Epoch() {
		t.Fatalf("delta range %d..%d, want %d..%d", oldest, newest, s2.Epoch(), s3.Epoch())
	}

	// A span touching an evicted epoch fails typed; an inverted span is
	// a plain 400.
	if _, _, _, err := c.Delta(ctx, s1.Epoch(), s3.Epoch(), 0); !errors.As(err, &nr) {
		t.Fatalf("delta from evicted epoch: %v", err)
	}
	if _, _, _, err := c.Delta(ctx, s3.Epoch(), s2.Epoch(), 0); err == nil {
		t.Fatal("inverted delta span accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 400 {
		t.Fatalf("inverted delta span: %v, want 400 StatusError", err)
	}

	// Movement mirrors the ring series.
	mp, oldest, newest, err := c.Movement(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mp, be.Window().Movement(0)) {
		t.Fatalf("movement partial = %+v, want ring's", mp)
	}
	if oldest != s2.Epoch() || newest != s3.Epoch() {
		t.Fatalf("movement range %d..%d", oldest, newest)
	}

	// Health advertises the retained range.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OldestEpoch != s2.Epoch() || h.NewestEpoch != s3.Epoch() {
		t.Fatalf("health range %d..%d, want %d..%d", h.OldestEpoch, h.NewestEpoch, s2.Epoch(), s3.Epoch())
	}
}

// TestWarmingBackend pins the typed form of the HTTP warming 503.
func TestWarmingBackend(t *testing.T) {
	srv := NewServer(serve.New(nil, serve.Config{}), Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := NewClient(addr.String(), ClientOptions{})
	defer c.Close()

	ctx := context.Background()
	if _, _, _, err := c.Block(ctx, 1, 0); err == nil {
		t.Fatal("warming shard answered a block lookup")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 503 || se.Msg != wire.WarmingError {
		t.Fatalf("warming error = %v", err)
	}
	// Health still answers while warming.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "warming" {
		t.Fatalf("warming Health.Status = %q", h.Status)
	}
}

// TestBulkEqualsSingles is the bulk contract: a BulkAddr answer —
// forced across several More pages by a tiny server page size — is
// element-for-element identical to N single lookups, including the
// addresses in inactive blocks, and the JSON each view marshals to is
// byte-identical.
func TestBulkEqualsSingles(t *testing.T) {
	c := startServer(t, Options{BulkPage: 3})
	_, idx := testBackend(t)
	ctx := context.Background()

	blocks := idx.Blocks()
	if len(blocks) <= 7 {
		t.Fatalf("tiny world too small: %d blocks", len(blocks))
	}
	// 10 targets spanning active and inactive blocks: forces 4 pages at
	// page size 3 (a non-aligned final page).
	var addrs []uint32
	for i := 0; i < 10; i++ {
		b := uint32(blocks[(i*3)%len(blocks)])
		if i%3 == 2 {
			b++ // often inactive: the not-found path must page identically
		}
		addrs = append(addrs, b<<8|uint32(i))
	}

	views, epoch, err := c.BulkAddr(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != idx.Epoch() || len(views) != len(addrs) {
		t.Fatalf("BulkAddr: epoch=%d len=%d", epoch, len(views))
	}
	for i, a := range addrs {
		single, _, err := c.Addr(ctx, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		if views[i] != single {
			t.Fatalf("bulk view %d = %+v, single = %+v", i, views[i], single)
		}
		bj, _ := json.Marshal(views[i])
		sj, _ := json.Marshal(single)
		if !bytes.Equal(bj, sj) {
			t.Fatalf("bulk JSON %d differs: %s vs %s", i, bj, sj)
		}
	}

	// Empty bulk is a valid degenerate call.
	if views, _, err := c.BulkAddr(ctx, nil); err != nil || len(views) != 0 {
		t.Fatalf("empty BulkAddr = (%d views, %v)", len(views), err)
	}
}

// TestHostileFrameHeader: the 9-byte frame header is unauthenticated, so
// a header announcing 200 MiB followed by EOF must report truncation
// without readFrame having allocated for the announced length.
func TestHostileFrameHeader(t *testing.T) {
	hdr := []byte{kindSummary | respBit, 0, 0, 0, 1}
	hdr = binary.BigEndian.AppendUint32(hdr, 200<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("%d bytes allocated for a 200 MiB frame that never arrived", got)
	}
}

// TestPipelining issues many concurrent requests over the client's
// small connection pool; responses must all match their requests (the
// id demux under fire).
func TestPipelining(t *testing.T) {
	c := startServer(t, Options{})
	_, idx := testBackend(t)
	blocks := idx.Blocks()
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				blk := blocks[(g*50+i)%len(blocks)]
				want, _ := idx.Block(blk)
				view, found, _, err := c.Block(ctx, uint32(blk), 0)
				if err != nil {
					errs <- err
					return
				}
				if !found || view != want {
					errs <- errors.New("response/request mismatch under pipelining")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGarbagePeer pins the server's behaviour against a non-RPC peer:
// the connection is dropped, the process survives.
func TestGarbagePeer(t *testing.T) {
	be, _ := testBackend(t)
	srv := NewServer(be, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must close on us rather than answer.
	buf := make([]byte, 1)
	if n, _ := conn.Read(buf); n != 0 {
		t.Fatalf("server answered %d bytes to a garbage preface", n)
	}
}
