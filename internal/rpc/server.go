package rpc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"

	"ipscope/internal/bgp"
	"ipscope/internal/history"
	"ipscope/internal/ipv4"
	"ipscope/internal/query"
	"ipscope/internal/serve/wire"
)

// DefaultBulkPage bounds how many entries one bulk response carries
// when Options.BulkPage is 0; clients page with CurrIndex/NextIndex.
const DefaultBulkPage = 256

// Backend is the shard state the RPC server answers from —
// serve.Server implements it, so the HTTP and RPC listeners of one
// shard serve the same atomically-published state.
type Backend interface {
	// Window returns the published retained snapshots, the live one
	// last (empty while warming). A request takes it once and answers
	// from nothing else, exactly as an HTTP request does, so the two
	// transports cannot disagree about what is retained.
	Window() history.Window
	// Health returns the /v1/healthz equivalent.
	Health() wire.Health
}

// Options tunes a Server.
type Options struct {
	// BulkPage caps entries per bulk response; 0 means DefaultBulkPage.
	// Tests shrink it to force paging across the More boundary.
	BulkPage int
}

// Server answers the binary RPC protocol over persistent TCP
// connections. Each connection's requests are handled sequentially in
// arrival order (responses echo the request id, so a pipelining client
// matches them up); separate connections are independent.
type Server struct {
	be   Backend
	page int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a Server answering from be.
func NewServer(be Backend, opts Options) *Server {
	page := opts.BulkPage
	if page <= 0 {
		page = DefaultBulkPage
	}
	return &Server{be: be, page: page, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port) and serves in
// the background until Shutdown.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
	return ln.Addr(), nil
}

// Shutdown closes the listener and every open connection, then waits
// for the connection handlers to exit (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// serveConn runs one connection's request loop: preface exchange, then
// frames until the peer closes or a protocol error occurs. The write
// buffer is flushed only when no further request is already buffered,
// so a pipelined burst is answered in one writev instead of one flush
// per response.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	if err := readPreface(br); err != nil {
		return
	}
	if err := writePreface(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for {
		id, req, err := readFrame(br)
		if err != nil {
			return // clean close, truncation, or garbage: drop the conn
		}
		if err := writeFrame(bw, id, s.handle(req)); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handle answers one request from the window it loads on entry. Data
// requests against a warming shard (no published snapshot) answer the
// typed form of the HTTP 503; an epoch outside the window answers the
// typed 404 carrying that window's range; any other error of answer is
// a 400 with its text.
func (s *Server) handle(req Msg) Msg {
	if _, ok := req.(HealthReq); ok {
		h := s.be.Health()
		return HealthResp{
			Status: h.Status, Epoch: h.Epoch,
			OldestEpoch: h.OldestEpoch, NewestEpoch: h.NewestEpoch,
			Blocks: h.Blocks, DailyLen: h.DailyLen,
		}
	}
	win := s.be.Window()
	if win.Len() == 0 {
		return ErrorResp{Code: http.StatusServiceUnavailable, Msg: wire.WarmingError}
	}
	resp, err := s.answer(win, req)
	var nr *wire.NotRetainedError
	switch {
	case err == nil:
		return resp
	case errors.As(err, &nr):
		return ErrorResp{
			Code:        http.StatusNotFound,
			Msg:         wire.ErrEpochNotRetained(nr.Asked, nr.Oldest, nr.Newest),
			NotRetained: true,
			Oldest:      nr.Oldest,
			Newest:      nr.Newest,
		}
	}
	return ErrorResp{Code: http.StatusBadRequest, Msg: err.Error()}
}

// answer computes one data request's response over win (not empty). A
// point request's non-zero Epoch names a retained snapshot, zero the
// live one.
func (s *Server) answer(win history.Window, req Msg) (Msg, error) {
	switch r := req.(type) {
	case SummaryReq:
		x, err := win.At(r.Epoch)
		if err != nil {
			return nil, err
		}
		return SummaryResp{Epoch: x.Epoch(), Partial: x.SummaryPartial()}, nil
	case ASReq:
		x, err := win.At(r.Epoch)
		if err != nil {
			return nil, err
		}
		return ASResp{Epoch: x.Epoch(), Partial: x.ASPartial(bgp.ASN(r.ASN))}, nil
	case PrefixReq:
		x, err := win.At(r.Epoch)
		if err != nil {
			return nil, err
		}
		p, err := ipv4.ParsePrefix(r.Prefix)
		if err != nil {
			return nil, err
		}
		partial, err := x.PrefixPartial(p, r.MaxBlocks)
		if err != nil {
			return nil, err
		}
		return PrefixResp{Epoch: x.Epoch(), Partial: partial}, nil
	case AddrReq:
		x, err := win.At(r.Epoch)
		if err != nil {
			return nil, err
		}
		return AddrResp{Epoch: x.Epoch(), View: x.Addr(ipv4.Addr(r.Addr))}, nil
	case BlockReq:
		x, err := win.At(r.Epoch)
		if err != nil {
			return nil, err
		}
		v, ok := x.Block(ipv4.Block(r.Block))
		return BlockResp{Epoch: x.Epoch(), Found: ok, View: v}, nil
	case DeltaReq:
		if r.From >= r.To {
			return nil, errors.New(wire.ErrDeltaParams(
				strconv.FormatUint(r.From, 10), strconv.FormatUint(r.To, 10)))
		}
		partial, err := win.Delta(r.From, r.To, r.MaxBlocks)
		if err != nil {
			return nil, err
		}
		oldest, newest, _ := win.Range()
		return DeltaResp{Oldest: oldest, Newest: newest, Partial: partial}, nil
	case MovementReq:
		oldest, newest, _ := win.Range()
		return MovementResp{Oldest: oldest, Newest: newest, Partial: win.Movement(r.Last)}, nil
	case BulkAddrReq:
		x := win.Latest()
		lo, hi, more := s.pageBounds(r.CurrIndex, len(r.Addrs))
		resp := BulkAddrResp{Epoch: x.Epoch(), CurrIndex: lo, NextIndex: hi, More: more}
		resp.Views = make([]query.AddrView, 0, hi-lo)
		for _, a := range r.Addrs[lo:hi] {
			resp.Views = append(resp.Views, x.Addr(ipv4.Addr(a)))
		}
		return resp, nil
	}
	return nil, errors.New("unexpected request kind")
}

// pageBounds clamps a bulk request's CurrIndex to [0, n] and answers at
// most one page from there.
func (s *Server) pageBounds(curr, n int) (lo, hi int, more bool) {
	lo = curr
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	hi = lo + s.page
	if hi > n {
		hi = n
	}
	return lo, hi, hi < n
}
