package rpc

import (
	"bufio"
	"context"
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
// shard serve the same atomically-published snapshots.
type Backend interface {
	// Index returns the current snapshot (nil while warming).
	Index() *query.Index
	// Shard returns the partition coordinates.
	Shard() wire.ShardInfo
	// ClusterInfo returns the /v1/cluster/info equivalent.
	ClusterInfo() wire.ClusterInfo
	// Health returns the /v1/healthz equivalent.
	Health() wire.Health
	// History returns the retained-snapshot ring — the same ring the
	// HTTP listener answers ?epoch=/delta/movement from, so the two
	// transports cannot disagree about what is retained.
	History() *history.Ring
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

// handle answers one request. Data requests against a warming shard
// (no published snapshot) answer the typed form of the HTTP 503.
func (s *Server) handle(req Msg) Msg {
	switch r := req.(type) {
	case InfoReq:
		return InfoResp{Info: s.be.ClusterInfo()}
	case HealthReq:
		h := s.be.Health()
		return HealthResp{
			Status: h.Status, Epoch: h.Epoch,
			OldestEpoch: h.OldestEpoch, NewestEpoch: h.NewestEpoch,
			Blocks: h.Blocks, DailyLen: h.DailyLen,
		}
	default:
		x := s.be.Index()
		if x == nil {
			return ErrorResp{Code: http.StatusServiceUnavailable, Msg: wire.WarmingError}
		}
		return s.handleData(x, r)
	}
}

// notRetained builds the typed form of the not-retained 404 from the
// ring's current range.
func (s *Server) notRetained(asked uint64) Msg {
	oldest, newest, _ := s.be.History().Range()
	return ErrorResp{
		Code:        http.StatusNotFound,
		Msg:         wire.ErrEpochNotRetained(asked, oldest, newest),
		NotRetained: true,
		Oldest:      oldest,
		Newest:      newest,
	}
}

// resolve swaps x for the retained snapshot a non-zero request epoch
// names (epoch 0 = the live snapshot); the second return is the typed
// 404 on an unretained epoch.
func (s *Server) resolve(x *query.Index, epoch uint64) (*query.Index, Msg) {
	if epoch == 0 {
		return x, nil
	}
	hx, ok := s.be.History().Get(epoch)
	if !ok {
		return nil, s.notRetained(epoch)
	}
	return hx, nil
}

func (s *Server) handleData(x *query.Index, req Msg) Msg {
	switch r := req.(type) {
	case SummaryReq:
		x, errMsg := s.resolve(x, r.Epoch)
		if errMsg != nil {
			return errMsg
		}
		return SummaryResp{Epoch: x.Epoch(), Partial: x.SummaryPartial()}
	case ASReq:
		x, errMsg := s.resolve(x, r.Epoch)
		if errMsg != nil {
			return errMsg
		}
		return ASResp{Epoch: x.Epoch(), Partial: x.ASPartial(bgp.ASN(r.ASN))}
	case PrefixReq:
		x, errMsg := s.resolve(x, r.Epoch)
		if errMsg != nil {
			return errMsg
		}
		p, err := ipv4.ParsePrefix(r.Prefix)
		if err != nil {
			return ErrorResp{Code: http.StatusBadRequest, Msg: err.Error()}
		}
		partial, err := x.PrefixPartial(p, r.MaxBlocks)
		if err != nil {
			return ErrorResp{Code: http.StatusBadRequest, Msg: err.Error()}
		}
		return PrefixResp{Epoch: x.Epoch(), Partial: partial}
	case AddrReq:
		x, errMsg := s.resolve(x, r.Epoch)
		if errMsg != nil {
			return errMsg
		}
		return AddrResp{Epoch: x.Epoch(), View: x.Addr(ipv4.Addr(r.Addr))}
	case BlockReq:
		x, errMsg := s.resolve(x, r.Epoch)
		if errMsg != nil {
			return errMsg
		}
		v, ok := x.Block(ipv4.Block(r.Block))
		return BlockResp{Epoch: x.Epoch(), Found: ok, View: v}
	case DeltaReq:
		ring := s.be.History()
		if r.From >= r.To {
			return ErrorResp{Code: http.StatusBadRequest, Msg: wire.ErrDeltaParams(
				strconv.FormatUint(r.From, 10), strconv.FormatUint(r.To, 10))}
		}
		// Probe from first, then to — the order the HTTP handler and the
		// router both use, so every transport blames the same epoch.
		for _, e := range [2]uint64{r.From, r.To} {
			if _, ok := ring.Get(e); !ok {
				return s.notRetained(e)
			}
		}
		partial, ok, err := ring.Delta(r.From, r.To, r.MaxBlocks)
		if !ok {
			return s.notRetained(r.From)
		}
		if err != nil {
			return ErrorResp{Code: http.StatusBadRequest, Msg: err.Error()}
		}
		oldest, newest, _ := ring.Range()
		return DeltaResp{Oldest: oldest, Newest: newest, Partial: partial}
	case MovementReq:
		ring := s.be.History()
		oldest, newest, _ := ring.Range()
		return MovementResp{Oldest: oldest, Newest: newest, Partial: ring.Movement(r.Last)}
	case BulkAddrReq:
		lo, hi, more := s.pageBounds(r.CurrIndex, len(r.Addrs))
		resp := BulkAddrResp{Epoch: x.Epoch(), CurrIndex: lo, NextIndex: hi, More: more}
		resp.Views = make([]query.AddrView, 0, hi-lo)
		for _, a := range r.Addrs[lo:hi] {
			resp.Views = append(resp.Views, x.Addr(ipv4.Addr(a)))
		}
		return resp
	}
	return ErrorResp{Code: http.StatusBadRequest, Msg: "unexpected request kind"}
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
