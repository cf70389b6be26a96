package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"ipscope/internal/binenc"
	"ipscope/internal/query"
	"ipscope/internal/serve/wire"
)

// StatusError is a typed error response from the peer, carrying the
// HTTP-equivalent status code (503 warming, 400 bad request) so the
// cluster transport can reconstruct the exact HTTP behaviour.
type StatusError struct {
	Code int
	Msg  string
}

// Error returns the message.
func (e *StatusError) Error() string { return fmt.Sprintf("rpc: status %d: %s", e.Code, e.Msg) }

// DefaultPoolSize is how many persistent connections a Client keeps per
// shard. Concurrent calls pipeline over them round-robin, so the pool
// bounds head-of-line blocking without one-connection-per-request
// churn.
const DefaultPoolSize = 4

// dialTimeout bounds one connection attempt.
const dialTimeout = 5 * time.Second

// Client is a pipelining RPC client for one shard. It is safe for
// concurrent use: calls are multiplexed over a small pool of persistent
// connections, matched to responses by frame id. A broken connection
// fails its in-flight calls and is re-dialed lazily on the next call.
type Client struct {
	addr string

	mu     sync.Mutex
	conns  []*clientConn
	next   int
	closed bool
}

// ClientOptions tunes a Client.
type ClientOptions struct {
	// PoolSize bounds persistent connections; 0 means DefaultPoolSize.
	PoolSize int
}

// NewClient returns a Client for the shard at addr (host:port). No
// connection is made until the first call.
func NewClient(addr string, opts ClientOptions) *Client {
	size := opts.PoolSize
	if size <= 0 {
		size = DefaultPoolSize
	}
	return &Client{addr: addr, conns: make([]*clientConn, size)}
}

// Close closes every pooled connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := append([]*clientConn(nil), c.conns...)
	c.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.close(fmt.Errorf("rpc: client closed"))
		}
	}
	return nil
}

// clientConn is one persistent connection: a writer guarded by wmu and
// a reader goroutine that demultiplexes response frames to the pending
// calls by id.
type clientConn struct {
	conn net.Conn
	bw   *bufio.Writer

	wmu sync.Mutex // serializes frame writes + flushes

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan Msg
	err     error // set once broken; all future use fails fast
}

// conn returns a live pooled connection at slot i, dialing if needed.
func (c *Client) pooled() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("rpc: client closed")
	}
	i := c.next
	c.next = (c.next + 1) % len(c.conns)
	cc := c.conns[i]
	if cc != nil && !cc.broken() {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	// Dial outside the pool lock — a dead shard must not serialize every
	// caller behind one connect timeout.
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cc = &clientConn{
		conn:    nc,
		bw:      bufio.NewWriterSize(nc, 1<<16),
		pending: make(map[uint32]chan Msg),
	}
	if err := writePreface(cc.bw); err != nil {
		nc.Close()
		return nil, err
	}
	if err := cc.bw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(nc, 1<<16)
	if err := readPreface(br); err != nil {
		nc.Close()
		return nil, err
	}
	go cc.readLoop(br)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.close(fmt.Errorf("rpc: client closed"))
		return nil, fmt.Errorf("rpc: client closed")
	}
	// Another caller may have replaced the slot meanwhile; keep the
	// freshest live connection and use ours regardless.
	if old := c.conns[i]; old == nil || old.broken() {
		c.conns[i] = cc
	}
	c.mu.Unlock()
	return cc, nil
}

func (cc *clientConn) broken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// close marks the connection broken and fails every pending call.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	pending := cc.pending
	cc.pending = make(map[uint32]chan Msg)
	cc.mu.Unlock()
	cc.conn.Close()
	for _, ch := range pending {
		close(ch) // receivers observe closed channel = connection error
	}
}

// readLoop demultiplexes response frames to pending calls until the
// connection breaks.
func (cc *clientConn) readLoop(br *bufio.Reader) {
	for {
		id, m, err := readFrame(br)
		if err != nil {
			cc.close(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if ok {
			ch <- m
		}
	}
}

// roundTrip sends req on one pooled connection and waits for its
// response frame, honouring ctx cancellation.
func (c *Client) roundTrip(ctx context.Context, req Msg) (Msg, error) {
	cc, err := c.pooled()
	if err != nil {
		return nil, err
	}

	ch := make(chan Msg, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	}
	id := cc.nextID
	cc.nextID++
	cc.pending[id] = ch
	cc.mu.Unlock()

	cc.wmu.Lock()
	err = writeFrame(cc.bw, id, req)
	if err == nil {
		err = cc.bw.Flush()
	}
	cc.wmu.Unlock()
	if err != nil {
		cc.close(err)
		return nil, err
	}

	select {
	case m, ok := <-ch:
		if !ok {
			cc.mu.Lock()
			err := cc.err
			cc.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("rpc: connection lost")
			}
			return nil, err
		}
		if e, isErr := m.(*ErrorResp); isErr {
			return nil, errorRespErr(*e)
		}
		if e, isErr := m.(ErrorResp); isErr {
			return nil, errorRespErr(e)
		}
		return m, nil
	case <-ctx.Done():
		// Abandon the call: drop the pending entry so the late response
		// (if any) is discarded by the read loop.
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return nil, ctx.Err()
	}
}

// errorRespErr maps an error frame to its typed Go error: the
// not-retained 404 becomes *wire.NotRetainedError (carrying the shard's
// ring range for the router's common-range fold), everything else a
// *StatusError.
func errorRespErr(e ErrorResp) error {
	if e.NotRetained {
		return &wire.NotRetainedError{Oldest: e.Oldest, Newest: e.Newest}
	}
	return &StatusError{Code: e.Code, Msg: e.Msg}
}

// call sends req and returns its response as a T — the zero T beside
// the error when the call failed, or when the peer answered with a frame
// of another type.
func call[T Msg](ctx context.Context, c *Client, req Msg) (T, error) {
	m, err := c.roundTrip(ctx, req)
	r, ok := m.(T)
	if err == nil && !ok {
		err = binenc.Errorf(formatName, "unexpected response type %T", m)
	}
	return r, err
}

// Health fetches the shard's liveness.
func (c *Client) Health(ctx context.Context) (HealthResp, error) {
	return call[HealthResp](ctx, c, HealthReq{})
}

// Summary fetches the shard's mergeable summary partial and the epoch
// it was computed from. A non-zero epoch targets a retained snapshot
// (likewise on every point method below); an unretained epoch returns
// *wire.NotRetainedError.
func (c *Client) Summary(ctx context.Context, epoch uint64) (query.SummaryPartial, uint64, error) {
	r, err := call[SummaryResp](ctx, c, SummaryReq{Epoch: epoch})
	return r.Partial, r.Epoch, err
}

// AS fetches the shard's mergeable share of one AS footprint.
func (c *Client) AS(ctx context.Context, asn uint32, epoch uint64) (query.ASPartial, uint64, error) {
	r, err := call[ASResp](ctx, c, ASReq{ASN: asn, Epoch: epoch})
	return r.Partial, r.Epoch, err
}

// Prefix fetches the shard's mergeable share of a CIDR aggregate.
func (c *Client) Prefix(ctx context.Context, prefix string, maxBlocks int, epoch uint64) (query.PrefixPartial, uint64, error) {
	r, err := call[PrefixResp](ctx, c, PrefixReq{Prefix: prefix, MaxBlocks: maxBlocks, Epoch: epoch})
	return r.Partial, r.Epoch, err
}

// Addr fetches one address's view.
func (c *Client) Addr(ctx context.Context, addr uint32, epoch uint64) (query.AddrView, uint64, error) {
	r, err := call[AddrResp](ctx, c, AddrReq{Addr: addr, Epoch: epoch})
	return r.View, r.Epoch, err
}

// Block fetches one /24's view; found=false is the typed 404.
func (c *Client) Block(ctx context.Context, block uint32, epoch uint64) (query.BlockView, bool, uint64, error) {
	r, err := call[BlockResp](ctx, c, BlockReq{Block: block, Epoch: epoch})
	return r.View, r.Found, r.Epoch, err
}

// BulkAddr fetches views for every address in one logical call, paging
// with CurrIndex/NextIndex/More until the server reports no more. The
// returned views align one-to-one with addrs; the epoch is the last
// page's (pages of one immutable snapshot agree unless a publish lands
// mid-call, in which case the freshest wins, matching what N singles
// would observe).
func (c *Client) BulkAddr(ctx context.Context, addrs []uint32) ([]query.AddrView, uint64, error) {
	views := make([]query.AddrView, 0, len(addrs))
	var epoch uint64
	for curr := 0; ; {
		r, err := call[BulkAddrResp](ctx, c, BulkAddrReq{CurrIndex: curr, Addrs: addrs})
		if err != nil {
			return nil, 0, err
		}
		if r.CurrIndex != curr || r.NextIndex < curr || r.NextIndex > len(addrs) {
			return nil, 0, binenc.Errorf(formatName, "bulk page [%d, %d) does not continue offset %d", r.CurrIndex, r.NextIndex, curr)
		}
		if len(r.Views) != r.NextIndex-r.CurrIndex {
			return nil, 0, binenc.Errorf(formatName, "bulk page carries %d views for range [%d, %d)", len(r.Views), r.CurrIndex, r.NextIndex)
		}
		views = append(views, r.Views...)
		epoch = r.Epoch
		curr = r.NextIndex
		if !r.More {
			break
		}
		if r.NextIndex == r.CurrIndex {
			return nil, 0, binenc.Errorf(formatName, "bulk paging made no progress at offset %d", curr)
		}
	}
	if len(views) != len(addrs) {
		return nil, 0, binenc.Errorf(formatName, "bulk answered %d views for %d addrs", len(views), len(addrs))
	}
	return views, epoch, nil
}

// Delta fetches the shard's mergeable delta partial between two
// retained epochs plus the shard's ring range; an unretained epoch
// returns *wire.NotRetainedError.
func (c *Client) Delta(ctx context.Context, from, to uint64, maxBlocks int) (query.DeltaPartial, uint64, uint64, error) {
	r, err := call[DeltaResp](ctx, c, DeltaReq{From: from, To: to, MaxBlocks: maxBlocks})
	return r.Partial, r.Oldest, r.Newest, err
}

// Movement fetches the shard's mergeable movement partial over the last
// N retained epochs (0 = whole ring) plus the shard's ring range.
func (c *Client) Movement(ctx context.Context, last int) (query.MovementPartial, uint64, uint64, error) {
	r, err := call[MovementResp](ctx, c, MovementReq{Last: last})
	return r.Partial, r.Oldest, r.Newest, err
}
