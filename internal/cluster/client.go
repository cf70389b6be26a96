package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ipscope/internal/ipv4"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve/wire"
)

// Client is the router's transport-abstracted view of one shard: point
// lookups plus the typed cluster partials the scatter-gather endpoints
// fold. Two implementations exist — HTTP-JSON against the shard's
// public API (the universal fallback) and binary RPC against the
// shard's -rpc-listen endpoint (internal/rpc). Both must produce
// byte-identical routed responses; TestClusterEquivalence runs the full
// probe set over each.
type Client interface {
	// Point performs one /v1/addr or /v1/block lookup, returning the
	// complete HTTP response the router relays to the caller.
	Point(ctx context.Context, req PointRequest) (PointResponse, error)
	// Summary fetches the shard's mergeable summary partial and the
	// snapshot epoch it was computed from. A non-zero epoch targets a
	// retained snapshot (likewise on AS and Prefix); an unretained
	// epoch returns *wire.NotRetainedError.
	Summary(ctx context.Context, epoch uint64) (query.SummaryPartial, uint64, error)
	// AS fetches the shard's mergeable share of one AS footprint.
	AS(ctx context.Context, asn uint32, epoch uint64) (query.ASPartial, uint64, error)
	// Prefix fetches the shard's mergeable share of a CIDR aggregate.
	Prefix(ctx context.Context, cidr string, epoch uint64) (query.PrefixPartial, uint64, error)
	// Delta fetches the shard's mergeable delta partial between two
	// retained epochs, plus the shard's retained ring range for the
	// router's common-range fold. An unretained epoch returns
	// *wire.NotRetainedError (which also carries the shard's range).
	Delta(ctx context.Context, from, to uint64) (query.DeltaPartial, uint64, uint64, error)
	// Movement fetches the shard's mergeable movement partial over the
	// last N retained epochs (0 = whole ring), plus the shard's ring
	// range.
	Movement(ctx context.Context, last int) (query.MovementPartial, uint64, uint64, error)
	// Health probes the shard's liveness, returning its status string,
	// epoch, and retained ring range.
	Health(ctx context.Context) (status string, epoch, oldest, newest uint64, err error)
	// Transport names the wire protocol ("http" or "rpc") for
	// observability (router healthz).
	Transport() string
	// Close releases persistent connections.
	Close() error
}

// PointRequest is one point lookup as the router received it.
type PointRequest struct {
	// URI is the original request URI (path + query), which the HTTP
	// transport forwards verbatim.
	URI string
	// IsAddr distinguishes /v1/addr (Addr valid) from /v1/block (Block
	// valid) for the typed transport.
	IsAddr bool
	Addr   ipv4.Addr
	Block  ipv4.Block
	// Epoch is the router-validated ?epoch= value (0 = live snapshot).
	// The HTTP transport carries it inside URI; the typed transport
	// sends it in the request frame.
	Epoch uint64
	// IfNoneMatch carries the caller's validator for 304 handling.
	IfNoneMatch string
}

// PointResponse is the complete relayed response: status, body and the
// headers the router forwards. ETag is empty on answers the shard does
// not epoch-stamp (the warming 503, the not-retained 404); otherwise
// Epoch is the epoch it names — the one the body is stamped with.
type PointResponse struct {
	Status     int
	Body       []byte
	ETag       string
	Epoch      uint64
	RetryAfter string
}

// --- shard error classes ---------------------------------------------
//
// The router's failover decisions hinge on the error class, so both
// transports report failures through the same two types:
//
//   - unavailableError: the transport failed (dial refused, reset,
//     EOF). The replica is presumed dead — the router fails over to
//     the next replica of the range and marks this one down, with
//     exponential backoff before re-admission.
//   - statusError with warming=true: the shard answered the warming
//     503 (alive — typically just restarted — but no snapshot
//     published yet). The router fails over, because a sibling replica
//     has the data, but does not mark health: the process is up and
//     will finish warming on its own.
//   - everything else (parse 400s, *wire.NotRetainedError): a
//     deterministic answer every replica would repeat, because all
//     replicas of a range serve bit-identical indexes. No failover —
//     and the answer proves the replica healthy.
//
// The rendered texts are unchanged from the pre-replication router:
// they surface in routed 503 bodies and degraded-mode assertions
// (TestRouterDegradedMode, cluster/rpc smoke scripts).

// unavailableError wraps a transport-level failure talking to a shard.
type unavailableError struct {
	shard int
	err   error
}

func (e *unavailableError) Error() string {
	return fmt.Sprintf("shard %d unavailable: %v", e.shard, e.err)
}

// statusError wraps a non-200 shard answer. detail is the rendered
// remainder of the message (the raw body over HTTP, the error message
// over RPC — matching what each transport historically reported).
type statusError struct {
	shard   int
	code    int
	detail  string
	warming bool
}

func (e *statusError) Error() string {
	return fmt.Sprintf("shard %d answered status %d: %s", e.shard, e.code, e.detail)
}

// isUnavailable reports whether err means the replica's process is
// unreachable (failover + mark down).
func isUnavailable(err error) bool {
	_, ok := err.(*unavailableError)
	return ok
}

// isWarming reports whether err is the warming 503 (failover, no
// health mark).
func isWarming(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.warming
}

// --- HTTP-JSON transport ---------------------------------------------

// httpShardClient speaks the shard's public JSON API — the universal
// transport, also the fallback when a shard advertises no RPC endpoint.
type httpShardClient struct {
	idx  int
	base string
	hc   *http.Client
}

func newHTTPShardClient(idx int, base string, hc *http.Client) *httpShardClient {
	return &httpShardClient{idx: idx, base: base, hc: hc}
}

func (c *httpShardClient) Transport() string { return "http" }

func (c *httpShardClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

func (c *httpShardClient) Point(ctx context.Context, pr PointRequest) (PointResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+pr.URI, nil)
	if err != nil {
		return PointResponse{}, err
	}
	if pr.IfNoneMatch != "" {
		req.Header.Set("If-None-Match", pr.IfNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return PointResponse{}, &unavailableError{shard: c.idx, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return PointResponse{}, &unavailableError{shard: c.idx, err: err}
	}
	etag := resp.Header.Get("ETag")
	epoch, ok := wire.ETagEpoch(etag)
	if !ok {
		etag = "" // not an epoch tag: relay the answer as unstamped
	}
	return PointResponse{
		Status:     resp.StatusCode,
		Body:       body,
		ETag:       etag,
		Epoch:      epoch,
		RetryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// epochQuery renders the ?epoch= suffix a non-zero target epoch adds to
// a cluster-partial path.
func epochQuery(epoch uint64) string {
	if epoch == 0 {
		return ""
	}
	return "?epoch=" + strconv.FormatUint(epoch, 10)
}

// notRetained404 recognizes the EpochRangeBody 404 and converts it to
// the typed error. A retained ring always has NewestEpoch >= 1 (epochs
// start at 1), which is what distinguishes the body from a plain
// ErrorBody 404 decoded with zero range fields.
func notRetained404(status int, body []byte) error {
	if status != http.StatusNotFound {
		return nil
	}
	var rb wire.EpochRangeBody
	if err := json.Unmarshal(body, &rb); err != nil || rb.NewestEpoch == 0 {
		return nil
	}
	return &wire.NotRetainedError{Oldest: rb.OldestEpoch, Newest: rb.NewestEpoch}
}

// fetchJSON gets base+path and decodes the 200 body into out plus the
// spliced epoch. A not-retained 404 surfaces as *wire.NotRetainedError;
// other error texts are part of the router's degraded-mode contract,
// mirrored by the RPC transport.
func (c *httpShardClient) fetchJSON(ctx context.Context, path string, out any) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, &unavailableError{shard: c.idx, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, &unavailableError{shard: c.idx, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		if nrErr := notRetained404(resp.StatusCode, body); nrErr != nil {
			return 0, nrErr
		}
		return 0, &statusError{
			shard:   c.idx,
			code:    resp.StatusCode,
			detail:  string(body),
			warming: resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(body, []byte(wire.WarmingError)),
		}
	}
	var ep struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &ep); err != nil {
		return 0, fmt.Errorf("shard %d: %v", c.idx, err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return 0, fmt.Errorf("shard %d: %v", c.idx, err)
	}
	return ep.Epoch, nil
}

func (c *httpShardClient) Summary(ctx context.Context, epoch uint64) (query.SummaryPartial, uint64, error) {
	var p query.SummaryPartial
	ep, err := c.fetchJSON(ctx, "/v1/cluster/summary"+epochQuery(epoch), &p)
	return p, ep, err
}

func (c *httpShardClient) AS(ctx context.Context, asn uint32, epoch uint64) (query.ASPartial, uint64, error) {
	var p query.ASPartial
	ep, err := c.fetchJSON(ctx, fmt.Sprintf("/v1/cluster/as/%d%s", asn, epochQuery(epoch)), &p)
	return p, ep, err
}

func (c *httpShardClient) Prefix(ctx context.Context, cidr string, epoch uint64) (query.PrefixPartial, uint64, error) {
	var p query.PrefixPartial
	ep, err := c.fetchJSON(ctx, "/v1/cluster/prefix/"+cidr+epochQuery(epoch), &p)
	return p, ep, err
}

func (c *httpShardClient) Delta(ctx context.Context, from, to uint64) (query.DeltaPartial, uint64, uint64, error) {
	var p query.DeltaShardResponse
	path := fmt.Sprintf("/v1/cluster/delta?from=%d&to=%d", from, to)
	if _, err := c.fetchJSON(ctx, path, &p); err != nil {
		return query.DeltaPartial{}, 0, 0, err
	}
	return p.DeltaPartial, p.RingOldest, p.RingNewest, nil
}

func (c *httpShardClient) Movement(ctx context.Context, last int) (query.MovementPartial, uint64, uint64, error) {
	var p query.MovementShardResponse
	path := "/v1/cluster/movement"
	if last > 0 {
		path += "?last=" + strconv.Itoa(last)
	}
	if _, err := c.fetchJSON(ctx, path, &p); err != nil {
		return query.MovementPartial{}, 0, 0, err
	}
	return p.MovementPartial, p.RingOldest, p.RingNewest, nil
}

func (c *httpShardClient) Health(ctx context.Context) (string, uint64, uint64, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return "", 0, 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Status      string `json:"status"`
		Epoch       uint64 `json:"epoch"`
		OldestEpoch uint64 `json:"oldestEpoch"`
		NewestEpoch uint64 `json:"newestEpoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", 0, 0, 0, err
	}
	return body.Status, body.Epoch, body.OldestEpoch, body.NewestEpoch, nil
}

// --- binary RPC transport --------------------------------------------

// rpcShardClient speaks internal/rpc's typed binary protocol over
// persistent pipelined connections, reconstructing HTTP responses with
// the same wire helpers the shard's own serving path uses — which is
// what keeps routed bodies byte-identical to the HTTP transport's.
type rpcShardClient struct {
	idx int
	rc  *rpc.Client
}

func newRPCShardClient(idx int, addr string) *rpcShardClient {
	return &rpcShardClient{idx: idx, rc: rpc.NewClient(addr, rpc.ClientOptions{})}
}

func (c *rpcShardClient) Transport() string { return "rpc" }

func (c *rpcShardClient) Close() error { return c.rc.Close() }

// wrapErr maps transport failures onto the HTTP transport's error
// texts, so degraded-mode behaviour (TestRouterDegradedMode) is
// transport-independent. The typed not-retained error passes through
// untouched — the router folds its range fields.
func (c *rpcShardClient) wrapErr(err error) error {
	if nr, ok := err.(*wire.NotRetainedError); ok {
		return nr
	}
	if se, ok := err.(*rpc.StatusError); ok {
		return &statusError{
			shard:   c.idx,
			code:    se.Code,
			detail:  se.Msg,
			warming: se.Code == http.StatusServiceUnavailable && se.Msg == wire.WarmingError,
		}
	}
	return &unavailableError{shard: c.idx, err: err}
}

func (c *rpcShardClient) Point(ctx context.Context, pr PointRequest) (PointResponse, error) {
	var (
		status  int
		payload any
		epoch   uint64
	)
	if pr.IsAddr {
		view, e, err := c.rc.Addr(ctx, uint32(pr.Addr), pr.Epoch)
		if err != nil {
			return c.pointErr(err, pr.Epoch)
		}
		status, payload, epoch = http.StatusOK, view, e
	} else {
		view, found, e, err := c.rc.Block(ctx, uint32(pr.Block), pr.Epoch)
		if err != nil {
			return c.pointErr(err, pr.Epoch)
		}
		if found {
			status, payload, epoch = http.StatusOK, view, e
		} else {
			status, payload, epoch = http.StatusNotFound, wire.ErrorBody{Error: wire.ErrBlockNotFound(pr.Block)}, e
		}
	}
	etag := wire.ETagFor(epoch)
	if wire.ETagMatch(pr.IfNoneMatch, etag) {
		return PointResponse{Status: http.StatusNotModified, ETag: etag, Epoch: epoch}, nil
	}
	status, body := wire.Encode(status, payload, epoch)
	return PointResponse{Status: status, Body: body, ETag: etag, Epoch: epoch}, nil
}

// pointErr turns a typed shard error into the HTTP response the shard
// itself would have served — the warming 503 and the not-retained 404
// are the live cases — and a transport failure into an error for the
// router's unavailable path. asked is the epoch the request named, from
// which the not-retained body is reconstructed byte-identically.
func (c *rpcShardClient) pointErr(err error, asked uint64) (PointResponse, error) {
	if nr, ok := err.(*wire.NotRetainedError); ok {
		return PointResponse{Status: http.StatusNotFound, Body: wire.NotRetainedBody(asked, nr.Oldest, nr.Newest)}, nil
	}
	se, ok := err.(*rpc.StatusError)
	if !ok {
		return PointResponse{}, &unavailableError{shard: c.idx, err: err}
	}
	if se.Code == http.StatusServiceUnavailable && se.Msg == wire.WarmingError {
		return PointResponse{Status: http.StatusServiceUnavailable, Body: wire.WarmingBody(), RetryAfter: "1"}, nil
	}
	status, body := wire.Encode(se.Code, wire.ErrorBody{Error: se.Msg}, 0)
	return PointResponse{Status: status, Body: body}, nil
}

func (c *rpcShardClient) Summary(ctx context.Context, epoch uint64) (query.SummaryPartial, uint64, error) {
	p, ep, err := c.rc.Summary(ctx, epoch)
	if err != nil {
		return query.SummaryPartial{}, 0, c.wrapErr(err)
	}
	return p, ep, nil
}

func (c *rpcShardClient) AS(ctx context.Context, asn uint32, epoch uint64) (query.ASPartial, uint64, error) {
	p, ep, err := c.rc.AS(ctx, asn, epoch)
	if err != nil {
		return query.ASPartial{}, 0, c.wrapErr(err)
	}
	return p, ep, nil
}

func (c *rpcShardClient) Prefix(ctx context.Context, cidr string, epoch uint64) (query.PrefixPartial, uint64, error) {
	p, ep, err := c.rc.Prefix(ctx, cidr, wire.DefaultPrefixBlockList, epoch)
	if err != nil {
		return query.PrefixPartial{}, 0, c.wrapErr(err)
	}
	return p, ep, nil
}

func (c *rpcShardClient) Delta(ctx context.Context, from, to uint64) (query.DeltaPartial, uint64, uint64, error) {
	p, oldest, newest, err := c.rc.Delta(ctx, from, to, query.DefaultDeltaBlockList)
	if err != nil {
		return query.DeltaPartial{}, 0, 0, c.wrapErr(err)
	}
	return p, oldest, newest, nil
}

func (c *rpcShardClient) Movement(ctx context.Context, last int) (query.MovementPartial, uint64, uint64, error) {
	p, oldest, newest, err := c.rc.Movement(ctx, last)
	if err != nil {
		return query.MovementPartial{}, 0, 0, c.wrapErr(err)
	}
	return p, oldest, newest, nil
}

func (c *rpcShardClient) Health(ctx context.Context) (string, uint64, uint64, uint64, error) {
	h, err := c.rc.Health(ctx)
	if err != nil {
		return "", 0, 0, 0, err
	}
	return h.Status, h.Epoch, h.OldestEpoch, h.NewestEpoch, nil
}
