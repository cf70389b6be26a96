// Package wire is the single definition of the /v1/* wire contract:
// the typed request/response bodies, the error payloads and texts, the
// epoch splice every JSON body carries, and the epoch-derived ETag
// validation — shared by the shard server (internal/serve), the cluster
// router (internal/cluster), the binary RPC transport (internal/rpc)
// and the tests that probe them, so a routed response cannot drift
// from a single-node one by reimplementing any of it.
//
// The package deliberately holds no server state: everything here is a
// pure function of (payload, epoch, request), which is what makes the
// byte-stability invariants (TestClusterEquivalence, the smoke scripts'
// summary diffs) checkable — the same inputs produce the same bytes on
// every node that links this package.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ipscope/internal/ipv4"
)

// DefaultPrefixBlockList caps the per-block detail list embedded in a
// /v1/prefix response. Part of the body contract: every shard and the
// router must apply the same cap or merged block lists drift.
const DefaultPrefixBlockList = 16

// ErrorBody is the JSON error payload every /v1/* endpoint uses —
// single-node, routed, and reconstructed from RPC frames alike.
type ErrorBody struct {
	Error string `json:"error"`
}

// WarmingError is the error text a server with no published snapshot
// answers 503 with. One definition, so the router's RPC transport can
// reconstruct the warming body byte-identically.
const WarmingError = "index warming up: no snapshot published yet"

// WarmingBody returns the full 503 warming response body (epoch 0,
// trailing newline) exactly as the shard's cache layer writes it.
func WarmingBody() []byte {
	return []byte(`{"epoch":0,"error":"` + WarmingError + `"}` + "\n")
}

// ErrASNotFound renders the 404 body text for an unknown AS, shared by
// the shard server and the router's merged not-found answer.
func ErrASNotFound(n uint32) string { return fmt.Sprintf("AS%d not in dataset", n) }

// EpochRangeBody is the 404 payload for a time-travel request naming an
// epoch outside the retained ring: the error text plus the range the
// caller can retry inside. It deliberately carries no epoch splice —
// the body is a pure function of (asked, oldest, newest), so the RPC
// transport reconstructs it byte-identically from a typed frame and a
// router can synthesize the cluster-wide common-range variant.
type EpochRangeBody struct {
	Error       string `json:"error"`
	OldestEpoch uint64 `json:"oldestEpoch"`
	NewestEpoch uint64 `json:"newestEpoch"`
}

// ErrInvalidEpoch renders the 400 body text for an unparseable ?epoch=
// value, shared by the shard server and the router's RPC transport.
func ErrInvalidEpoch(raw string) string { return fmt.Sprintf("invalid epoch %q", raw) }

// ErrDeltaParams renders the 400 body text for a /v1/delta request
// whose from/to query parameters are missing, non-integer or not an
// increasing span. One text for every rejection keeps the routed and
// single-node answers identical.
func ErrDeltaParams(fromRaw, toRaw string) string {
	return fmt.Sprintf("delta wants ?from=E&to=E epochs with from < to (got from=%q to=%q)", fromRaw, toRaw)
}

// ErrInvalidLast renders the 400 body text for an unparseable
// /v1/movement ?last= value.
func ErrInvalidLast(raw string) string { return fmt.Sprintf("invalid last %q", raw) }

// ErrEpochNotRetained renders the error text for an epoch outside the
// retained range.
func ErrEpochNotRetained(asked, oldest, newest uint64) string {
	return fmt.Sprintf("epoch %d not retained (retained epochs %d..%d)", asked, oldest, newest)
}

// NotRetainedBody returns the full 404 body bytes (trailing newline, no
// epoch splice) for a request naming an unretained epoch.
func NotRetainedBody(asked, oldest, newest uint64) []byte {
	body, _ := json.Marshal(EpochRangeBody{
		Error:       ErrEpochNotRetained(asked, oldest, newest),
		OldestEpoch: oldest,
		NewestEpoch: newest,
	})
	return append(body, '\n')
}

// NotRetainedError is the typed form of the not-retained 404: an epoch
// outside a retained window, with the range the window does retain
// (0..0 when empty). A history window answers it, and the HTTP 404 body
// and the RPC error frame are rendered from its fields. Both cluster
// transports surface it — the HTTP client by decoding EpochRangeBody,
// the RPC client from the error frame's retained-range fields — so the
// router can fold per-shard ranges into the cluster-wide common range
// without parsing error text. Neither carries the asked epoch back, so
// Asked is 0 there; routed responses are rebuilt with NotRetainedBody.
type NotRetainedError struct {
	Asked, Oldest, Newest uint64
}

func (e *NotRetainedError) Error() string {
	return ErrEpochNotRetained(e.Asked, e.Oldest, e.Newest)
}

// ErrBlockNotFound renders the 404 body text for a /24 with no activity
// in the daily window, shared by the shard server and the router's RPC
// transport (which reconstructs the body from a typed frame).
func ErrBlockNotFound(blk ipv4.Block) string {
	return fmt.Sprintf("block %v has no activity in the daily window", blk)
}

// ETagFor derives the entity tag every /v1/* endpoint serves from the
// snapshot epoch: indexes are immutable, so a resource changes exactly
// when the epoch does.
func ETagFor(epoch uint64) string {
	return fmt.Sprintf("\"ips-e%d\"", epoch)
}

// ETagEpoch is ETagFor's inverse: the epoch a served tag names. The
// router's HTTP shard transport uses it to learn which epoch a relayed
// point answer is stamped with.
func ETagEpoch(etag string) (uint64, bool) {
	raw, ok := strings.CutPrefix(etag, `"ips-e`)
	if !ok {
		return 0, false
	}
	raw, ok = strings.CutSuffix(raw, `"`)
	if !ok {
		return 0, false
	}
	epoch, err := strconv.ParseUint(raw, 10, 64)
	return epoch, err == nil
}

// ETagMatch reports whether an If-None-Match header value matches etag
// (or is the "*" wildcard).
func ETagMatch(inm, etag string) bool {
	if inm == "" {
		return false
	}
	for _, c := range strings.Split(inm, ",") {
		c = strings.TrimSpace(c)
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// NotModified reports whether the request's If-None-Match header
// matches etag.
func NotModified(r *http.Request, etag string) bool {
	return ETagMatch(r.Header.Get("If-None-Match"), etag)
}

// WithEpoch splices the snapshot epoch into a marshalled JSON object as
// its leading field, so every body self-identifies the snapshot it was
// computed from without every payload type carrying the field.
func WithEpoch(body []byte, epoch uint64) []byte {
	if len(body) < 2 || body[0] != '{' {
		return body
	}
	head := fmt.Sprintf(`{"epoch":%d`, epoch)
	if body[1] != '}' {
		head += ","
	}
	return append([]byte(head), body[1:]...)
}

// encScratch is a pooled JSON encoder + buffer pair: Encode runs per
// cache fill, and marshalling through a pooled buffer means the only
// allocation that survives the call is the returned body itself (which
// must, since it outlives the call inside the response cache).
type encScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	s := &encScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// maxPooledEncBuf caps the scratch buffers the pool retains, so one
// giant delta body cannot pin megabytes behind every P forever.
const maxPooledEncBuf = 1 << 20

// Encode marshals a /v1/* payload into its final body bytes — epoch
// spliced, trailing newline — exactly as the shard cache layer and the
// router both serve it. A marshal failure degrades to the canonical 500
// body, mirroring the serving path's behaviour. The splice and the
// final newline are assembled in one exactly-sized allocation from a
// pooled scratch buffer; the bytes are identical to
// json.Marshal+WithEpoch+newline.
func Encode(status int, payload any, epoch uint64) (int, []byte) {
	s := encPool.Get().(*encScratch)
	s.buf.Reset()
	if err := s.enc.Encode(payload); err != nil {
		encPool.Put(s)
		return http.StatusInternalServerError,
			append(WithEpoch([]byte(`{"error":"encoding failed"}`), epoch), '\n')
	}
	mb := s.buf.Bytes() // marshalled payload + the encoder's trailing newline
	var out []byte
	if body := mb[:len(mb)-1]; len(body) < 2 || body[0] != '{' {
		out = append(make([]byte, 0, len(mb)), mb...)
	} else {
		out = make([]byte, 0, len(`{"epoch":`)+21+len(mb))
		out = append(out, `{"epoch":`...)
		out = strconv.AppendUint(out, epoch, 10)
		if body[1] != '}' {
			out = append(out, ',')
		}
		out = append(out, mb[1:]...)
	}
	if s.buf.Cap() <= maxPooledEncBuf {
		encPool.Put(s)
	}
	return status, out
}

// Respond writes a full /v1/* response — epoch ETag, If-None-Match
// handling, epoch-spliced JSON body — the way a shard's cache layer
// assembles it, so routed bodies are byte-compatible with single-node
// ones. Used by the cluster router for merged and error responses.
func Respond(w http.ResponseWriter, r *http.Request, status int, payload any, epoch uint64) {
	etag := ETagFor(epoch)
	w.Header().Set("ETag", etag)
	if NotModified(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	status, body := Encode(status, payload, epoch)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// Parse24 accepts "a.b.c.0/24" or a bare address inside the block —
// the /v1/block path parameter contract.
func Parse24(raw string) (ipv4.Block, error) {
	if i := strings.IndexByte(raw, '/'); i >= 0 {
		p, err := ipv4.ParsePrefix(raw)
		if err != nil {
			return 0, err
		}
		if p.Bits() != 24 {
			return 0, fmt.Errorf("block endpoint wants a /24, got /%d", p.Bits())
		}
		return p.FirstBlock(), nil
	}
	a, err := ipv4.ParseAddr(raw)
	if err != nil {
		return 0, err
	}
	return a.Block(), nil
}

// ParseASN parses "AS64500" or "64500" — the /v1/as path parameter
// contract. The router shares it (and its error text) so a routed 400
// is byte-identical to a single-node one.
func ParseASN(raw string) (uint32, error) {
	s := strings.TrimPrefix(strings.ToUpper(raw), "AS")
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid ASN %q", raw)
	}
	return uint32(n), nil
}

// ParseEpoch parses a ?epoch= time-travel target; the empty string is
// 0, the live snapshot. Like ParseLast and ParseDeltaSpan below, the
// error's text is the 400 body's, so every tier that rejects a value
// rejects it with the same bytes.
func ParseEpoch(raw string) (uint64, error) {
	if raw == "" {
		return 0, nil
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, errors.New(ErrInvalidEpoch(raw))
	}
	return e, nil
}

// ParseDeltaSpan parses /v1/delta's ?from=E&to=E: both present, both
// integers, from < to.
func ParseDeltaSpan(fromRaw, toRaw string) (from, to uint64, err error) {
	from, errFrom := strconv.ParseUint(fromRaw, 10, 64)
	to, errTo := strconv.ParseUint(toRaw, 10, 64)
	if errFrom != nil || errTo != nil || from >= to {
		return 0, 0, errors.New(ErrDeltaParams(fromRaw, toRaw))
	}
	return from, to, nil
}

// ParseLast parses /v1/movement's optional ?last=N window; the empty
// string is 0, the whole ring.
func ParseLast(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, errors.New(ErrInvalidLast(raw))
	}
	return n, nil
}

// ShardInfo describes the slice of the /24 block space a shard serves:
// its position in the partition and the owned block range [Lo, Hi) as
// raw /24 block numbers (Hi may be 1<<24, one past the last block).
// The cluster router learns the partition by reading every shard's
// /v1/cluster/info, so shards are the single source of truth for who
// owns what. Replica distinguishes processes serving the same range
// under replication; every replica of a range builds a bit-identical
// index (determinism), so Replica is identity for health reporting,
// not a data coordinate. omitempty keeps replica-0 bodies
// byte-identical to the pre-replication wire.
type ShardInfo struct {
	Index   int    `json:"shard"`
	Count   int    `json:"shards"`
	Lo      uint32 `json:"blockLo"`
	Hi      uint32 `json:"blockHi"`
	Replica int    `json:"replica,omitempty"`
}

// ClusterInfo is the /v1/cluster/info body: the shard's partition
// coordinates plus enough state for a router to route and a smoke test
// to probe. RPCAddr, when non-empty, advertises the shard's binary RPC
// endpoint (internal/rpc); a router running -transport=rpc upgrades to
// it, and falls back to HTTP for shards that do not advertise one.
type ClusterInfo struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	ShardInfo
	RPCAddr     string `json:"rpcAddr,omitempty"`
	Blocks      int    `json:"blocks"`
	FirstActive string `json:"firstActive,omitempty"`
	OldestEpoch uint64 `json:"oldestEpoch"`
	NewestEpoch uint64 `json:"newestEpoch"`
}

// Health is the shard server's /v1/healthz body. OldestEpoch/NewestEpoch
// report the retained history ring (equal to Epoch when only the live
// snapshot is retained).
type Health struct {
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	OldestEpoch uint64 `json:"oldestEpoch"`
	NewestEpoch uint64 `json:"newestEpoch"`
	Blocks      int    `json:"blocks"`
	DailyLen    int    `json:"dailyLen"`
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	CacheSize   int    `json:"cacheSize"`
	// AccessLogDrops counts access-log records the bounded async queue
	// discarded instead of stalling requests. omitempty keeps the body
	// byte-identical to the pre-async wire whenever nothing dropped.
	AccessLogDrops uint64     `json:"accessLogDrops,omitempty"`
	Partition      *ShardInfo `json:"partition,omitempty"`
}

// RouterHealth is the cluster router's /v1/healthz body: the aggregate
// verdict plus one entry per replica process (shardStates) and a
// per-range rollup (rangeStates). OldestEpoch/NewestEpoch is the
// cluster-wide common retained range (max over ranges of the range's
// best-replica oldest, min of newests) — the span a time-travel or
// delta query can name and have every range answer. Status is
// "degraded" (503) only when some range has zero healthy replicas;
// individual replica deaths that leave every range covered keep the
// fleet "ok".
type RouterHealth struct {
	Status      string              `json:"status"`
	Epoch       uint64              `json:"epoch"`
	OldestEpoch uint64              `json:"oldestEpoch"`
	NewestEpoch uint64              `json:"newestEpoch"`
	Shards      []RouterShardHealth `json:"shardStates"`
	Ranges      []RouterRangeHealth `json:"rangeStates"`
	// The router's own response cache, under the node's field names
	// (all zero on a router that does not cache).
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	CacheSize   int    `json:"cacheSize"`
}

// RouterShardHealth is one replica process's health as the router
// observed it on this probe. Replica is 0 for the primary copy of a
// range (omitempty keeps R=1 fleets byte-compatible with the
// pre-replication wire).
type RouterShardHealth struct {
	Shard       int    `json:"shard"`
	Replica     int    `json:"replica,omitempty"`
	URL         string `json:"url"`
	Transport   string `json:"transport,omitempty"`
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	OldestEpoch uint64 `json:"oldestEpoch"`
	NewestEpoch uint64 `json:"newestEpoch"`
	Error       string `json:"error,omitempty"`
}

// RouterRangeHealth rolls the replicas of one block range up to the
// unit that matters for availability: a range with at least one
// healthy replica answers, a range with none is what "degraded"
// means.
type RouterRangeHealth struct {
	Shard    int    `json:"shard"`
	Lo       uint32 `json:"blockLo"`
	Hi       uint32 `json:"blockHi"`
	Replicas int    `json:"replicas"`
	Healthy  int    `json:"healthy"`
	Status   string `json:"status"`
}
