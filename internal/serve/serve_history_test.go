package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ipscope/internal/query"
	"ipscope/internal/serve/wire"
)

// rawGet performs a GET and returns the raw response for byte-level
// comparisons (the epoch-addressed cache contract is byte identity).
func rawGet(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// snapshots takes n epoch-advancing snapshots from an applier over the
// fixture dataset.
func snapshots(t *testing.T, n int) []*query.Index {
	t.Helper()
	a := applierOver(t)
	out := make([]*query.Index, n)
	for i := range out {
		s, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestEpochQueryEdges pins the ?epoch= contract at the ring edges: the
// oldest retained epoch answers the very bytes cached when it was
// current (a cache hit, not a recomputation), the epoch just evicted
// and a future epoch answer the documented 404 range body, and garbage
// answers 400.
func TestEpochQueryEdges(t *testing.T) {
	snaps := snapshots(t, 5)
	srv := New(nil, Config{RetainEpochs: 3})
	h := srv.Handler()
	for _, s := range snaps[:3] {
		srv.Publish(s)
	}
	path := "/v1/block/" + snaps[0].Blocks()[0].String()

	// Cache the response while epoch 3 is current.
	live := rawGet(t, h, path, nil)
	if live.Code != http.StatusOK || live.Header().Get("X-Cache") != "miss" {
		t.Fatalf("live request: %d %s", live.Code, live.Header().Get("X-Cache"))
	}
	srv.Publish(snaps[3])
	srv.Publish(snaps[4]) // ring now retains epochs 3..5

	oldest := snaps[2].Epoch()
	asOf := rawGet(t, h, fmt.Sprintf("%s?epoch=%d", path, oldest), nil)
	if asOf.Code != http.StatusOK {
		t.Fatalf("as-of oldest retained: status %d", asOf.Code)
	}
	if asOf.Header().Get("X-Cache") != "hit" {
		t.Errorf("as-of oldest retained: cache %q, want hit (the entry cached when epoch %d was live)",
			asOf.Header().Get("X-Cache"), oldest)
	}
	if !bytes.Equal(asOf.Body.Bytes(), live.Body.Bytes()) {
		t.Errorf("as-of body differs from the live response at that epoch:\n%s\n%s", asOf.Body, live.Body)
	}
	if etag := asOf.Header().Get("ETag"); etag != wire.ETagFor(oldest) {
		t.Errorf("as-of ETag = %q, want %q", etag, wire.ETagFor(oldest))
	}
	// Conditional as-of GET validates against the asked epoch's tag.
	if rec := rawGet(t, h, fmt.Sprintf("%s?epoch=%d", path, oldest),
		map[string]string{"If-None-Match": wire.ETagFor(oldest)}); rec.Code != http.StatusNotModified {
		t.Errorf("as-of conditional GET: status %d, want 304", rec.Code)
	}

	// The epoch just evicted and a future epoch 404 with the range body.
	newest := snaps[4].Epoch()
	for _, e := range []uint64{snaps[1].Epoch(), newest + 37} {
		rec := rawGet(t, h, fmt.Sprintf("%s?epoch=%d", path, e), nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("epoch %d: status %d, want 404", e, rec.Code)
		}
		if want := wire.NotRetainedBody(e, oldest, newest); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("epoch %d body:\n got %s\nwant %s", e, rec.Body, want)
		}
	}

	// Garbage is a 400 with the live epoch spliced.
	rec := rawGet(t, h, path+"?epoch=banana", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage epoch: status %d, want 400", rec.Code)
	}
	_, want := wire.Encode(http.StatusBadRequest,
		wire.ErrorBody{Error: wire.ErrInvalidEpoch("banana")}, newest)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("garbage epoch body:\n got %s\nwant %s", rec.Body, want)
	}
}

// TestPublishEvictsHistoryCache is the regression for the stranded-entry
// wart: entries keyed by epochs the ring evicts are dropped eagerly, so
// the cache footprint is bounded by the retained window no matter how
// many swaps occur.
func TestPublishEvictsHistoryCache(t *testing.T) {
	snaps := snapshots(t, 8)
	srv := New(nil, Config{RetainEpochs: 2})
	h := srv.Handler()
	paths := []string{
		"/v1/block/" + snaps[0].Blocks()[0].String(),
		"/v1/summary",
		"/v1/movement",
	}
	for _, s := range snaps {
		srv.Publish(s)
		for _, p := range paths {
			if rec := rawGet(t, h, p, nil); rec.Code != http.StatusOK {
				t.Fatalf("epoch %d %s: status %d", s.Epoch(), p, rec.Code)
			}
		}
	}
	// Bound: per retained epoch one entry per point path, plus the
	// current ring's movement entry. Without eviction the cache would
	// hold one entry per path per publish (24 here).
	_, _, size := srv.CacheStats()
	if max := 2*len(paths) + 1; size > max {
		t.Errorf("cache holds %d entries after %d publishes, want <= %d (evictions missing)",
			size, len(snaps), max)
	}
	// The retained window still answers from cache.
	oldest := snaps[6].Epoch()
	if rec := rawGet(t, h, fmt.Sprintf("%s?epoch=%d", paths[0], oldest), nil); rec.Code != http.StatusOK ||
		rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("oldest retained epoch: %d %s", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestDeltaEndpoint pins the single-node /v1/delta contract: the body is
// the wire encoding of the query-layer Delta, cached and ETagged by the
// span's epochs, with the documented 400/404 rejections.
func TestDeltaEndpoint(t *testing.T) {
	snaps := snapshots(t, 4)
	srv := New(nil, Config{RetainEpochs: 3})
	h := srv.Handler()
	for _, s := range snaps[:3] {
		srv.Publish(s)
	}
	from, to := snaps[0], snaps[2]
	path := fmt.Sprintf("/v1/delta?from=%d&to=%d", from.Epoch(), to.Epoch())

	rec := rawGet(t, h, path, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("delta: %d %s", rec.Code, rec.Header().Get("X-Cache"))
	}
	v, err := to.Delta(from, query.DefaultDeltaBlockList)
	if err != nil {
		t.Fatal(err)
	}
	_, want := wire.Encode(http.StatusOK, v, to.Epoch())
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("delta body:\n got %s\nwant %s", rec.Body, want)
	}
	if etag := rec.Header().Get("ETag"); etag != wire.ETagFor(to.Epoch()) {
		t.Errorf("delta ETag = %q", etag)
	}
	if rec := rawGet(t, h, path, nil); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("second delta request: cache %q, want hit", rec.Header().Get("X-Cache"))
	}
	if rec := rawGet(t, h, path, map[string]string{"If-None-Match": wire.ETagFor(to.Epoch())}); rec.Code != http.StatusNotModified {
		t.Errorf("conditional delta GET: status %d, want 304", rec.Code)
	}

	// 400s: inverted/degenerate span, garbage, missing parameter — all
	// the shared ErrDeltaParams text.
	for _, q := range []string{
		fmt.Sprintf("from=%d&to=%d", to.Epoch(), from.Epoch()),
		fmt.Sprintf("from=%d&to=%d", from.Epoch(), from.Epoch()),
		"from=banana&to=2",
		fmt.Sprintf("from=%d", from.Epoch()),
	} {
		if rec := rawGet(t, h, "/v1/delta?"+q, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("delta?%s: status %d, want 400", q, rec.Code)
		}
	}

	// Evicting the from epoch turns the span into the documented 404.
	srv.Publish(snaps[3]) // ring 2..4, epoch 1 evicted
	rec = rawGet(t, h, path, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("evicted from-epoch: status %d, want 404", rec.Code)
	}
	if want := wire.NotRetainedBody(from.Epoch(), snaps[1].Epoch(), snaps[3].Epoch()); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("evicted from-epoch body:\n got %s\nwant %s", rec.Body, want)
	}
}

// TestMovementEndpoint pins the single-node /v1/movement contract.
func TestMovementEndpoint(t *testing.T) {
	snaps := snapshots(t, 3)
	srv := New(nil, Config{RetainEpochs: 3})
	h := srv.Handler()
	for _, s := range snaps {
		srv.Publish(s)
	}
	newest := snaps[2].Epoch()

	rec := rawGet(t, h, "/v1/movement", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("movement: status %d", rec.Code)
	}
	v, err := query.MergeMovementPartials([]query.MovementPartial{srv.Window().Movement(0)})
	if err != nil {
		t.Fatal(err)
	}
	_, want := wire.Encode(http.StatusOK, v, newest)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("movement body:\n got %s\nwant %s", rec.Body, want)
	}
	if len(v.Series) != 3 {
		t.Errorf("series has %d entries, want 3", len(v.Series))
	}
	if etag := rec.Header().Get("ETag"); etag != wire.ETagFor(newest) {
		t.Errorf("movement ETag = %q", etag)
	}

	var windowed query.MovementView
	if status, _ := get(t, h, "/v1/movement?last=2", &windowed); status != http.StatusOK {
		t.Fatalf("movement?last=2: status %d", status)
	}
	if len(windowed.Series) != 2 || windowed.Series[0].Epoch != snaps[1].Epoch() {
		t.Errorf("windowed series = %+v", windowed.Series)
	}

	for _, q := range []string{"last=0", "last=-1", "last=banana"} {
		if rec := rawGet(t, h, "/v1/movement?"+q, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("movement?%s: status %d, want 400", q, rec.Code)
		}
	}
}

// TestHistoryWarmingAndHealth: the history endpoints answer the warming
// 503 before the first publish, and healthz + cluster/info report the
// retained range once snapshots land.
func TestHistoryWarmingAndHealth(t *testing.T) {
	srv := New(nil, Config{RetainEpochs: 3})
	h := srv.Handler()
	for _, p := range []string{"/v1/delta?from=1&to=2", "/v1/movement", "/v1/summary?epoch=1"} {
		if rec := rawGet(t, h, p, nil); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("warming %s: status %d, want 503", p, rec.Code)
		}
	}

	snaps := snapshots(t, 4)
	for _, s := range snaps {
		srv.Publish(s)
	}
	oldest, newest := snaps[1].Epoch(), snaps[3].Epoch()
	var hb map[string]any
	if status, _ := get(t, h, "/v1/healthz", &hb); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if hb["oldestEpoch"] != float64(oldest) || hb["newestEpoch"] != float64(newest) {
		t.Errorf("healthz range = %v..%v, want %d..%d", hb["oldestEpoch"], hb["newestEpoch"], oldest, newest)
	}
	var ci map[string]any
	if status, _ := get(t, h, "/v1/cluster/info", &ci); status != http.StatusOK {
		t.Fatalf("cluster/info status %d", status)
	}
	if ci["oldestEpoch"] != float64(oldest) || ci["newestEpoch"] != float64(newest) {
		t.Errorf("cluster/info range = %v..%v, want %d..%d", ci["oldestEpoch"], ci["newestEpoch"], oldest, newest)
	}
}
