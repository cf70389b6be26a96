package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipscope/internal/analysis"
	"ipscope/internal/core"
	"ipscope/internal/ipv4"
	"ipscope/internal/query"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

var (
	fixtureOnce sync.Once
	fixtureCtx  *analysis.Context
	fixtureIdx  *query.Index
)

// fixture builds one tiny world + simulation shared by the serve tests,
// exposing both the batch-analysis view and the compiled index over the
// same dataset.
func fixture(t testing.TB) (*analysis.Context, *query.Index) {
	t.Helper()
	fixtureOnce.Do(func() {
		w := synthnet.Generate(synthnet.TinyConfig())
		res := sim.Run(w, sim.TinyConfig())
		fixtureCtx = analysis.NewContextFromData(w, &res.Data)
		idx, err := query.Build(&res.Data, query.Options{})
		if err != nil {
			panic(err)
		}
		fixtureIdx = idx
	})
	return fixtureCtx, fixtureIdx
}

func get(t *testing.T, h http.Handler, path string, out any) (status int, cache string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec.Code, rec.Header().Get("X-Cache")
}

// TestBlockFieldIdenticalToReport is the cross-check the acceptance
// criteria demand: /v1/block fields must equal the numbers the batch
// report computes from the same dataset (core.FillingDegree/STU and the
// BlockFeatures the demographics figures consume).
func TestBlockFieldIdenticalToReport(t *testing.T) {
	ctx, idx := fixture(t)
	h := New(idx, Config{}).Handler()

	features := map[ipv4.Block]core.BlockFeatures{}
	for _, f := range ctx.BlockFeatures() {
		features[f.Block] = f
	}

	checked := 0
	for i, blk := range idx.Blocks() {
		if i%7 != 0 { // sample the block list, keep the test fast
			continue
		}
		var v query.BlockView
		status, _ := get(t, h, "/v1/block/"+blk.String(), &v)
		if status != http.StatusOK {
			t.Fatalf("GET block %v: status %d", blk, status)
		}
		if want := core.FillingDegree(ctx.Obs.Daily, blk); v.FD != want {
			t.Errorf("%v: fd = %d, report says %d", blk, v.FD, want)
		}
		if want := core.STU(ctx.Obs.Daily, blk); v.STU != want {
			t.Errorf("%v: stu = %v, report says %v", blk, v.STU, want)
		}
		f, ok := features[blk]
		if !ok {
			t.Errorf("%v: not in report's BlockFeatures", blk)
			continue
		}
		if v.TotalHits != f.Traffic {
			t.Errorf("%v: totalHits = %v, report says %v", blk, v.TotalHits, f.Traffic)
		}
		if as := ctx.ASOf(blk); uint32(as) != v.AS {
			t.Errorf("%v: as = %d, report says %d", blk, v.AS, as)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no blocks checked")
	}
}

// TestSummaryFieldIdenticalToReport cross-checks /v1/summary against
// the batch report's Table 1, capture–recapture estimate and Figure 4
// churn numbers over the same dataset.
func TestSummaryFieldIdenticalToReport(t *testing.T) {
	ctx, idx := fixture(t)
	h := New(idx, Config{}).Handler()

	var s query.Summary
	if status, _ := get(t, h, "/v1/summary", &s); status != http.StatusOK {
		t.Fatalf("summary status %d", status)
	}

	tab1 := analysis.Table1(ctx)
	if s.Daily != tab1.Daily {
		t.Errorf("daily summary = %+v, report says %+v", s.Daily, tab1.Daily)
	}
	if s.Weekly != tab1.Weekly {
		t.Errorf("weekly summary = %+v, report says %+v", s.Weekly, tab1.Weekly)
	}

	rec := analysis.RecaptureEstimate(ctx)
	if rec.Err != nil {
		t.Fatalf("fixture recapture: %v", rec.Err)
	}
	if !s.Recapture.Valid {
		t.Fatal("recapture invalid")
	}
	e := rec.Est
	if s.Recapture.N1 != e.N1 || s.Recapture.N2 != e.N2 || s.Recapture.Both != e.Both {
		t.Errorf("recapture inputs = %+v, report says n1=%d n2=%d m=%d", s.Recapture, e.N1, e.N2, e.Both)
	}
	if s.Recapture.Chapman != e.Chapman || s.Recapture.LP != e.LincolnPetersen ||
		s.Recapture.SE != e.SE || s.Recapture.CI95Lo != e.CI95Lo || s.Recapture.CI95Hi != e.CI95Hi {
		t.Errorf("recapture estimate = %+v, report says %+v", s.Recapture, e)
	}

	fig4 := analysis.Figure4(ctx)
	if s.Churn.MeanDailyUpEvents != fig4.MeanUp {
		t.Errorf("meanDailyUpEvents = %v, report says %v", s.Churn.MeanDailyUpEvents, fig4.MeanUp)
	}
	if s.Churn.YearChurnFrac != fig4.YearChurnFrac {
		t.Errorf("yearChurnFrac = %v, report says %v", s.Churn.YearChurnFrac, fig4.YearChurnFrac)
	}
}

func TestEndpoints(t *testing.T) {
	_, idx := fixture(t)
	h := New(idx, Config{}).Handler()
	blk := idx.Blocks()[0]

	t.Run("addr", func(t *testing.T) {
		var v query.AddrView
		status, _ := get(t, h, "/v1/addr/"+blk.Addr(0).String(), &v)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if v.Block != blk.String() {
			t.Errorf("block = %q, want %q", v.Block, blk.String())
		}
		if status, _ := get(t, h, "/v1/addr/not-an-ip", nil); status != http.StatusBadRequest {
			t.Errorf("bad ip: status %d", status)
		}
	})

	t.Run("block", func(t *testing.T) {
		var a, b query.BlockView
		if status, _ := get(t, h, "/v1/block/"+blk.String(), &a); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		// Bare in-block address resolves to the same /24.
		if status, _ := get(t, h, "/v1/block/"+blk.Addr(9).String(), &b); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if a != b {
			t.Error("CIDR and bare-address block lookups differ")
		}
		if status, _ := get(t, h, "/v1/block/10.0.0.0/16", nil); status != http.StatusBadRequest {
			t.Errorf("non-/24: status %d", status)
		}
		if status, _ := get(t, h, "/v1/block/0.0.0.0/24", nil); status != http.StatusNotFound {
			t.Errorf("inactive block: status %d", status)
		}
	})

	t.Run("prefix", func(t *testing.T) {
		var v query.PrefixView
		p := ipv4.MustNewPrefix(blk.First(), 20)
		if status, _ := get(t, h, "/v1/prefix/"+p.String(), &v); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if v.ActiveBlocks == 0 {
			t.Error("no active blocks in covering prefix")
		}
		if status, _ := get(t, h, "/v1/prefix/0.0.0.0/0", nil); status != http.StatusBadRequest {
			t.Errorf("too broad: status %d", status)
		}
	})

	t.Run("as", func(t *testing.T) {
		bv, _ := idx.Block(blk)
		var v query.ASView
		if status, _ := get(t, h, fmt.Sprintf("/v1/as/AS%d", bv.AS), &v); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		var v2 query.ASView
		if status, _ := get(t, h, fmt.Sprintf("/v1/as/%d", bv.AS), &v2); status != http.StatusOK {
			t.Fatalf("bare ASN: status %d", status)
		}
		if v.ActiveBlocks != v2.ActiveBlocks {
			t.Error("AS-prefixed and bare ASN lookups differ")
		}
		if status, _ := get(t, h, "/v1/as/AS99999999", nil); status != http.StatusNotFound {
			t.Errorf("unknown AS: status %d", status)
		}
		if status, _ := get(t, h, "/v1/as/banana", nil); status != http.StatusBadRequest {
			t.Errorf("bad ASN: status %d", status)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		var v map[string]any
		if status, _ := get(t, h, "/v1/healthz", &v); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if v["status"] != "ok" {
			t.Errorf("healthz = %v", v)
		}
	})
}

func TestCacheHeadersAndAccessLog(t *testing.T) {
	_, idx := fixture(t)
	var log bytes.Buffer
	s := New(idx, Config{AccessLog: &log})
	h := s.Handler()
	path := "/v1/block/" + idx.Blocks()[0].String()

	if _, cache := get(t, h, path, nil); cache != "miss" {
		t.Errorf("first request: cache %q, want miss", cache)
	}
	if _, cache := get(t, h, path, nil); cache != "hit" {
		t.Errorf("second request: cache %q, want hit", cache)
	}

	// The log is written asynchronously; flush before reading it.
	s.FlushAccessLog()
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), log.String())
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec["path"] != path || rec["status"] != float64(200) {
			t.Errorf("line %d: %v", i, rec)
		}
	}
}

// applierOver replays the fixture dataset into a fresh query.Applier,
// giving tests a source of epoch-advancing snapshots over the same
// data the static fixture index serves.
func applierOver(t testing.TB) *query.Applier {
	t.Helper()
	ctx, _ := fixture(t)
	a := query.NewApplier(query.Options{})
	if err := ctx.Obs.WriteTo(a); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestETagAndConditionalGet(t *testing.T) {
	_, idx := fixture(t)
	h := New(idx, Config{}).Handler()
	path := "/v1/block/" + idx.Blocks()[0].String()

	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on response")
	}

	for _, inm := range []string{etag, "\"other\", " + etag, "*"} {
		req = httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", inm)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 with a body", inm)
		}
	}

	req = httptest.NewRequest("GET", path, nil)
	req.Header.Set("If-None-Match", `"ips-e999"`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", rec.Code)
	}

	// Healthz must NOT honour conditional GETs: its body (cache
	// counters) changes per request, so an epoch validator would serve
	// stale representations under one tag.
	req = httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz conditional GET: status %d, want 200", rec.Code)
	}
	if rec.Header().Get("ETag") != "" {
		t.Error("healthz serves an ETag over a per-request-mutable body")
	}
}

// TestEpochInEveryBody asserts the satellite contract: every cached
// response body (success and error alike) and healthz carry the
// snapshot epoch.
func TestEpochInEveryBody(t *testing.T) {
	_, idx := fixture(t)
	h := New(idx, Config{}).Handler()
	paths := []string{
		"/v1/block/" + idx.Blocks()[0].String(),
		"/v1/addr/" + idx.Blocks()[0].Addr(0).String(),
		"/v1/prefix/" + ipv4.MustNewPrefix(idx.Blocks()[0].First(), 20).String(),
		fmt.Sprintf("/v1/as/AS%d", func() uint32 { v, _ := idx.Block(idx.Blocks()[0]); return v.AS }()),
		"/v1/summary",
		"/v1/healthz",
		"/v1/addr/not-an-ip",   // 400 error body
		"/v1/block/0.0.0.0/24", // 404 error body
		"/v1/as/AS99999999",    // 404 error body
	}
	for _, path := range paths {
		var body map[string]any
		status, _ := get(t, h, path, nil)
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s (status %d): bad JSON: %v", path, status, err)
		}
		if body["epoch"] != float64(idx.Epoch()) {
			t.Errorf("%s: epoch = %v, want %d", path, body["epoch"], idx.Epoch())
		}
	}
}

func TestWarmingServer(t *testing.T) {
	s := New(nil, Config{})
	h := s.Handler()
	if status, _ := get(t, h, "/v1/summary", nil); status != http.StatusServiceUnavailable {
		t.Errorf("warming lookup: status %d, want 503", status)
	}
	var hb map[string]any
	if status, _ := get(t, h, "/v1/healthz", &hb); status != http.StatusOK {
		t.Errorf("warming healthz: status %d, want 200", status)
	}
	if hb["status"] != "warming" || hb["epoch"] != float64(0) {
		t.Errorf("warming healthz body: %v", hb)
	}

	_, idx := fixture(t)
	s.Publish(idx)
	if status, _ := get(t, h, "/v1/summary", nil); status != http.StatusOK {
		t.Errorf("post-publish lookup: status %d, want 200", status)
	}
}

// TestPublishInvalidatesCache pins the epoch-keyed cache: a swap makes
// the very next request a miss (stale entries are stranded under the
// old epoch key) and the new body carries the new epoch and ETag.
func TestPublishInvalidatesCache(t *testing.T) {
	a := applierOver(t)
	s1, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(s1, Config{})
	h := srv.Handler()
	path := "/v1/block/" + s1.Blocks()[0].String()

	if _, cache := get(t, h, path, nil); cache != "miss" {
		t.Fatalf("first request: cache %q", cache)
	}
	if _, cache := get(t, h, path, nil); cache != "hit" {
		t.Fatalf("second request: cache %q", cache)
	}
	srv.Publish(s2)
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if c := rec.Header().Get("X-Cache"); c != "miss" {
		t.Errorf("post-swap request: cache %q, want miss", c)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["epoch"] != float64(s2.Epoch()) {
		t.Errorf("post-swap epoch = %v, want %d", body["epoch"], s2.Epoch())
	}
	if etag := rec.Header().Get("ETag"); !strings.Contains(etag, fmt.Sprint(s2.Epoch())) {
		t.Errorf("post-swap ETag %q does not carry epoch %d", etag, s2.Epoch())
	}
}

// TestServeAvailableDuringSwaps is the acceptance criterion: under
// concurrent load over real sockets, at least 3 snapshot swaps must
// produce zero 5xx responses and zero connection errors, and once a
// swap lands, responses carry the new epoch.
func TestServeAvailableDuringSwaps(t *testing.T) {
	a := applierOver(t)
	first, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(first, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	base := "http://" + addr.String()
	blocks := first.Blocks()

	var stop atomic.Bool
	var requests, fiveHundreds atomic.Int64
	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; !stop.Load(); i++ {
				path := "/v1/block/" + blocks[(c*31+i)%len(blocks)].String()
				if i%7 == 0 {
					path = "/v1/summary"
				}
				resp, err := client.Get(base + path)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode >= 500 {
					fiveHundreds.Add(1)
				}
			}
		}(c)
	}

	// Publish >= 3 swaps while the load runs.
	var last *query.Index
	for i := 0; i < 3; i++ {
		time.Sleep(30 * time.Millisecond)
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		srv.Publish(snap)
		last = snap
	}
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("client error during swaps: %v", err)
	}
	if n := fiveHundreds.Load(); n > 0 {
		t.Errorf("%d 5xx responses across swaps (of %d requests)", n, requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no requests completed")
	}

	// Post-swap: responses carry the final epoch.
	resp, err := http.Get(base + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["epoch"] != float64(last.Epoch()) {
		t.Errorf("post-swap epoch = %v, want %d", body["epoch"], last.Epoch())
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	_, idx := fixture(t)
	s := New(idx, Config{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String() + "/v1/summary"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// TestListenerClosesSlowHeader is the client that sends half a request
// line and stops: the server must hang up on it once the header bound
// passes instead of holding a goroutine and a descriptor for as long as
// the client cares to stay — on node and router alike, which share the
// Listener.
func TestListenerClosesSlowHeader(t *testing.T) {
	l := &Listener{readHeaderTimeout: 50 * time.Millisecond}
	addr, err := l.Listen("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(context.Background())
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/hea")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the server kept a connection that never finished its header: %v", err)
	}
}
