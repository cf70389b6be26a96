package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/rpc"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// cutStream returns the length of the emission-order prefix a live
// consumer has seen at the moment day `cut` closed (mirrors the helper
// the query package's applier-equivalence test uses).
func cutStream(events []obs.Event, ref *obs.Data, cut int) int {
	wkKeep, scanKeep := len(ref.Weekly), len(ref.ICMPScans)
	for i, e := range events {
		switch ev := e.(type) {
		case obs.DayEvent:
			if ev.Index >= cut {
				return i
			}
		case obs.WeekEvent:
			if ev.Index >= wkKeep {
				return i
			}
		case obs.ICMPScanEvent:
			if ev.Index >= scanKeep {
				return i
			}
		case obs.BlockStatsEvent, obs.SurfacesEvent:
			return i
		}
	}
	return len(events)
}

// historyCuts are the daily cuts each publish corresponds to: epoch k+1
// serves the dataset as of day historyCuts[k].
var historyCuts = []int{5, 13, 28}

// buildHistoryShards builds an n-shard cluster whose every shard
// publishes one epoch per cut — via per-cut batch builds (epoch-stamped
// with AtEpoch) or via one incremental applier fed the partitioned live
// stream and snapshotted at each cut. retain(i) sets shard i's ring
// capacity.
func buildHistoryShards(t *testing.T, d *obs.Data, events []obs.Event, plan Plan, n int,
	incremental bool, withRPC func(i int) bool, retain func(i int) int) ([]*testShard, []string) {
	t.Helper()
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		opts := query.Options{Keep: plan.Keep(i)}
		lo, hi := plan.Range(i)
		srv := serve.New(nil, serve.Config{
			RetainEpochs: retain(i),
			Shard:        &wire.ShardInfo{Index: i, Count: n, Lo: lo, Hi: hi},
		})
		if incremental {
			a := query.NewApplier(opts)
			sink := PartitionSink(a, i, n, nil)
			fed := 0
			for _, cut := range historyCuts {
				end := cutStream(events, d.TruncateLive(cut), cut)
				for _, e := range events[fed:end] {
					if err := sink.Observe(e); err != nil {
						t.Fatalf("shard %d/%d observe: %v", i, n, err)
					}
				}
				fed = end
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatalf("shard %d/%d snapshot: %v", i, n, err)
				}
				srv.Publish(snap)
			}
		} else {
			for k, cut := range historyCuts {
				idx, err := query.Build(PartitionSource(d.TruncateLive(cut), i, n), opts)
				if err != nil {
					t.Fatalf("shard %d/%d build(cut %d): %v", i, n, cut, err)
				}
				srv.Publish(idx.AtEpoch(uint64(k + 1)))
			}
		}
		sh := &testShard{}
		if withRPC != nil && withRPC(i) {
			sh.rpc = rpc.NewServer(srv, rpc.Options{})
			addr, err := sh.rpc.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("shard %d/%d rpc listen: %v", i, n, err)
			}
			srv.SetRPCAddr(addr.String())
		}
		sh.http = httptest.NewServer(srv.Handler())
		shards[i] = sh
		urls[i] = sh.http.URL
	}
	return shards, urls
}

// historyProbes exercises the whole history surface: delta spans, the
// movement series, as-of lookups at retained epochs, and every
// documented 400/404 rejection (whose bodies must also match).
func historyProbes(x *query.Index) []string {
	blocks := x.Blocks()
	paths := []string{
		"/v1/delta?from=1&to=3",
		"/v1/delta?from=1&to=2",
		"/v1/delta?from=2&to=3",
		"/v1/movement",
		"/v1/movement?last=2",
		"/v1/movement?last=99",
		// Rejections: inverted span, degenerate span, garbage, missing
		// parameter, spans naming unretained epochs (blame from, then to).
		"/v1/delta?from=3&to=1",
		"/v1/delta?from=2&to=2",
		"/v1/delta?from=banana&to=2",
		"/v1/delta?from=1",
		"/v1/delta?from=0&to=2",
		"/v1/delta?from=1&to=99",
		"/v1/movement?last=0",
		"/v1/movement?last=banana",
		// Time travel at both retained epochs, plus the 400/404 edges.
		"/v1/summary?epoch=1",
		"/v1/summary?epoch=2",
		"/v1/summary?epoch=99",
		"/v1/summary?epoch=banana",
	}
	for i := 0; i < len(blocks); i += 5 {
		paths = append(paths,
			"/v1/block/"+blocks[i].String()+"?epoch=1",
			"/v1/addr/"+blocks[i].Addr(7).String()+"?epoch=2")
	}
	for _, asn := range x.ASNs() {
		paths = append(paths, fmt.Sprintf("/v1/as/AS%d?epoch=1", asn))
	}
	paths = append(paths, "/v1/prefix/0.0.0.0/8?epoch=2")
	return paths
}

// histEpochField additionally strips fromEpoch/toEpoch for comparisons
// against the Build-diff reference, whose independently built indexes
// are both stamped epoch 1.
var histEpochField = regexp.MustCompile(`"(from|to)Epoch":\d+,?`)

// TestDeltaEquivalence is the hard invariant of the history subsystem:
// /v1/delta between two retained epochs byte-equals the diff of two
// independent query.Build indexes over the dataset truncated to those
// epochs' days (modulo epoch fields), and every history response —
// delta, movement, as-of lookups, and their 400/404 rejections — is
// byte-identical between a single node publishing through its ring and
// 1-, 2- and 4-shard routed clusters, for Build- and Applier-built
// shards over both the HTTP and RPC transports.
func TestDeltaEquivalence(t *testing.T) {
	d, w := clusterTestData(t)

	// Single-node server: one applier publishing at each cut.
	a := query.NewApplier(query.Options{})
	fed := 0
	srv := serve.New(nil, serve.Config{RetainEpochs: len(historyCuts)})
	var published []*query.Index
	for _, cut := range historyCuts {
		end := cutStream(events, d.TruncateLive(cut), cut)
		for _, e := range events[fed:end] {
			if err := a.Observe(e); err != nil {
				t.Fatal(err)
			}
		}
		fed = end
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		srv.Publish(snap)
		published = append(published, snap)
	}
	single := httptest.NewServer(srv.Handler())
	defer single.Close()
	full := published[len(published)-1]

	// The reference semantics: /v1/delta(from,to) must equal the diff of
	// two INDEPENDENT batch builds over the truncated datasets — history
	// retention may not change what a delta means.
	for _, span := range [][2]int{{0, 2}, {1, 2}, {0, 1}} {
		fromIdx, err := query.Build(d.TruncateLive(historyCuts[span[0]]), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		toIdx, err := query.Build(d.TruncateLive(historyCuts[span[1]]), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refView, err := toIdx.Delta(fromIdx, query.DefaultDeltaBlockList)
		if err != nil {
			t.Fatal(err)
		}
		_, refBody := wire.Encode(http.StatusOK, refView, 0)
		path := fmt.Sprintf("/v1/delta?from=%d&to=%d", span[0]+1, span[1]+1)
		status, body := get(t, single.URL, path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", path, status)
		}
		if got, want := histEpochField.ReplaceAllString(body, ""),
			histEpochField.ReplaceAllString(normalize(refBody), ""); got != want {
			t.Fatalf("%s differs from the Build-diff reference:\n served: %s\n ref:    %s", path, got, want)
		}
	}

	// As-of reference: time travel to epoch k+1 answers what a fresh
	// server over Build(TruncateLive(cut_k)) serves live.
	for k, cut := range historyCuts[:2] {
		refIdx, err := query.Build(d.TruncateLive(cut), query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refSrv := httptest.NewServer(serve.New(refIdx, serve.Config{}).Handler())
		_, refBody := get(t, refSrv.URL, "/v1/summary")
		refSrv.Close()
		_, body := get(t, single.URL, fmt.Sprintf("/v1/summary?epoch=%d", k+1))
		if body != refBody {
			t.Fatalf("summary?epoch=%d differs from Build(TruncateLive(%d)):\n%s\n%s", k+1, cut, body, refBody)
		}
	}

	// Routed equivalence across shard counts, build modes, transports.
	paths := historyProbes(full)
	type answer struct {
		status int
		body   string
	}
	want := make(map[string]answer, len(paths))
	for _, p := range paths {
		status, body := get(t, single.URL, p)
		want[p] = answer{status, body}
	}

	retainAll := func(int) int { return len(historyCuts) }
	for _, n := range []int{1, 2, 4} {
		plan, err := PlanShards(w, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name        string
			incremental bool
		}{{"build", false}, {"applier", true}} {
			for _, transport := range []string{TransportHTTP, TransportRPC} {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", n, mode.name, transport), func(t *testing.T) {
					shards, urls := buildHistoryShards(t, d, events, plan, n, mode.incremental, allRPC, retainAll)
					defer func() {
						for _, s := range shards {
							s.Close()
						}
					}()
					router, err := NewRouter(urls, RouterOptions{Transport: transport})
					if err != nil {
						t.Fatal(err)
					}
					defer router.Close()
					rts := httptest.NewServer(router.Handler())
					defer rts.Close()

					mismatches := 0
					for _, p := range paths {
						status, body := get(t, rts.URL, p)
						if status != want[p].status || body != want[p].body {
							mismatches++
							if mismatches <= 3 {
								t.Errorf("%s:\n routed: %d %s\n single: %d %s",
									p, status, body, want[p].status, want[p].body)
							}
						}
					}
					if mismatches > 0 {
						t.Fatalf("%d of %d history probes differ from single-node", mismatches, len(paths))
					}

					// Router healthz aggregates the cluster-wide common
					// retained range.
					resp, err := http.Get(rts.URL + "/v1/healthz")
					if err != nil {
						t.Fatal(err)
					}
					var rh wire.RouterHealth
					err = json.NewDecoder(resp.Body).Decode(&rh)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					if rh.OldestEpoch != 1 || rh.NewestEpoch != uint64(len(historyCuts)) {
						t.Errorf("router healthz range = %d..%d, want 1..%d",
							rh.OldestEpoch, rh.NewestEpoch, len(historyCuts))
					}
					for _, sh := range rh.Shards {
						if sh.OldestEpoch != 1 || sh.NewestEpoch != uint64(len(historyCuts)) {
							t.Errorf("shard %d healthz range = %d..%d", sh.Shard, sh.OldestEpoch, sh.NewestEpoch)
						}
					}
				})
			}
		}
	}
}

// TestMovementASCount holds /v1/movement's asCount to its definition,
// the number of ASes /v1/as answers with activeBlocks > 0 at that epoch,
// on a node and routed over 2 applier-built shards on RPC. Some epoch
// must leave an AS the index knows dark, or the count would not tell
// active ASes from known ones.
func TestMovementASCount(t *testing.T) {
	d, w := clusterTestData(t)
	a := query.NewApplier(query.Options{})
	srv := serve.New(nil, serve.Config{RetainEpochs: len(historyCuts)})
	var want []int // by epoch, oldest first
	dark := false
	fed := 0
	for _, cut := range historyCuts {
		end := cutStream(events, d.TruncateLive(cut), cut)
		for _, e := range events[fed:end] {
			if err := a.Observe(e); err != nil {
				t.Fatal(err)
			}
		}
		fed = end
		x, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		srv.Publish(x)
		active := 0
		for _, asn := range x.ASNs() {
			if v, _ := x.AS(asn); v.ActiveBlocks > 0 {
				active++
			}
		}
		want = append(want, active)
		dark = dark || active < len(x.ASNs())
	}
	if !dark {
		t.Fatal("every AS the index knows is active at every epoch")
	}
	single := httptest.NewServer(srv.Handler())
	defer single.Close()

	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, urls := buildHistoryShards(t, d, events, plan, 2, true, allRPC, func(int) int { return len(historyCuts) })
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()
	router, err := NewRouter(urls, RouterOptions{Transport: TransportRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	routed := httptest.NewServer(router.Handler())
	defer routed.Close()

	// get strips every "epoch" field, the series rows' too: the rows are
	// matched by position.
	for _, base := range []string{single.URL, routed.URL} {
		status, body := get(t, base, "/v1/movement")
		var v query.MovementView
		if err := json.Unmarshal([]byte(body), &v); status != http.StatusOK || err != nil {
			t.Fatalf("%s/v1/movement: %d %v: %s", base, status, err, body)
		}
		if len(v.Series) != len(historyCuts) {
			t.Fatalf("%s/v1/movement: %d entries, want %d", base, len(v.Series), len(historyCuts))
		}
		for k, e := range v.Series {
			if e.ASCount != want[k] {
				t.Errorf("%s/v1/movement: epoch %d asCount %d, want %d ASes with an active block",
					base, k+1, e.ASCount, want[k])
			}
		}
	}
}

// TestRouterCommonRangeSkew pins the min-common-range coordination when
// shards retain different windows: the cluster answers only the span
// every shard still holds, 404s name that common range, and healthz
// reports it.
func TestRouterCommonRangeSkew(t *testing.T) {
	d, w := clusterTestData(t)
	plan, err := PlanShards(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 retains all three epochs; shard 1 only the newest.
	retain := func(i int) int {
		if i == 0 {
			return len(historyCuts)
		}
		return 1
	}
	for _, transport := range []string{TransportHTTP, TransportRPC} {
		t.Run(transport, func(t *testing.T) {
			shards, urls := buildHistoryShards(t, d, events, plan, 2, false, allRPC, retain)
			defer func() {
				for _, s := range shards {
					s.Close()
				}
			}()
			router, err := NewRouter(urls, RouterOptions{Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			rts := httptest.NewServer(router.Handler())
			defer rts.Close()

			newest := uint64(len(historyCuts))
			// A span shard 1 evicted: 404 naming the COMMON range, not
			// shard 0's wider one.
			status, body := get(t, rts.URL, fmt.Sprintf("/v1/delta?from=%d&to=%d", newest-1, newest))
			if status != http.StatusNotFound {
				t.Fatalf("skewed delta: status %d, want 404", status)
			}
			if want := normalize(wire.NotRetainedBody(newest-1, newest, newest)); body != string(want) {
				t.Errorf("skewed delta body:\n got %s\nwant %s", body, want)
			}
			// As-of at an epoch only shard 0 retains: same common-range 404.
			status, body = get(t, rts.URL, fmt.Sprintf("/v1/summary?epoch=%d", newest-1))
			if status != http.StatusNotFound {
				t.Fatalf("skewed as-of: status %d, want 404", status)
			}
			if want := normalize(wire.NotRetainedBody(newest-1, newest, newest)); body != string(want) {
				t.Errorf("skewed as-of body:\n got %s\nwant %s", body, want)
			}
			// The common span still answers.
			if status, _ := get(t, rts.URL, fmt.Sprintf("/v1/summary?epoch=%d", newest)); status != http.StatusOK {
				t.Errorf("common epoch as-of: status %d, want 200", status)
			}

			// Movement: the merged range collapses to the common span;
			// shard 1's epoch-3 churn base (none) disagrees with shard
			// 0's (epoch 2), so no row survives — documented behaviour.
			var mv query.MovementView
			resp, err := http.Get(rts.URL + "/v1/movement")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&mv)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if mv.OldestEpoch != newest || mv.NewestEpoch != newest || len(mv.Series) != 0 {
				t.Errorf("skewed movement = range %d..%d with %d rows, want %d..%d with 0",
					mv.OldestEpoch, mv.NewestEpoch, len(mv.Series), newest, newest)
			}

			// Healthz: common range, per-shard truth.
			resp, err = http.Get(rts.URL + "/v1/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var rh wire.RouterHealth
			err = json.NewDecoder(resp.Body).Decode(&rh)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rh.OldestEpoch != newest || rh.NewestEpoch != newest {
				t.Errorf("healthz common range = %d..%d, want %d..%d", rh.OldestEpoch, rh.NewestEpoch, newest, newest)
			}
			if rh.Shards[0].OldestEpoch != 1 || rh.Shards[1].OldestEpoch != newest {
				t.Errorf("per-shard ranges = %d.. and %d.., want 1.. and %d..",
					rh.Shards[0].OldestEpoch, rh.Shards[1].OldestEpoch, newest)
			}
		})
	}
}
