package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ipscope/internal/cluster"
	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// fleetNode is one replica process of TestFleetResume's fleet: its
// configuration — after the first start, with the addresses it bound —
// and the stream the test writes into, which Ingest reads on its own
// goroutine.
type fleetNode struct {
	cfg      Config
	n        *Node
	stream   *io.PipeWriter
	ingested chan error
}

// start brings the node up on its checkpoint directory: the first time
// on fresh ports, after that at the addresses the first start bound,
// retrying while the kernel has not released them yet — as a supervisor
// restarting the process would.
func (f *fleetNode) start(t *testing.T) {
	t.Helper()
	for try := 0; ; try++ {
		n, err := Start(f.cfg)
		if err == nil {
			f.n = n
			break
		}
		if try == 200 {
			t.Fatalf("start at %s: %v", f.cfg.Listen, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.cfg.Listen, f.cfg.RPCListen = f.n.Addr().String(), f.n.Server().RPCAddr()
}

// feed starts ingesting the stream and writes its first k days; it
// returns once day k is durable.
func (f *fleetNode) feed(t *testing.T, ds *dataset, k int) {
	t.Helper()
	landed := durable(f.n)
	r, w := io.Pipe()
	ingested := make(chan error, 1)
	go func(n *Node) {
		err := n.Ingest(r)
		r.CloseWithError(err) // a write after the node stopped reading fails
		ingested <- err
	}(f.n)
	f.stream, f.ingested = w, ingested
	if _, err := w.Write(ds.stream[:ds.dayEnd[k-1]]); err != nil {
		t.Fatal(err)
	}
	for e := range landed {
		if e == uint64(k) {
			return
		}
	}
}

// finish writes the rest of the stream, from day k+1 to the end frame.
func (f *fleetNode) finish(t *testing.T, ds *dataset, k int) {
	t.Helper()
	if _, err := f.stream.Write(ds.stream[ds.dayEnd[k-1]:]); err != nil {
		t.Fatal(err)
	}
	f.stream.Close()
	f.stream = nil
	if err := <-f.ingested; err != nil {
		t.Fatalf("ingest of the rest of the stream: %v", err)
	}
}

// stop cuts the stream, if it is still open, and shuts the node down.
func (f *fleetNode) stop(t *testing.T) {
	t.Helper()
	if f.stream != nil {
		f.stream.Close()
		f.stream = nil
		<-f.ingested // obs.ErrTruncated: the producer went away
	}
	shutdown(t, f.n)
	f.n = nil
}

// fleetHealth is the router's /v1/healthz in one line: the status code,
// the fleet's status and each range's.
func fleetHealth(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h wire.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprintf("%d %s:", resp.StatusCode, h.Status)
	for _, r := range h.Ranges {
		s += " " + r.Status
	}
	return s
}

// TestFleetResume is the live fleet in process: 2 ranges × 2 replicas,
// each a live node with a checkpoint directory and an RPC listener on
// loopback, behind a router on the RPC transport that does not probe in
// the background, so health moves only with the requests made here.
// Every replica ingests k days. One is shut down — healthz reports its
// range partial — and restarted on its directory at the same HTTP and RPC
// addresses, resuming at day k; healthz re-admits it. The stream runs to
// its end, the restarted replica's sibling goes away, and the routed
// summary and blocks — its range answered by the resumed replica alone —
// byte-equal, epoch aside, a single node over query.Build.
func TestFleetResume(t *testing.T) {
	ds := world(t, 1)
	const ranges, replicas, k = 2, 2, 11
	fleet := make([]*fleetNode, ranges*replicas)
	t.Cleanup(func() {
		for _, f := range fleet {
			if f != nil && f.n != nil {
				f.stop(t)
			}
		}
	})
	urls := make([]string, len(fleet))
	for p := range fleet {
		g, r := cluster.Placement(p, ranges)
		fleet[p] = &fleetNode{cfg: Config{
			Listen: "127.0.0.1:0", RPCListen: "127.0.0.1:0", SnapshotDir: t.TempDir(), SnapshotKeep: 3,
			ShardIndex: g, ShardCount: ranges, Replica: r,
		}}
		fleet[p].start(t)
		fleet[p].feed(t, ds, k)
		urls[p] = "http://" + fleet[p].cfg.Listen
	}
	rt, err := cluster.NewRouter(urls, cluster.RouterOptions{Transport: cluster.TransportRPC, Replicas: replicas, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	defer http.DefaultClient.CloseIdleConnections()
	if got := fleetHealth(t, rts.URL); got != "200 ok: ok ok" {
		t.Fatalf("healthz of the whole fleet: %s", got)
	}

	restarted, sibling := fleet[1], fleet[3] // range 1's two replicas
	restarted.stop(t)
	if got := fleetHealth(t, rts.URL); got != "200 ok: ok partial" {
		t.Fatalf("healthz with a replica of range 1 down: %s, want range 1 partial", got)
	}
	restarted.start(t)
	if got := epoch(restarted.n); got != k {
		t.Fatalf("restarted replica serves epoch %d, want the durable %d", got, k)
	}
	if got := fleetHealth(t, rts.URL); got != "200 ok: ok ok" {
		t.Fatalf("healthz after the restart: %s, want the replica re-admitted", got)
	}

	for _, f := range fleet {
		if f == restarted {
			if err := f.n.Ingest(bytes.NewReader(ds.stream)); err != nil {
				t.Fatalf("restarted replica: ingest of the whole stream: %v", err)
			}
			continue
		}
		f.finish(t, ds, k)
	}
	sibling.stop(t)

	want, _ := ds.reference(t, 0, 0)
	single := httptest.NewServer(serve.New(want, serve.Config{}).Handler())
	defer single.Close()
	blocks := want.Blocks()
	paths := []string{"/v1/summary"}
	for _, i := range []int{0, len(blocks) / 3, 2 * len(blocks) / 3, len(blocks) - 1} {
		paths = append(paths, "/v1/block/"+blocks[i].String())
	}
	for _, p := range paths {
		wantStatus, wantBody := getSpliced(t, single.URL+p)
		if status, body := getSpliced(t, rts.URL+p); status != wantStatus || body != wantBody {
			t.Errorf("%s:\n routed: %d %s\n single: %d %s", p, status, body, wantStatus, wantBody)
		}
	}
}
