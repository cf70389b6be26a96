package node

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ipscope/internal/binenc"
	"ipscope/internal/cluster"
	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/serve/wire"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// dataset is one tiny world's observations three ways: in memory (what
// query.Build, the reference, reads), as the byte stream a live
// simulation emits, and as the offsets just past each of that stream's
// day frames, so a test can feed a node exactly the first k days.
type dataset struct {
	data   *obs.Data
	stream []byte
	dayEnd []int // dayEnd[k-1] is just past the k-th day frame
}

var datasets = map[uint64]*dataset{}

// world returns the dataset of seed (28 daily-window days), generated
// once per test binary.
func world(t *testing.T, seed uint64) *dataset {
	t.Helper()
	if ds := datasets[seed]; ds != nil {
		return ds
	}
	wc := synthnet.TinyConfig()
	wc.Seed = seed
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	res, err := sim.RunTo(synthnet.Generate(wc), sim.TinyConfig(), w)
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset{data: &res.Data, stream: buf.Bytes()}
	// The obs framing: an 8-byte stream header, then kind(1) length(4)
	// payload frames; 0x02 is a day frame.
	for off := 8; off < len(ds.stream); {
		kind, n := ds.stream[off], int(binary.BigEndian.Uint32(ds.stream[off+1:]))
		off += 5 + n
		if kind == 0x02 {
			ds.dayEnd = append(ds.dayEnd, off)
		}
	}
	datasets[seed] = ds
	return ds
}

// days returns the stream cut just past its k-th day: a producer that
// died there.
func (ds *dataset) days(k int) io.Reader { return bytes.NewReader(ds.stream[:ds.dayEnd[k-1]]) }

// scribbled returns the whole stream with the payload of its first k
// day frames (all but the 4 index bytes a skip peeks at) overwritten: a
// consumer that decodes any of them fails.
func (ds *dataset) scribbled(k int) io.Reader {
	s := bytes.Clone(ds.stream)
	for off := 8; off < ds.dayEnd[k-1]; {
		kind, n := s[off], int(binary.BigEndian.Uint32(s[off+1:]))
		if kind == 0x02 {
			for i := off + 5 + 4; i < off+5+n; i++ {
				s[i] = 0xFF
			}
		}
		off += 5 + n
	}
	return bytes.NewReader(s)
}

// foreignScribbled returns the whole stream with the payload of every
// block-stats frame of a block keep rejects (all but the 4 block bytes
// the decoder peeks at) overwritten: only a decoder that restricts the
// stream to keep's blocks gets through it.
func (ds *dataset) foreignScribbled(keep func(ipv4.Block) bool) io.Reader {
	s := bytes.Clone(ds.stream)
	for off := 8; off < len(s); {
		kind, n := s[off], int(binary.BigEndian.Uint32(s[off+1:]))
		if kind == 0x05 && !keep(ipv4.Block(binary.BigEndian.Uint32(s[off+5:]))) {
			for i := off + 5 + 4; i < off+5+n; i++ {
				s[i] = 0xFF
			}
		}
		off += 5 + n
	}
	return bytes.NewReader(s)
}

// reference builds the index a node must converge on: query.Build over
// the full dataset, restricted like the node to slice index of count
// (count 0 = unsharded).
func (ds *dataset) reference(t *testing.T, index, count int) (*query.Index, *query.ShardRange) {
	t.Helper()
	if count == 0 {
		x, err := query.Build(ds.data, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return x, nil
	}
	plan, err := cluster.PlanForMeta(ds.data.Meta.World, count)
	if err != nil {
		t.Fatal(err)
	}
	x, err := query.Build(obs.FilterSource(ds.data, plan.Keep(index)), query.Options{Keep: plan.Keep(index)})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := plan.Range(index)
	return x, &query.ShardRange{Index: index, Count: count, Lo: lo, Hi: hi}
}

// sameIndex compares complete index images, epoch aside (a live node
// has published many, Build stamps 1).
func sameIndex(t *testing.T, got, want *query.Index, shard *query.ShardRange) {
	t.Helper()
	if got == nil {
		t.Fatal("nothing published")
	}
	g, w := query.EncodeSnapshot(got.AtEpoch(1), shard), query.EncodeSnapshot(want.AtEpoch(1), shard)
	if !bytes.Equal(g, w) {
		t.Fatalf("served index differs from query.Build over the full dataset (%d vs %d bytes)", len(g), len(w))
	}
}

// logWatch is where the package's log lines go under test; await turns
// one into an event a test can block on.
type logWatch struct {
	mu    sync.Mutex
	text  strings.Builder
	waits map[string]chan struct{}
}

func watchLog(t *testing.T) *logWatch {
	l := &logWatch{waits: map[string]chan struct{}{}}
	log.SetOutput(l)
	t.Cleanup(func() { log.SetOutput(io.Discard) })
	return l
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.text.Write(p)
	for sub, ch := range l.waits {
		if strings.Contains(l.text.String(), sub) {
			close(ch)
			delete(l.waits, sub)
		}
	}
	return len(p), nil
}

// await returns a channel closed once a log line containing sub has
// been written.
func (l *logWatch) await(sub string) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := make(chan struct{})
	if strings.Contains(l.text.String(), sub) {
		close(ch)
	} else {
		l.waits[sub] = ch
	}
	return ch
}

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard)
	os.Exit(m.Run())
}

// start starts a live node on loopback with checkpoints in dir.
func start(t *testing.T, dir string, mod func(*Config)) *Node {
	t.Helper()
	cfg := Config{Listen: "127.0.0.1:0", SnapshotDir: dir, SnapshotKeep: 3}
	if mod != nil {
		mod(&cfg)
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func shutdown(t *testing.T, n *Node) {
	t.Helper()
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// epoch is the epoch the node serves (0 while warming).
func epoch(n *Node) uint64 {
	if x := n.Server().Index(); x != nil {
		return x.Epoch()
	}
	return 0
}

func snapName(e int) string    { return fmt.Sprintf(checkpointPattern, e) }
func journalName(e int) string { return journalPath(snapName(e)) }

// durable makes n's writer report each epoch it has made durable — as an
// image or as a journal record — on the returned channel, which holds a
// whole stream's worth: the writer never waits on the test.
func durable(n *Node) <-chan uint64 {
	landed := make(chan uint64, 64)
	n.ckpt.write = func(cp *query.Checkpoint, path string) (int64, error) {
		size, err := cp.WriteFile(path)
		landed <- cp.Epoch()
		return size, err
	}
	n.ckpt.appendSync = func(f *os.File, rec []byte) error {
		err := writeSync(f, rec)
		landed <- recordEpoch(rec)
		return err
	}
	return landed
}

// resumesAt asserts the epoch a restart on dir would come up at.
func resumesAt(t *testing.T, dir string, want uint64) {
	t.Helper()
	if base, e, err := ResumePoint(dir); err != nil || e != want {
		t.Fatalf("the directory resumes at epoch %d from %q (%v), want epoch %d", e, base, err, want)
	}
}

// noTemps asserts no writer's temp file is left in dir.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	for _, name := range dirNames(t, dir) {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file left behind: %v", dirNames(t, dir))
		}
	}
}

// TestIngestPublishesThenCheckpoints pins the synchronous write path:
// when Ingest returns, the last day it read is published — over the real
// listener — and once Shutdown returns, every checkpointed epoch is
// durable — as a base image or as a record in the journal of the one
// before it — and no temp file is left.
func TestIngestPublishesThenCheckpoints(t *testing.T) {
	ds, dir := world(t, 1), t.TempDir()
	n := start(t, dir, func(c *Config) { c.RPCListen = "127.0.0.1:0" })
	const k = 9
	if err := n.Ingest(ds.days(k)); !errors.Is(err, obs.ErrTruncated) {
		t.Fatalf("Ingest of a stream cut after day %d: %v, want obs.ErrTruncated", k, err)
	}
	if got := epoch(n); got != k {
		t.Fatalf("epoch %d published when Ingest returned, want %d", got, k)
	}
	resp, err := http.Get("http://" + n.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf(`"epoch":%d`, k); !strings.Contains(string(body), want) {
		t.Fatalf("healthz on the bound address: %s, want %s", body, want)
	}
	if n.Server().RPCAddr() == "" {
		t.Fatal("RPC listener bound but not advertised")
	}
	http.DefaultClient.CloseIdleConnections()
	shutdown(t, n)

	resumesAt(t, dir, k)
	noTemps(t, dir)
	bases, _ := ListCheckpoints(dir)
	if len(bases) == 0 || len(bases) > 3 {
		t.Fatalf("base images %v, want 1 to the 3 kept", bases)
	}
	durableEpochs := 0 // nothing was pruned yet: each of epochs 1..k is an image or a record
	for i, base := range bases {
		l, err := query.LoadSnapshotFile(base, query.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j := JournalOf(base, l.Index.Epoch())
		if !l.Resumable() || j.Err != nil || j.Tail != nil {
			t.Fatalf("%s: resumable %v, journal %v, %v", base, l.Resumable(), j.Err, j.Tail)
		}
		if i+1 < len(bases) && filepath.Join(dir, snapName(int(j.Epoch())+1)) != bases[i+1] {
			t.Fatalf("%s and its journal end at epoch %d, the next base image is %s", base, j.Epoch(), bases[i+1])
		}
		durableEpochs += 1 + len(j.Records)
		l.Close()
	}
	if durableEpochs != k {
		t.Fatalf("%d epochs durable as base images and journal records, want each of 1..%d", durableEpochs, k)
	}
}

// TestResumeAfterKill is kill -9 and restart, in process: a node is
// abandoned mid-stream — no shutdown, a writer's temp file left behind —
// and a second node on the same directory removes the temp, serves the
// last durable epoch (the newest base image plus its journal) as soon as
// it has started, ingests the full stream (the days already applied
// skipped undecoded) and ends on exactly the index query.Build gives over
// the full dataset. For a shard, the range comes back from the checkpoint
// and is the one a fresh node plans. The kill lands between two bases —
// older base images and their whole journals are in the directory, the
// newest one's journal is what is replayed — or in the first one's journal.
func TestResumeAfterKill(t *testing.T) {
	ds := world(t, 1)
	if err := obs.StreamDecode(ds.scribbled(11), obs.SinkFunc(func(obs.Event) error { return nil })); err == nil {
		t.Fatal("the scribbled stream decodes: it cannot show that covered days are skipped")
	}
	for _, tc := range []struct {
		name         string
		index, count int
		k, bases     int // killed once day k is durable, with at least this many base images written
	}{{"single", 0, 0, 11, 2}, {"shard0of2", 0, 2, 11, 2}, {"shard1of2", 1, 2, 11, 2}, {"first-journal", 0, 0, 3, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir, k := t.TempDir(), tc.k
			sharded := func(c *Config) { c.ShardIndex, c.ShardCount = tc.index, tc.count }
			want, shard := ds.reference(t, tc.index, tc.count)

			first := start(t, dir, sharded)
			t.Cleanup(func() { first.Shutdown() }) // only so the test leaks nothing
			landed := durable(first)
			if err := first.Ingest(ds.days(k)); !errors.Is(err, obs.ErrTruncated) {
				t.Fatal(err)
			}
			for e := range landed {
				if e == uint64(k) {
					break // the last day is durable: "kill" now
				}
			}
			planned := first.Server().Shard()
			tmp := filepath.Join(dir, snapName(k+1)+".tmp")
			if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			bases, _ := ListCheckpoints(dir)
			if len(bases) < tc.bases || bases[len(bases)-1] == filepath.Join(dir, snapName(k)) {
				t.Fatalf("killed with base images %v, want at least %d and the newest older than epoch %d: the resume must replay a journal", bases, tc.bases, k)
			}

			second := start(t, dir, sharded)
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Errorf("stale temp file survived the restart: %v", err)
			}
			if got := epoch(second); got != uint64(k) {
				t.Fatalf("restarted node serves epoch %d, want the durable %d", got, k)
			}
			if got := second.Server().Shard(); got != planned {
				t.Fatalf("range restored from the checkpoint %+v, a fresh node planned %+v", got, planned)
			}
			if shard != nil && (planned.Lo != shard.Lo || planned.Hi != shard.Hi) {
				t.Fatalf("node planned [%d, %d), the plan says [%d, %d)", planned.Lo, planned.Hi, shard.Lo, shard.Hi)
			}
			if err := second.Ingest(ds.scribbled(k)); err != nil {
				t.Fatalf("ingest of the full stream after resume: %v", err)
			}
			shutdown(t, second)
			sameIndex(t, second.Server().Index(), want, shard)
		})
	}
}

// TestLiveShardDecodesOnlyItsSlice pins that a live shard's decoder
// restricts the stream to the shard's blocks itself, fresh (behind the
// partition plan) and resumed (behind the checkpointed range): fed a
// stream whose other blocks' stats frames are scribbled, both end on the
// reference index, where an unsharded node rejects the stream.
func TestLiveShardDecodesOnlyItsSlice(t *testing.T) {
	ds := world(t, 1)
	plan, err := cluster.PlanForMeta(ds.data.Meta.World, 2)
	if err != nil {
		t.Fatal(err)
	}
	var fe *binenc.Error
	if err := obs.StreamDecode(ds.foreignScribbled(plan.Keep(0)), obs.SinkFunc(func(obs.Event) error { return nil })); !errors.As(err, &fe) {
		t.Fatalf("the scribbled stream decodes unrestricted (%v): it cannot show that foreign frames are skipped", err)
	}
	for index := range 2 {
		t.Run(fmt.Sprintf("shard%dof2", index), func(t *testing.T) {
			dir := t.TempDir()
			want, shard := ds.reference(t, index, 2)
			sharded := func(c *Config) { c.ShardIndex, c.ShardCount = index, 2 }
			for _, phase := range []string{"fresh", "resumed"} {
				n := start(t, dir, sharded)
				if resumed := n.resumedFrom != ""; resumed != (phase == "resumed") {
					t.Fatalf("%s shard: resumed from a checkpoint: %v", phase, resumed)
				}
				if err := n.Ingest(ds.foreignScribbled(plan.Keep(index))); err != nil {
					t.Fatalf("%s shard: %v", phase, err)
				}
				shutdown(t, n)
				sameIndex(t, n.Server().Index(), want, shard)
			}
		})
	}
}

// TestResumeFallsBackPastCorruptCheckpoint pins that a torn or
// bit-flipped newest base image costs the epochs journaled to it, not the
// restart: the node comes up from the next older base and its journal.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	ds, dir := world(t, 1), t.TempDir()
	const k = 17
	first := start(t, dir, nil)
	if err := first.Ingest(ds.days(k)); !errors.Is(err, obs.ErrTruncated) {
		t.Fatal(err)
	}
	shutdown(t, first)
	bases, _ := ListCheckpoints(dir)
	if len(bases) < 2 {
		t.Fatalf("base images %v after %d days, want an older one to fall back to", bases, k)
	}
	newest := bases[len(bases)-1]
	var rebased uint64 // the newest base's epoch: the older one's journal ends just before it
	fmt.Sscanf(filepath.Base(newest), checkpointPattern, &rebased)
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	second := start(t, dir, nil)
	if got := epoch(second); got != rebased-1 {
		t.Fatalf("resumed at epoch %d, want %d (the older base and its whole journal)", got, rebased-1)
	}
	if err := second.Ingest(bytes.NewReader(ds.stream)); err != nil {
		t.Fatal(err)
	}
	shutdown(t, second)
	want, _ := ds.reference(t, 0, 0)
	sameIndex(t, second.Server().Index(), want, nil)
}

// TestResumeRejectsAnotherDataset is the splice a restart on a stale
// snapshot directory used to serve: a node resumed from dataset A's
// checkpoint and fed dataset B (same geometry, another seed) must fail
// with the typed error before anything is applied — nothing published
// or checkpointed past A's epoch, and in shard mode no range re-planned
// from B's world.
func TestResumeRejectsAnotherDataset(t *testing.T) {
	a, b := world(t, 1), world(t, 2)
	const k = 10
	for _, count := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) {
			dir := t.TempDir()
			sharded := func(c *Config) { c.ShardIndex, c.ShardCount = 0, count }
			first := start(t, dir, sharded)
			if err := first.Ingest(a.days(k)); !errors.Is(err, obs.ErrTruncated) {
				t.Fatal(err)
			}
			shutdown(t, first)
			files := dirNames(t, dir)

			second := start(t, dir, sharded)
			planned := second.Server().Shard()
			err := second.Ingest(bytes.NewReader(b.stream))
			var mismatch *DatasetMismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("ingest of another dataset's stream: %v, want *DatasetMismatchError", err)
			}
			if mismatch.Checkpointed.World.Seed != 1 || mismatch.Feed.World.Seed != 2 {
				t.Errorf("error names seeds %d and %d, want 1 and 2", mismatch.Checkpointed.World.Seed, mismatch.Feed.World.Seed)
			}
			shutdown(t, second)
			if got := epoch(second); got != k {
				t.Errorf("epoch %d served after the rejected stream, want the checkpointed %d", got, k)
			}
			if got := second.Server().Shard(); got != planned {
				t.Errorf("range re-planned from the rejected stream: %+v, was %+v", got, planned)
			}
			if got := dirNames(t, dir); !slices.Equal(got, files) {
				t.Errorf("checkpoints after the rejected stream %v, before %v", got, files)
			}

			// The same stream with only the producer's worker count
			// changed is the same dataset.
			third := start(t, dir, sharded)
			defer third.Shutdown()
			me := obs.MetaEvent{Meta: a.data.Meta}
			me.Meta.Run.Workers = 7
			if err := third.observe(me); err != nil {
				t.Errorf("meta differing only in Run.Workers rejected: %v", err)
			}
		})
	}
}

// waitGoroutines spins until the process is back to want goroutines —
// ones that were told to stop and are on their way out — and fails if
// it never gets there.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestShutdownWaitsForWriteInFlight is SIGTERM mid-flood: the stream is
// cancelled while a checkpoint write is in flight (a journal append, held
// open by the hook) and ingest is racing ahead of it. Run must not return
// until that write — and any submitted after it — has landed: the
// directory resumes at the last epoch submitted, no temp file remains,
// and no goroutine outlives the node.
func TestShutdownWaitsForWriteInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	ds, dir := world(t, 1), t.TempDir()
	n := start(t, dir, func(c *Config) { c.ObsListen = "127.0.0.1:0" })

	var lg eventLog
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var last uint64 // writer goroutine only; read after Run returns
	n.ckpt.write = func(cp *query.Checkpoint, path string) (int64, error) {
		last = cp.Epoch()
		size, err := cp.WriteFile(path)
		lg.add("write %d landed", last)
		return size, err
	}
	n.ckpt.appendSync = func(f *os.File, rec []byte) error {
		last = recordEpoch(rec)
		if last == 2 {
			close(inFlight)
			<-release
		}
		err := writeSync(f, rec)
		lg.add("write %d landed", last)
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() {
		err := n.Run(ctx)
		lg.add("run returned")
		ran <- err
	}()
	conn, err := net.Dial("tcp", n.obsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		conn.Write(ds.stream) // fails part-way once the node hangs up
	}()

	<-inFlight // epoch 2's write is blocked; ingest is applying day 3
	cancel()
	select {
	case err := <-ran:
		t.Fatalf("Run returned (%v) with a checkpoint write in flight", err)
	default:
	}
	close(release)
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	conn.Close()
	<-fed

	if i := lg.index(fmt.Sprintf("write %d landed", last)); i < 0 || i > lg.index("run returned") {
		t.Fatalf("Run returned before the last submitted checkpoint (epoch %d) landed: %v", last, lg.events)
	}
	resumesAt(t, dir, last)
	noTemps(t, dir)
	waitGoroutines(t, before)
}

// TestStreamDies pins what Run does when the producer goes away: after
// something was published the node keeps serving it until cancelled;
// before, there is nothing to serve and Run fails.
func TestStreamDies(t *testing.T) {
	ds := world(t, 1)
	feed := func(t *testing.T, n *Node, stream []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", n.obsLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}

	t.Run("after an epoch", func(t *testing.T) {
		before := runtime.NumGoroutine()
		lw := watchLog(t)
		n := start(t, "", func(c *Config) { c.ObsListen = "127.0.0.1:0" })
		ctx, cancel := context.WithCancel(context.Background())
		ran := make(chan error, 1)
		go func() { ran <- n.Run(ctx) }()
		feed(t, n, ds.stream[:ds.dayEnd[4]])
		<-lw.await("continuing to serve epoch 5 until signalled")
		select {
		case err := <-ran:
			t.Fatalf("Run returned (%v) though epoch 5 can be served", err)
		default:
		}
		if got := epoch(n); got != 5 {
			t.Fatalf("serving epoch %d, want 5", got)
		}
		cancel()
		if err := <-ran; err != nil {
			t.Fatalf("Run after cancel: %v", err)
		}
		waitGoroutines(t, before)
	})

	t.Run("before any epoch", func(t *testing.T) {
		before := runtime.NumGoroutine()
		n := start(t, "", func(c *Config) { c.ObsListen = "127.0.0.1:0" })
		ran := make(chan error, 1)
		go func() { ran <- n.Run(context.Background()) }()
		feed(t, n, ds.stream[:ds.dayEnd[0]-1]) // day 1's frame is cut short
		err := <-ran
		if err == nil || !strings.Contains(err.Error(), "before any snapshot was published") {
			t.Fatalf("Run = %v, want the nothing-to-serve error", err)
		}
		waitGoroutines(t, before)
	})
}

// TestRunCompleteStream drives the whole live path the way the binary
// does — accept one connection, ingest it to its end frame — and pins
// the final epoch against query.Build, and that the goroutines watching
// the context are gone with the stream.
func TestRunCompleteStream(t *testing.T) {
	before := runtime.NumGoroutine()
	ds := world(t, 1)
	lw := watchLog(t)
	n := start(t, "", func(c *Config) { c.ObsListen = "127.0.0.1:0" })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- n.Run(ctx) }()
	conn, err := net.Dial("tcp", n.obsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ds.stream); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	<-lw.await("stream complete; serving final epoch")
	// Serving, stream over: all that is left are the node's listeners
	// (HTTP accept loop) and Run itself.
	waitGoroutines(t, before+2)
	want, _ := ds.reference(t, 0, 0)
	sameIndex(t, n.Server().Index(), want, nil)
	cancel()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// probe is what a client sees of n, asked over its real listener and
// checked against the index it serves: every lookup endpoint, healthz,
// and the cluster plane — the advertised range must contain every
// indexed block and the mergeable summary partial must finalize to the
// served summary. Targets come from the index, so a shard is only asked
// about blocks it owns.
func probe(t *testing.T, n *Node) {
	t.Helper()
	defer http.DefaultClient.CloseIdleConnections()
	idx := n.Server().Index()
	get := func(path string, out any) http.Header {
		t.Helper()
		resp, err := http.Get("http://" + n.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: %v: %s", path, err, body)
		}
		return resp.Header
	}

	if idx.NumBlocks() == 0 {
		t.Fatal("index has no blocks")
	}
	blk := idx.Blocks()[idx.NumBlocks()/2]
	want, _ := idx.Block(blk)
	var gotBlock query.BlockView
	if get("/v1/block/"+blk.String(), &gotBlock); gotBlock != want {
		t.Errorf("/v1/block/%v = %+v, index says %+v", blk, gotBlock, want)
	}
	if h := get("/v1/block/"+blk.String(), &gotBlock); h.Get("X-Cache") != "hit" {
		t.Errorf("second /v1/block/%v: X-Cache %q, want hit", blk, h.Get("X-Cache"))
	}
	var gotAddr query.AddrView
	if get("/v1/addr/"+blk.Addr(0).String(), &gotAddr); gotAddr != idx.Addr(blk.Addr(0)) {
		t.Errorf("/v1/addr/%v = %+v, index says %+v", blk.Addr(0), gotAddr, idx.Addr(blk.Addr(0)))
	}
	var gotPrefix query.PrefixView
	pfx := ipv4.MustNewPrefix(blk.First(), 20)
	if get("/v1/prefix/"+pfx.String(), &gotPrefix); gotPrefix.ActiveBlocks == 0 {
		t.Errorf("/v1/prefix/%v reports no active blocks", pfx)
	}
	var gotAS query.ASView
	if get(fmt.Sprintf("/v1/as/AS%d", want.AS), &gotAS); gotAS.ActiveBlocks == 0 {
		t.Errorf("/v1/as/AS%d reports no active blocks", want.AS)
	}
	var gotSummary query.Summary
	if get("/v1/summary", &gotSummary); gotSummary != idx.Summary() {
		t.Errorf("/v1/summary = %+v, index says %+v", gotSummary, idx.Summary())
	}
	var health wire.Health
	if get("/v1/healthz", &health); health.Status != "ok" || health.Epoch != idx.Epoch() {
		t.Errorf("/v1/healthz = %+v, want ok at epoch %d", health, idx.Epoch())
	}

	shard := n.Server().Shard()
	var info wire.ShardInfo
	if get("/v1/cluster/info", &info); info != shard {
		t.Errorf("/v1/cluster/info = %+v, server says %+v", info, shard)
	}
	for _, b := range idx.Blocks() {
		if uint32(b) < shard.Lo || uint32(b) >= shard.Hi {
			t.Fatalf("indexed block %v outside the advertised range [%d, %d)", b, shard.Lo, shard.Hi)
		}
	}
	var partial query.SummaryPartial
	if get("/v1/cluster/summary", &partial); partial.Finalize() != idx.Summary() {
		t.Errorf("/v1/cluster/summary finalizes to %+v, index says %+v", partial.Finalize(), idx.Summary())
	}
}

// epochSplice is the epoch field every served body carries: two
// processes at different epochs, or a node and its summary dump, agree on
// the rest of the bytes.
var epochSplice = regexp.MustCompile(`"epoch":\d+,?`)

// getSpliced GETs url and returns the status and the body with its epoch
// field removed.
func getSpliced(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, epochSplice.ReplaceAllString(string(body), "")
}

// TestServeBatch pins the batch node: Start over a dataset file —
// unsharded, and one shard of two decoding only its slice — and over the
// snapshot that shard saved serves, at epoch 1, exactly the index
// query.Build gives over the reference dataset, with its partition
// identity advertised, behind the same listeners and the same shutdown
// as a live node. Its /v1/summary is, epoch aside, byte for byte what
// DumpSummary (ipscope-serve -dump-summary) prints for the same Config.
func TestServeBatch(t *testing.T) {
	ds, dir := world(t, 1), t.TempDir()
	file, saved := filepath.Join(dir, "world.obs"), filepath.Join(dir, "shard1.ipsnap")
	if err := os.WriteFile(file, ds.stream, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		cfg          Config
		index, count int // the reference's slice
	}{
		{"unsharded", Config{Dataset: file}, 0, 0},
		{"shard1of2", Config{Dataset: file, ShardIndex: 1, ShardCount: 2, Replica: 3, SnapshotSave: saved}, 1, 2},
		{"snapshot-loaded", Config{SnapshotLoad: saved, Replica: 3}, 1, 2}, // what shard1of2 saved
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, shard := ds.reference(t, tc.index, tc.count)
			tc.cfg.Listen, tc.cfg.RPCListen = "127.0.0.1:0", "127.0.0.1:0"
			n, err := Start(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := epoch(n); got != 1 {
				t.Errorf("serving epoch %d, want 1", got)
			}
			sameIndex(t, n.Server().Index(), want, shard)
			if shard != nil {
				wantInfo := wire.ShardInfo{Index: shard.Index, Count: shard.Count, Lo: shard.Lo, Hi: shard.Hi, Replica: 3}
				if si := n.Server().Shard(); si != wantInfo {
					t.Errorf("advertised %+v, want %+v", si, wantInfo)
				}
			}
			probe(t, n)
			var dump bytes.Buffer
			if err := DumpSummary(tc.cfg, &dump); err != nil {
				t.Fatal(err)
			}
			if _, got := getSpliced(t, "http://"+n.Addr().String()+"/v1/summary"); got != dump.String() {
				t.Errorf("/v1/summary, epoch aside:\n%s\nthe summary dump:\n%s", got, dump.String())
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := n.Run(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShutdownClosesRPCAfterFailedDrain holds an HTTP request in flight
// (its request line half sent) past the drain bound: Shutdown reports
// the failed drain, and has still closed the RPC listener and the
// connection open on it.
func TestShutdownClosesRPCAfterFailedDrain(t *testing.T) {
	n := start(t, "", func(c *Config) { c.RPCListen = "127.0.0.1:0" })
	n.drain = 20 * time.Millisecond
	held, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if _, err := held.Write([]byte("GET /v1/hea")); err != nil {
		t.Fatal(err)
	}
	// The server accepts connections in the order they arrive, so once a
	// request on a second connection is answered the held one has been
	// accepted, and Shutdown has it to wait for.
	getSpliced(t, "http://"+n.Addr().String()+"/v1/healthz")
	rpcConn, err := net.Dial("tcp", n.Server().RPCAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rpcConn.Close()

	if err := n.Shutdown(); err == nil || !strings.Contains(err.Error(), "shutdown: context deadline exceeded") {
		t.Fatalf("Shutdown with a request in flight past the drain bound: %v, want the drain's deadline error", err)
	}
	rpcConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rpcConn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read on the RPC connection after Shutdown: %v, want it closed by the server", err)
	}
	if c, err := net.Dial("tcp", n.Server().RPCAddr()); err == nil {
		c.Close()
		t.Error("the RPC listener still accepts connections after Shutdown")
	}
}
