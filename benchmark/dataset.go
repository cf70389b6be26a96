package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"ipscope/internal/obs"
	"ipscope/internal/query"
	"ipscope/internal/synthnet"
)

// env is one invocation's working state: where things are, and what
// the run was asked to do.
type env struct {
	root    string // the repository checkout
	out     string // root/benchmark/out: every file the benchmark writes
	logDir  string
	seed    uint64
	seconds float64
	dataset string // the world's dataset file

	buildS, genS float64 // info: go build and ipscope-gen wall time
	procSeq      int
}

func (e *env) bin(name string) string { return filepath.Join(e.out, "bin", name) }

// procName numbers process log files so restarts and repeated set-ups
// never overwrite each other's logs.
func (e *env) procName(base string) string {
	e.procSeq++
	return fmt.Sprintf("%s.%d", base, e.procSeq)
}

// findRoot locates the checkout from the working directory, which is
// benchmark/ under "go run -C benchmark ." and the root otherwise.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ipscope-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside an ipscope checkout (no cmd/ipscope-serve above the working directory)")
		}
		dir = parent
	}
}

// newEnv prepares out/, builds the binaries under test from source and
// makes sure the world's dataset exists.
func newEnv(seed uint64, seconds float64) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "benchmark", "out"), seed: seed, seconds: seconds}
	e.logDir = filepath.Join(e.out, "logs")
	// Logs and checkpoint directories are per invocation.
	for _, dir := range []string{e.logDir, filepath.Join(e.out, "ckpt")} {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	for _, dir := range []string{e.logDir, filepath.Join(e.out, "bin"), filepath.Join(e.out, "data")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}

	// go build is a no-op when the binaries are current, so it runs
	// every time: a stale binary can never be measured.
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", filepath.Join(e.out, "bin")+string(filepath.Separator),
		"./cmd/ipscope-gen", "./cmd/ipscope-serve", "./cmd/ipscope-router")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, outp)
	}
	e.buildS = time.Since(t0).Seconds()

	// One world serves every --seed (see worldSeed): the seed draws the
	// request sequences over it.
	e.dataset = filepath.Join(e.out, "data", "world-"+strconv.Itoa(worldSeed)+".obs")
	if _, err := os.Stat(e.dataset); err != nil {
		t0 = time.Now()
		tmp := e.dataset + ".tmp"
		gen := exec.Command(e.bin("ipscope-gen"), "-seed", strconv.Itoa(worldSeed), "-dataset", tmp)
		if outp, err := gen.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("ipscope-gen: %v\n%s", err, outp)
		}
		if err := os.Rename(tmp, e.dataset); err != nil {
			return nil, err
		}
		e.genS = time.Since(t0).Seconds()
	}
	return e, nil
}

// dataset is the world's observation stream in every form the harness
// needs: raw bytes, decoded events in stream order, the collected
// Data, the regenerated world and the batch index the oracle answers
// from.
type dataset struct {
	raw    []byte
	events []obs.Event
	data   *obs.Data
	world  *synthnet.World
	keys   *keys
	idx    *query.Index
	days   int
}

func loadDataset(path string) (*dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := decodeDataset(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.days <= pacedEnd {
		return nil, fmt.Errorf("%s has %d days; live-ingest needs more than %d", path, d.days, pacedEnd)
	}
	return d, nil
}

func decodeDataset(raw []byte) (*dataset, error) {
	d := &dataset{raw: raw, data: &obs.Data{}}
	collect := obs.SinkFunc(func(e obs.Event) error {
		d.events = append(d.events, e)
		return nil
	})
	if err := obs.StreamDecode(bytes.NewReader(raw), obs.Tee(collect, d.data)); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	d.world = synthnet.Generate(d.data.Meta.World)
	d.keys = worldKeys(d.world)
	d.days = len(d.data.Daily)
	var err error
	if d.idx, err = query.Build(d.data, query.Options{}); err != nil {
		return nil, fmt.Errorf("batch build: %w", err)
	}
	return d, nil
}

// frame is one event's bytes on the wire. day is the DayEvent's index,
// or -1 for every other kind (week, scan, meta, end-of-stream
// aggregates and the end marker), which travel alongside the next day.
type frame struct {
	bytes []byte
	day   int
}

// frames re-encodes the events one at a time to find each frame's
// extent in the stream; the codec is canonical, so the pieces must
// concatenate to the dataset file exactly — checked, and then the
// frames alias raw. tr (optional) records an obs.encode_* span per
// event.
func (d *dataset) frames(tr *recorder) ([]frame, error) {
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	type extent struct{ end, day int }
	ends := make([]extent, 0, len(d.events)+1)
	for _, e := range d.events {
		day, name := -1, "obs.encode_aux"
		if de, ok := e.(obs.DayEvent); ok {
			day, name = de.Index, "obs.encode_day"
		}
		sp := tr.begin(name, noSpan)
		err := w.Observe(e)
		tr.end(sp)
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			return nil, fmt.Errorf("re-encode: %w", err)
		}
		ends = append(ends, extent{buf.Len(), day})
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("re-encode: %w", err)
	}
	ends = append(ends, extent{buf.Len(), -1}) // the end marker
	if !bytes.Equal(buf.Bytes(), d.raw) {
		return nil, fmt.Errorf("re-encoded stream (%d bytes) differs from the dataset (%d bytes): the obs codec is not canonical", buf.Len(), len(d.raw))
	}
	out := make([]frame, len(ends))
	from := 0
	for i, x := range ends {
		out[i] = frame{bytes: d.raw[from:x.end], day: x.day}
		from = x.end
	}
	return out, nil
}
