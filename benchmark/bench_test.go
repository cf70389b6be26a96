package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// These tests spawn no process and finish in well under five seconds:
// they pin the parts of the harness a number's meaning rests on —
// sequence determinism, the reductions, span self time, and the
// agreement between BENCHMARK.json and what the program emits.

func tinyKeys() *keys { return worldKeys(synthnet.Generate(synthnet.TinyConfig())) }

func TestSequencesAreDeterministic(t *testing.T) {
	k := tinyKeys()
	seen := map[string]string{}
	for _, w := range workloads {
		a := genSequence(w.Name, 3, k, 4096)
		b := genSequence(w.Name, 3, k, 4096)
		c := genSequence(w.Name, 4, k, 4096)
		if a.hash != b.hash {
			t.Errorf("%s: same seed gave hashes %s and %s", w.Name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 3 and 4 gave the same hash %s", w.Name, a.hash)
		}
		if other, dup := seen[a.hash]; dup {
			t.Errorf("%s and %s share sequence hash %s", w.Name, other, a.hash)
		}
		seen[a.hash] = w.Name
		if len(a.reqs) != 4096 {
			t.Errorf("%s: %d requests, want 4096", w.Name, len(a.reqs))
		}
	}
}

func TestSequenceShapes(t *testing.T) {
	k := tinyKeys()
	share := func(s *sequence, c class) float64 {
		n := 0
		for _, r := range s.reqs {
			if r.class == c {
				n++
			}
		}
		return float64(n) / float64(len(s.reqs))
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s = %.3f, want about %.2f", name, got, want)
		}
	}

	hot := genSequence("hot-read", 3, k, 1<<15)
	if len(hot.universe) == 0 || len(hot.universe) > hotURLs {
		t.Fatalf("hot-read universe has %d URLs, want 1..%d", len(hot.universe), hotURLs)
	}
	in := map[string]bool{}
	for _, r := range hot.universe {
		if in[r.path] {
			t.Errorf("hot-read universe repeats %s", r.path)
		}
		in[r.path] = true
	}
	for _, r := range hot.reqs {
		if !in[r.path] {
			t.Fatalf("hot-read requests %s, which is outside its universe", r.path)
		}
	}
	near("hot-read addr share", share(hot, clAddr), 0.45)
	near("hot-read movement share", share(hot, clMovement), 0.02)

	cold := genSequence("cold-read", 3, k, 1<<15)
	near("cold-read addr share", share(cold, clAddr), 0.55)
	near("cold-read as share", share(cold, clAS), 0.08)
	if share(cold, clSummary)+share(cold, clMovement)+share(cold, clDelta) != 0 {
		t.Error("cold-read has classes outside its blend")
	}

	live := genSequence("live-ingest", 3, k, 1<<15)
	near("live-ingest delta share", share(live, clDelta), 0.02)
	pinned := 0
	for _, r := range live.reqs {
		if r.pin >= 0 {
			pinned++
			if int(r.pin) >= retainEpochs-pinMargin {
				t.Fatalf("pin %d reaches into the eviction margin", r.pin)
			}
		}
	}
	near("live-ingest pinned share", float64(pinned)/float64(len(live.reqs)), 0.10)
}

func TestLiveURL(t *testing.T) {
	for _, c := range []struct {
		r      request
		newest uint64
		want   string
	}{
		{request{clBlock, "/v1/block/1.2.3.0/24", -1}, 40, "/v1/block/1.2.3.0/24"},
		{request{clBlock, "/v1/block/1.2.3.0/24", 0}, 40, "/v1/block/1.2.3.0/24?epoch=40"},
		{request{clAS, "/v1/as/AS7", 5}, 40, "/v1/as/AS7?epoch=35"},
		{request{clAS, "/v1/as/AS7", 5}, 5, "/v1/as/AS7"},
		{request{clDelta, "/v1/delta", -1}, 40, "/v1/delta?from=39&to=40"},
		{request{clDelta, "/v1/delta", -1}, 1, "/v1/summary"},
	} {
		if got := liveURL(c.r, c.newest); got != c.want {
			t.Errorf("liveURL(%+v, %d) = %s, want %s", c.r, c.newest, got, c.want)
		}
	}
	if e, ok := etagEpoch(`"ips-e113"`); !ok || e != 113 {
		t.Errorf(`etagEpoch("ips-e113") = %d, %v`, e, ok)
	}
	if _, ok := etagEpoch(`"other"`); ok {
		t.Error("etagEpoch accepted a foreign ETag")
	}
}

func TestReductions(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("no samples must reduce to NaN, not to a fast-looking zero")
	}
	// Median of passes: the middle pass wins, whatever the order.
	if got := median([]float64{0.47, 0.11, 0.30}); got != 0.30 {
		t.Errorf("median of three passes = %v, want 0.30", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 12, 11, 30], n=4) == [10.25, 11.5, 25.5]
	if q1, q3 := quartiles([]float64{10, 12, 11, 30}); q1 != 10.25 || q3 != 25.5 {
		t.Errorf("quartiles = %v, %v, want 10.25, 25.5", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("spread of three = %v, want the range over the median, 0.2", got)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// A fleet that takes 1.5x the reference in every cycle reads 1.5x the
	// nominal value, whether the host ran a cycle at speed, at half
	// speed, or stalled in one of them.
	ref := []float64{0.040, 0.080, 0.040, 0.060, 0.400}
	fleet := []float64{0.060, 0.120, 0.060, 0.090, 0.100}
	if got, want := atReferenceSpeed(0.040, fleet, ref), 0.060; math.Abs(got-want) > 1e-12 {
		t.Errorf("atReferenceSpeed = %v, want %v", got, want)
	}
	// A rate scales the other way round by the same rule: half the
	// reference's rate is half the nominal rate.
	if got := atReferenceSpeed(22000, []float64{5000, 10000, 7000}, []float64{10000, 20000, 14000}); got != 11000 {
		t.Errorf("atReferenceSpeed of a rate = %v, want 11000", got)
	}
	if !math.IsNaN(atReferenceSpeed(1, nil, nil)) {
		t.Error("no cycles must reduce to NaN")
	}
	var m cpuMask
	if m.last() != -1 {
		t.Error("an empty CPU mask has no last CPU")
	}
	m[0], m[1] = 0b101, 0b10
	if m.last() != 65 {
		t.Errorf("last CPU of {0,2,65} = %d", m.last())
	}
	if a, b := computeReference(), computeReference(); a <= 0 || b <= 0 {
		t.Errorf("computeReference took %v and %v ms", a, b)
	}
}

func TestRunClosedWalksTheSequence(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.URL.Path)
		w.Write(referenceBody) //nolint:errcheck
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	reqs := []request{{clAddr, "/a", -1}, {clAS, "/b", -1}, {clBlock, "/c", -1}}
	st := runClosed(c, srv.URL, reqs, 2, 1, 4, 0, 2)
	if want := "/c /a /b /c"; strings.Join(got, " ") != want {
		t.Errorf("requests %v, want %s", got, want)
	}
	if st.next != 6 || st.ok != 4 || st.failed != 0 || len(st.point) != 3 || len(st.agg) != 1 {
		t.Errorf("next %d ok %d failed %d point %d agg %d", st.next, st.ok, st.failed, len(st.point), len(st.agg))
	}
	// Sequence positions 2 and 4 are kept for the oracle.
	if len(st.samples) != 2 || st.samples[0].url != "/c" || st.samples[1].url != "/b" {
		t.Errorf("kept %+v", st.samples)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] with children [10,30] and [40,70]; the second has a
	// grandchild [45,50] and an overlapping sibling [65,90] whose
	// overlap must not be counted twice.
	t0 := time.Unix(0, 0)
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	r := &recorder{t0: t0}
	span := func(name string, parent spanID, from, to int64) spanID {
		id := r.open(name, parent, at(from))
		r.spans[id].End = to
		return id
	}
	root := span("root", noSpan, 0, 100)
	span("a", root, 10, 30)
	b := span("b", root, 40, 70)
	span("b1", b, 45, 50)
	span("c", root, 65, 90)
	other := span("other", noSpan, 200, 260)
	r.finish()
	want := map[string]int64{"root": 100 - 20 - 30 - 20, "a": 20, "b": 25, "b1": 5, "c": 25, "other": 60}
	for _, s := range r.spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	if r.spans[b].Trace != r.spans[root].Trace || r.spans[other].Trace == r.spans[root].Trace {
		t.Error("children must share their root's trace id, and roots must not")
	}
	if d := r.durations("b"); len(d) != 1 || d[0] != 30 {
		t.Errorf("durations(b) = %v, want [30]", d)
	}
	var none *recorder
	if id := none.begin("x", noSpan); id != noSpan {
		t.Error("a nil recorder must hand out noSpan")
	}
	none.end(noSpan)
}

func TestFramesTileTheStream(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	if _, err := sim.RunTo(synthnet.Generate(synthnet.TinyConfig()), sim.TinyConfig(), w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := decodeDataset(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tr := newRecorder()
	frames, err := ds.frames(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(ds.events)+1 {
		t.Fatalf("%d frames for %d events and an end marker", len(frames), len(ds.events))
	}
	if got := len(tr.durations("obs.encode_day")); got != ds.days {
		t.Errorf("%d obs.encode_day spans, want one per day (%d)", got, ds.days)
	}
	preamble, byDay, err := batches(frames, ds.days)
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	for _, b := range append([]batch{preamble}, byDay...) {
		for _, p := range b {
			joined = append(joined, p...)
		}
	}
	if !bytes.Equal(joined, ds.raw) {
		t.Fatal("preamble + per-day batches do not concatenate to the stream")
	}
	if len(preamble) == 0 {
		t.Error("the meta frame must travel before day 0")
	}
	lastDay := 0
	for i, f := range frames {
		if f.day >= 0 {
			lastDay = i
		}
	}
	if _, _, err := batches(frames[:lastDay], ds.days); err == nil {
		t.Error("batches accepted a stream with its last day missing")
	}
}

// benchmarkJSON mirrors BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) {
			t.Errorf("workload %s breaks the contract's limits", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program emits %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s breaks the contract's limits", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program emits %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		g := b.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %s breaks the contract's limits", m.Name)
		}
		seen[m.Name] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d / paths %v", b.RunSeconds, b.Paths)
	}
}

func TestDriverLine(t *testing.T) {
	res := newResult("hot-read")
	res.Attempted, res.Failed = 10, 0
	for _, m := range endToEnd {
		res.E2E[m.Name] = 1.5
	}
	line, err := driverLine(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || len(got.Metrics) != len(endToEnd) || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("unexpected result line: %s", line)
	}
	res.E2E["agg_p50_ms"] = math.NaN()
	if _, err := driverLine(res, nil); err == nil {
		t.Error("a metric without a value must be an error, not a number")
	}
	layers := map[string]float64{}
	for _, m := range perLayer {
		layers[m.Name] = 2
	}
	res.problem("made up")
	line, err = driverLine(res, layers)
	if err != nil || !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"trace.overhead_pct"`) {
		t.Errorf("traced result line: %s, %v", line, err)
	}
}
