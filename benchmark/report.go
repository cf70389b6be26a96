package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envRecord makes two results files comparable, or visibly not: what
// was run, on what, with which frozen workload shape.
type envRecord struct {
	Seed            uint64  `json:"seed"`
	Seconds         float64 `json:"seconds"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"goVersion"`
	Commit          string  `json:"commit"`
	DatasetBytes    int     `json:"datasetBytes"`
	DatasetDays     int     `json:"datasetDays"`
	WorldSeed       int     `json:"worldSeed"`
	ReadConnections int     `json:"readConnections"`
	SequenceLen     int     `json:"sequenceLen"`
	HotURLs         int     `json:"hotURLs"`
	Setups          int     `json:"setups"`
	Restarts        int     `json:"restarts"`
	RoutedSetups    int     `json:"routedSetups"`
	RoutedRestarts  int     `json:"routedRestarts"`
	RefSliceMs      float64 `json:"refSliceMs"`
	FleetSliceMs    float64 `json:"fleetSliceMs"`
	RefP50ms        float64 `json:"refP50ms"`
	RefP95ms        float64 `json:"refP95ms"`
	RefRPS          float64 `json:"refRPS"`
	RefCPUus        float64 `json:"refCPUus"`
	RefComputeMs    float64 `json:"refComputeMs"`
	IngestPasses    int     `json:"ingestPasses"`
	PacedDaysPerSec float64 `json:"pacedDaysPerSec"`
	ReaderRPS       float64 `json:"readerRPS"`
}

func newEnvRecord(e *env, ds *dataset) envRecord {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envRecord{
		Seed: e.seed, Seconds: e.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, DatasetBytes: len(ds.raw), DatasetDays: ds.days, WorldSeed: worldSeed,
		ReadConnections: readConns, SequenceLen: seqLen, HotURLs: hotURLs, Setups: setups, Restarts: restarts,
		RoutedSetups: routedSetups, RoutedRestarts: routedRestarts,
		RefSliceMs: ms(refSlice), FleetSliceMs: ms(fleetSlice),
		RefP50ms: refP50ms, RefP95ms: refP95ms, RefRPS: refRPS, RefCPUus: refCPUus, RefComputeMs: refComputeMs,
		IngestPasses: ingestPlan(e.seconds).passes, PacedDaysPerSec: pacedDaysPerSec, ReaderRPS: readerRPS,
	}
}

// resultsFile is what save writes: one workload, one mode.
type resultsFile struct {
	Env      envRecord          `json:"env"`
	Result   *result            `json:"result"`
	PerLayer map[string]float64 `json:"perLayer,omitempty"`
}

func resultsPath(e *env, traced bool, workload string) string {
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	return filepath.Join(e.out, fmt.Sprintf("results-%s-%s.json", mode, workload))
}

// save writes the workload's results file under out/.
func save(e *env, rec envRecord, res *result, layers map[string]float64) error {
	data, err := json.MarshalIndent(resultsFile{Env: rec, Result: res, PerLayer: layers}, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: a metric has no value: %w", res.Workload, err)
	}
	return os.WriteFile(resultsPath(e, layers != nil, res.Workload), append(data, '\n'), 0o644)
}

// loadE2E reads back the workload's last end-to-end results for the
// same seed, if there are any — the traced run never measures
// end-to-end numbers itself.
func loadE2E(e *env, workload string) *result {
	data, err := os.ReadFile(resultsPath(e, false, workload))
	if err != nil {
		return nil
	}
	var f resultsFile
	if json.Unmarshal(data, &f) != nil || f.Result == nil || f.Env.Seed != e.seed {
		return nil
	}
	return f.Result
}

// driverLine renders the one-line JSON result: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one.
func driverLine(res *result, layers map[string]float64) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := endToEnd, res.E2E
	if layers != nil {
		specs, values = perLayer, layers
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s has no value", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Problems) == 0, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// printReport is the human-readable result.
func printReport(w io.Writer, rec envRecord, res *result, layers map[string]float64) {
	fmt.Fprintf(w, "\n== %s  seed %d  sequence %s  commit %.12s  %s  nproc %d\n",
		res.Workload, rec.Seed, res.Hash, rec.Commit, rec.GoVersion, rec.NProc)
	fmt.Fprintf(w, "   attempted %d  failed %d", res.Attempted, res.Failed)
	for _, k := range []string{"ops", "cycles", "ops_per_pass", "verified", "lag_samples", "build_s", "gen_s"} {
		if v, ok := res.Info[k]; ok {
			fmt.Fprintf(w, "  %s %.4g", k, v)
		}
	}
	fmt.Fprintln(w)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	specs, values := endToEnd, res.E2E
	if layers != nil {
		specs, values = perLayer, layers
	}
	for _, m := range specs {
		fmt.Fprintf(w, "   %-30s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
}

// noiseStudy runs the end-to-end set n times and prints, per metric and
// workload, min / median / max and the relative spread, failing when a
// spread exceeds the metric's bound (setup_s is reported, not judged:
// its bound guards the median, not the spread).
func noiseStudy(e *env, ds *dataset, rec envRecord, names []string, n int) error {
	values := map[string]map[string][]float64{}
	hashes := map[string]string{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			res, err := runWorkload(e, ds, name)
			if err != nil {
				return fmt.Errorf("repeat %d, %s: %w", i, name, err)
			}
			if len(res.Problems) > 0 {
				return fmt.Errorf("repeat %d, %s: %s", i, name, strings.Join(res.Problems, "; "))
			}
			if h, ok := hashes[name]; ok && h != res.Hash {
				return fmt.Errorf("%s: sequence hash changed between repeats (%s, %s)", name, h, res.Hash)
			}
			hashes[name] = res.Hash
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, v := range res.E2E {
				values[name][k] = append(values[name][k], v)
			}
			fmt.Fprintf(os.Stderr, "repeat %d/%d %s done\n", i+1, n, name)
		}
	}
	fmt.Printf("\nnoise study: %d repeats, seed %d, %gs, commit %.12s, nproc %d\n\n", n, rec.Seed, rec.Seconds, rec.Commit, rec.NProc)
	fmt.Println("| metric | workload | min | median | max | spread | bound |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var over []string
	for _, m := range endToEnd {
		for _, name := range names {
			v := sortedCopy(values[name][m.Name])
			sp := spread(v)
			mark := ""
			if sp > m.Bound && m.Name != "setup_s" {
				mark = " **over**"
				over = append(over, m.Name+" on "+name)
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.1f%%%s | %.0f%% |\n",
				m.Name, name, v[0], median(v), v[len(v)-1], 100*sp, mark, 100*m.Bound)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound for: %s", strings.Join(over, ", "))
	}
	return nil
}
