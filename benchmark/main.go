// Command benchmark is the repository's benchmark: it builds the
// cmd/* binaries from source, generates the dataset for a seed, runs a
// fleet-level workload against real processes over loopback, checks
// every answer against an in-process oracle and prints the end-to-end
// metrics BENCHMARK.json names. With --trace 1 it replays the same
// inputs in-process instead, timing calls into each layer's public
// functions, and prints the per-layer metrics.
//
//	go run -C benchmark . --workload hot-read --seed 3 --seconds 25 --trace 0
//	go run -C benchmark .                    # all four workloads, end to end
//	go run -C benchmark . --trace 1          # per-layer budget for each
//	go run -C benchmark . --repeat 3         # noise study
//
// See README.md for what the workloads and metrics mean.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) == 2 && os.Args[1] == referenceFlag {
		return referenceServer()
	}
	name := flag.String("workload", "all", `workload to run: hot-read, cold-read, routed-read, live-ingest or "all"`)
	seed := flag.Uint64("seed", 3, "request-sequence seed")
	seconds := flag.Float64("seconds", 25, "how long a workload measures")
	trace := flag.Int("trace", 0, "0: end-to-end run against real processes; 1: traced in-process run, per-layer metrics")
	repeat := flag.Int("repeat", 0, "noise study: run the end-to-end set N times and report each metric's spread")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*repeat != 0 && *trace != 0) {
		flag.Usage()
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *name == "all" || *name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	// The harness holds the decoded dataset (~200 MB live) and shares two
	// cores with the servers it measures; collecting less often keeps
	// its own GC out of their latency tails.
	debug.SetGCPercent(400)

	// Servers run in their own process groups; whatever way this
	// process leaves, they are killed and reaped first.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	if err := measure(names, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		killAll()
		return 1
	}
	return 0
}

// measure runs the selected workloads and prints their results. The
// last line of standard output is the machine-readable result of the
// last workload run.
func measure(names []string, seed uint64, seconds float64, traced bool, repeat int) error {
	e, err := newEnv(seed, seconds)
	if err != nil {
		return err
	}
	ds, err := loadDataset(e.dataset)
	if err != nil {
		return err
	}
	rec := newEnvRecord(e, ds)
	if repeat > 0 {
		return noiseStudy(e, ds, rec, names, repeat)
	}
	for _, name := range names {
		var res *result
		var layers map[string]float64
		if traced {
			res, layers, err = runTraced(e, ds, name)
		} else {
			res, err = runWorkload(e, ds, name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := save(e, rec, res, layers); err != nil {
			return err
		}
		printReport(os.Stdout, rec, res, layers)
		line, err := driverLine(res, layers)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(line)
	}
	return nil
}

// runWorkload is one end-to-end run of one workload, tracing off.
func runWorkload(e *env, ds *dataset, name string) (*result, error) {
	var res *result
	var err error
	if name == "live-ingest" {
		res, err = runIngest(e, ds, ingestPlan(e.seconds))
	} else {
		res, err = runRead(e, ds, name, fullPlan(name, e.seconds))
	}
	if err != nil {
		return nil, err
	}
	res.Info["build_s"] = e.buildS
	res.Info["gen_s"] = e.genS
	return res, nil
}
