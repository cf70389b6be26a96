// Command ipscope-report runs every experiment of the paper (all
// tables and figures) and prints the report. It works from either end
// of the pipeline:
//
//   - live: generate a synthetic world and simulate it in-process;
//   - stored: -dataset FILE analyzes an observation dataset produced by
//     ipscope-gen ("-" reads it from stdin, so "ipscope-gen -dataset - |
//     ipscope-report -dataset -" forms a pipe). The world
//     is regenerated deterministically from the dataset's metadata, so
//     the report is byte-identical to the in-process run for the same
//     seed and configuration.
//
// Replay scenarios reshape the observations before analysis, without
// re-simulation:
//
//	-vantage-frac F   subsample the vantage to a fraction F of client
//	                  addresses (a smaller CDN footprint)
//	-window-days N    truncate the daily window to its first N days
//	                  (a shorter collection campaign)
//
// Usage:
//
//	ipscope-report [-seed N] [-ases N] [-blocks-per-as N] [-days N]
//	               [-dataset FILE] [-vantage-frac F] [-window-days N] [-o FILE]
//
// -ases, -blocks-per-as and -days must be at least 1.
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"time"

	"ipscope/internal/analysis"
	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-report: ")

	seed := flag.Uint64("seed", 1, "world seed")
	ases := flag.Int("ases", 300, "number of autonomous systems")
	blocksPerAS := flag.Int("blocks-per-as", 12, "mean /24 blocks per AS")
	days := flag.Int("days", 364, "simulated days (52 weeks)")
	dataset := flag.String("dataset", "", `analyze a stored observation dataset ("-" = stdin) instead of simulating`)
	vantageFrac := flag.Float64("vantage-frac", 1, "replay scenario: keep this fraction of client addresses")
	windowDays := flag.Int("window-days", 0, "replay scenario: truncate the daily window to its first N days")
	out := flag.String("o", "", "write report to file instead of stdout")
	flag.Parse()
	// synthnet and sim read a size below 1 as "use the library default".
	for _, f := range []struct {
		name string
		v    int
	}{{"ases", *ases}, {"blocks-per-as", *blocksPerAS}, {"days", *days}} {
		if f.v < 1 {
			log.Printf("-%s %d: must be at least 1", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	var d *obs.Data
	var world *synthnet.World
	var err error
	switch {
	case *dataset == "-":
		log.Printf("reading dataset from stdin...")
		d, err = obs.Decode(os.Stdin)
	case *dataset != "":
		log.Printf("reading dataset %s...", *dataset)
		d, err = obs.DecodeFile(*dataset)
	default:
		wcfg := synthnet.Config{Seed: *seed, NumASes: *ases, MeanBlocksPerAS: *blocksPerAS}
		scfg := sim.DefaultConfig()
		scfg.Days = *days
		log.Printf("generating world (%d ASes) and simulating %d days...", *ases, *days)
		world = synthnet.Generate(wcfg)
		res := sim.Run(world, scfg)
		d = &res.Data
	}
	if err != nil {
		log.Fatal(err)
	}

	if *windowDays > 0 {
		d = d.TruncateWindow(*windowDays)
		log.Printf("scenario: daily window truncated to %d days", len(d.Daily))
	}
	if *vantageFrac < 1 {
		d = d.SubsampleVantage(*vantageFrac, *seed)
		log.Printf("scenario: vantage subsampled to %.0f%% of addresses", 100**vantageFrac)
	}

	var ctx *analysis.Context
	if world != nil {
		// Live path: the world is already in hand, no need to
		// regenerate it from the dataset metadata.
		ctx = analysis.NewContextFromData(world, d)
	} else if ctx, err = analysis.NewContextFromSource(d); err != nil {
		log.Fatal(err)
	}
	log.Printf("context ready in %v; running experiments", time.Since(start).Round(time.Millisecond))

	// The seed comes from the (possibly dataset-embedded) world, so a
	// stored dataset reports identically to the run that produced it.
	analysis.RunAll(w, ctx, ctx.World.Seed)
	// Timing goes to stderr so the report itself stays byte-identical
	// across live and dataset runs (the CI pipeline smoke diffs them).
	log.Printf("total runtime: %v", time.Since(start).Round(time.Millisecond))
}
