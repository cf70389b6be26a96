// Command ipscope-gen generates a synthetic world and a year of
// activity. It is the production end of the observation pipeline:
//
//   - -dataset FILE streams the observation dataset to a file as the
//     simulation progresses ("-" streams to stdout, so the dataset can
//     be piped straight into ipscope-report -dataset -);
//   - -connect ADDR streams the dataset to a live server over TCP
//     (ipscope-serve -obs-listen ADDR); -day-delay paces the stream so
//     the server's epoch progression is observable in wall-clock time.
//
// At least one of -dataset and -connect is required; given both, the
// one stream goes to both. -ases, -blocks-per-as and -days must be at
// least 1. For a fixed seed and configuration the emitted dataset is
// byte-identical across runs and worker counts.
//
// Usage:
//
//	ipscope-gen [-seed N] [-ases N] [-blocks-per-as N] [-days N]
//	            [-dataset FILE|-] [-connect ADDR] [-day-delay D]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// options is argv, parsed and checked.
type options struct {
	world    synthnet.Config
	days     int
	dataset  string
	connect  string
	dayDelay time.Duration
}

// parse declares the flags on fs, parses args and refuses a run with
// nowhere to stream to or a world or run size below 1 (which synthnet
// and sim would read as "use the library default").
func parse(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	// World/run defaults deliberately match ipscope-report's, so
	// "gen -dataset | ... | report -dataset" compares against a direct
	// "report" run without having to repeat every flag.
	fs.Uint64Var(&o.world.Seed, "seed", 1, "world seed")
	fs.IntVar(&o.world.NumASes, "ases", 300, "number of autonomous systems")
	fs.IntVar(&o.world.MeanBlocksPerAS, "blocks-per-as", 12, "mean /24 blocks per AS")
	fs.IntVar(&o.days, "days", 364, "simulated days")
	fs.StringVar(&o.dataset, "dataset", "", `stream the observation dataset to FILE ("-" = stdout)`)
	fs.StringVar(&o.connect, "connect", "", "stream the observation dataset over TCP to ADDR (ipscope-serve -obs-listen)")
	fs.DurationVar(&o.dayDelay, "day-delay", 0, "pace the stream: sleep this long after each emitted day (live-pipeline demos)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.dataset == "" && o.connect == "" {
		return o, errors.New("give -dataset, -connect or both")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"ases", o.world.NumASes}, {"blocks-per-as", o.world.MeanBlocksPerAS}, {"days", o.days}} {
		if f.v < 1 {
			return o, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-gen: ")

	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	scfg := sim.DefaultConfig()
	scfg.Days = o.days
	streamDataset(synthnet.Generate(o.world), scfg, o.dataset, o.connect, o.dayDelay)
}

// streamDataset runs the simulation with obs.Writer sinks attached, so
// days and weeks hit the wire as they complete. A positive dayDelay
// throttles emission to roughly wall-clock-per-simulated-day, which
// makes a live consumer's epoch progression observable.
func streamDataset(w *synthnet.World, scfg sim.Config, dataset, connect string, dayDelay time.Duration) {
	var sinks []obs.Sink
	var writers []*obs.Writer
	var finish []func() error

	attach := func(dst io.Writer) {
		ow := obs.NewWriter(dst)
		sinks = append(sinks, ow)
		writers = append(writers, ow)
	}

	switch dataset {
	case "":
	case "-":
		attach(os.Stdout)
	default:
		f, err := os.Create(dataset)
		if err != nil {
			log.Fatal(err)
		}
		attach(f)
		finish = append(finish, f.Close)
	}
	if connect != "" {
		conn, err := net.Dial("tcp", connect)
		if err != nil {
			log.Fatal(err)
		}
		attach(conn)
		finish = append(finish, conn.Close)
	}
	// After the writers see each completed day, flush their buffers onto
	// the wire — a live consumer (serve -obs-listen / -follow) must see
	// frames as days close, not at bufio granularity — and sleep when
	// pacing is requested. Flush errors are ignored here: a writer that
	// failed (dead TCP peer) already carries its sticky error and has
	// been dropped from the event tee; flushing must go on for the
	// remaining healthy writers.
	sinks = append(sinks, obs.SinkFunc(func(e obs.Event) error {
		if _, ok := e.(obs.DayEvent); !ok {
			return nil
		}
		for _, ow := range writers {
			ow.Flush() //nolint:errcheck // sticky failure surfaces via the writer's own sink slot
		}
		if dayDelay > 0 {
			time.Sleep(dayDelay)
		}
		return nil
	}))

	res, err := sim.RunTo(w, scfg, sinks...)
	// Close every writer and underlying file/connection even when a sink
	// failed mid-run: one dead consumer (a reset TCP peer) must not cost
	// the healthy ones their end frame — the persisted -dataset copy has
	// to stay decodable. The first error still fails the process below.
	for _, ow := range writers {
		if cerr := ow.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, fn := range finish {
		if ferr := fn(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("streamed dataset: %d daily snapshots, %d weeks, %d traffic blocks",
		len(res.Daily), len(res.Weekly), len(res.Traffic))
}
