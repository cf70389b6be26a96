// Command ipscope-collect is the collection tier of the pipeline. It
// ingests a dataset stream produced by ipscope-gen, validates it, and
// persists it in canonical encoding:
//
//	-ingest FILE      read the dataset from FILE ("-" = stdin, so
//	                  "ipscope-gen -dataset - | ipscope-collect -ingest -"
//	                  forms a pipe)
//	-obs-listen ADDR  accept one TCP connection streaming a dataset
//	                  (the peer runs "ipscope-gen -connect ADDR")
//	-store FILE       write the ingested dataset to FILE
//
// Exactly one of -ingest and -obs-listen is required. The canonical
// re-encoding is deterministic: collecting the same stream twice
// produces byte-identical stores, and ipscope-report -dataset over the
// store reports identically to an in-process run.
//
// Usage:
//
//	ipscope-collect -ingest FILE|- [-store FILE]
//	ipscope-collect -obs-listen ADDR [-store FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipscope/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-collect: ")

	ingest := flag.String("ingest", "", `ingest an observation dataset from FILE ("-" = stdin)`)
	obsListen := flag.String("obs-listen", "", "accept one observation dataset stream on this TCP address")
	store := flag.String("store", "", "persist the ingested dataset to FILE")
	flag.Parse()

	if (*ingest == "") == (*obsListen == "") {
		log.Print("give exactly one of -ingest, -obs-listen")
		flag.Usage()
		os.Exit(2)
	}
	ingestDataset(*ingest, *obsListen, *store)
}

// ingestDataset decodes one dataset stream, persists it canonically
// and prints its summary.
func ingestDataset(ingest, obsListen, store string) {
	start := time.Now()
	var d *obs.Data
	var err error
	switch {
	case ingest == "-":
		d, err = obs.Decode(os.Stdin)
	case ingest != "":
		d, err = obs.DecodeFile(ingest)
	default:
		ln, lerr := net.Listen("tcp", obsListen)
		if lerr != nil {
			log.Fatal(lerr)
		}
		// A signal while we block in Accept closes the listener, so the
		// wait ends cleanly instead of leaving the process hanging.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		go func() {
			<-ctx.Done()
			ln.Close()
		}()
		log.Printf("waiting for a dataset stream on %s", ln.Addr())
		conn, aerr := ln.Accept()
		interrupted := ctx.Err() != nil // before stop(), which also cancels ctx
		stop()
		ln.Close()
		if aerr != nil {
			if interrupted {
				log.Fatal("interrupted while waiting for a dataset stream")
			}
			log.Fatal(aerr)
		}
		d, err = obs.Decode(conn)
		conn.Close()
	}
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	log.Printf("ingest done in %v", time.Since(start).Round(time.Millisecond))

	if store != "" {
		if err := obs.WriteFile(store, d); err != nil {
			log.Fatalf("store: %v", err)
		}
		log.Printf("stored dataset at %s", store)
	}

	run := d.Meta.Run
	fmt.Printf("dataset: world seed %d, %d ASes, %d days (daily window %d..%d)\n",
		d.Meta.World.Seed, d.Meta.World.NumASes, run.Days,
		run.DailyStart, run.DailyStart+run.DailyLen)
	fmt.Printf("daily snapshots:   %d (union %d addrs)\n", len(d.Daily), d.DailyWindowUnion().Len())
	fmt.Printf("weekly snapshots:  %d (union %d addrs)\n", len(d.Weekly), d.YearUnion().Len())
	fmt.Printf("ICMP snapshots:    %d (union %d addrs)\n", len(d.ICMPScans), d.ICMPUnion().Len())
	fmt.Printf("traffic blocks:    %d\n", len(d.Traffic))
	fmt.Printf("UA-sampled blocks: %d\n", len(d.UA))
	fmt.Printf("restructurings:    %d\n", len(d.Restructures))
}
