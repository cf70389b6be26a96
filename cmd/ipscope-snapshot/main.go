// Command ipscope-snapshot inspects and verifies persistent index
// snapshots (the files ipscope-serve -snapshot-save and -snapshot-dir
// produce) and whole snapshot directories.
//
//	ipscope-snapshot FILE            print the preface and section table
//	ipscope-snapshot -json FILE      the same, as machine-readable JSON
//	ipscope-snapshot -verify FILE    fully decode, re-encode and compare:
//	                                 a canonical file must be a byte-exact
//	                                 fixed point of decode∘encode
//	ipscope-snapshot -summary FILE   print the index summary as JSON
//	                                 (comparable to /v1/summary and
//	                                 ipscope-serve -dump-summary)
//	ipscope-snapshot DIR             list a -snapshot-dir: each base image
//	                                 and, per record of its journal, the
//	                                 epoch, bytes, frame count and checksum
//	                                 verdict; the last line is the epoch a
//	                                 restart on DIR would resume at
//	ipscope-snapshot -verify DIR     the same, failing on an image that is
//	                                 not canonical, a journal that is not
//	                                 its base's, or a bad record that is
//	                                 not the tail (a torn tail is what a
//	                                 kill leaves, and a restart cuts it)
//
// Exit status is non-zero when the file does not decode or -verify
// finds a non-canonical encoding or a damaged directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"ipscope/internal/node"
	"ipscope/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipscope-snapshot: ")

	verify := flag.Bool("verify", false, "re-encode the decoded snapshot and require byte equality")
	summary := flag.Bool("summary", false, "print the index summary as JSON")
	asJSON := flag.Bool("json", false, "print the snapshot info as JSON")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: ipscope-snapshot [-verify] [-summary] [-json] FILE | [-verify] DIR")
	}
	path := flag.Arg(0)
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if *summary || *asJSON {
			log.Fatal("-summary and -json take a snapshot file, not a directory")
		}
		if !listDir(path, *verify) {
			os.Exit(1)
		}
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	l, err := query.DecodeSnapshot(data)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if *verify {
		if re := l.Encode(); !bytes.Equal(re, data) {
			log.Fatalf("%s: decoded snapshot is not a canonical fixed point (%d bytes re-encoded vs %d on disk)",
				path, len(re), len(data))
		}
		fmt.Printf("verify OK: %s (%d bytes, epoch %d, %d blocks)\n",
			path, len(data), l.Info.Epoch, l.Info.Blocks)
	}
	switch {
	case *summary:
		if err := json.NewEncoder(os.Stdout).Encode(l.Index.Summary()); err != nil {
			log.Fatal(err)
		}
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(l.Info); err != nil {
			log.Fatal(err)
		}
	case !*verify:
		printInfo(path, len(data), l.Info)
	}
}

// printInfo renders the preface and section table the way the format
// doc in internal/query/snapshot.go lays the file out.
func printInfo(path string, size int, info query.SnapshotInfo) {
	fmt.Printf("%s: %d bytes\n", path, size)
	fmt.Printf("  epoch     %d\n", info.Epoch)
	fmt.Printf("  days      %d\n", info.Days)
	fmt.Printf("  words     %d (per-host day-bitset words)\n", info.Words)
	fmt.Printf("  blocks    %d\n", info.Blocks)
	fmt.Printf("  resumable %v\n", info.Resumable)
	if sh := info.Shard; sh != nil {
		fmt.Printf("  shard     %d/%d, block range [%d, %d)\n", sh.Index, sh.Count, sh.Lo, sh.Hi)
	}
	fmt.Printf("  %-3s %-10s %12s %12s\n", "id", "section", "offset", "length")
	for _, s := range info.Sections {
		fmt.Printf("  %-3d %-10s %12d %12d\n", s.ID, s.Name, s.Offset, s.Length)
	}
}

// listDir prints a snapshot directory the way a restart reads it and
// reports whether -verify (when asked for) found it sound.
func listDir(dir string, verify bool) bool {
	bases, err := node.ListCheckpoints(dir)
	if err != nil {
		log.Fatal(err)
	}
	sound := true
	damaged := func(format string, args ...any) {
		fmt.Printf("  DAMAGED: "+format+"\n", args...)
		sound = false
	}
	for _, base := range bases {
		data, err := os.ReadFile(base)
		if err != nil {
			log.Fatal(err)
		}
		l, err := query.DecodeSnapshot(data)
		if err != nil {
			fmt.Printf("%s: %d bytes, unreadable (a restart skips it): %v\n", base, len(data), err)
			sound = false
			continue
		}
		fmt.Printf("%s: %d bytes, epoch %d, %d days, %d blocks, resumable %v\n",
			base, len(data), l.Info.Epoch, l.Info.Days, l.Info.Blocks, l.Info.Resumable)
		if verify && !bytes.Equal(l.Encode(), data) {
			damaged("not a canonical fixed point of decode and encode")
		}
		j := node.JournalOf(base, l.Info.Epoch)
		switch {
		case j.Err != nil:
			damaged("journal %s (%d bytes, a restart removes it): %v", j.Path, j.Size, j.Err)
			continue
		case j.Size == 0:
			continue // no journal: nothing was checkpointed after this image
		}
		fmt.Printf("%s: %d bytes\n", j.Path, j.Size)
		fmt.Printf("  %-12s %10s %7s  %s\n", "epoch", "bytes", "frames", "crc")
		for _, rec := range j.Records {
			fmt.Printf("  %-12d %10d %7d  ok\n", rec.Epoch, rec.Bytes, rec.Frames)
		}
		switch {
		case j.MidFileDamage():
			damaged("%d bytes after epoch %d, the first %d a bad record that is not the tail (a restart cuts the journal there): %v",
				j.Size-j.Intact, j.Epoch(), j.TailBytes, j.Tail)
		case j.Tail != nil:
			fmt.Printf("  torn tail: %d bytes after epoch %d (a restart cuts them off): %v\n", j.Size-j.Intact, j.Epoch(), j.Tail)
		}
	}
	base, epoch, err := node.ResumePoint(dir)
	switch {
	case err != nil:
		log.Fatal(err)
	case base == "":
		fmt.Printf("%s: nothing to resume from; a restart ingests its stream from the start\n", dir)
	default:
		fmt.Printf("a restart resumes at epoch %d (from %s)\n", epoch, base)
	}
	if verify && sound {
		fmt.Printf("verify OK: %s\n", dir)
	}
	return sound || !verify
}
