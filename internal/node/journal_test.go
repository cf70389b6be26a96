package node

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ipscope/internal/binenc"
	"ipscope/internal/obs"
	"ipscope/internal/query"
)

// copyDir copies the regular files of src into a fresh temp directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range dirNames(t, src) {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, name), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// edit rewrites the file at path through f.
func edit(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(path, f(raw), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func flipBit(at int) func([]byte) []byte {
	return func(b []byte) []byte { b[at] ^= 0x10; return b }
}

// TestResumeFromDamagedJournal is the disk fault table for the journal: a
// node killed between two base images leaves older bases with their whole
// journals and a newest one whose journal holds the last durable epoch; the
// directory is then damaged and a restart must come up at the last epoch
// that is still intact — never later, never partial — serving, under the
// number the killed node gave it, byte for byte the index an
// uninterrupted node published at that epoch (which TestApplierEquivalence
// holds to query.Build at the cut), leave the journal cut where it
// resumed, and go on to the batch index over the full stream. Unsharded
// and for shard 1 of 2.
//
// The last record is cut at every byte offset against JournalOf — the
// function resume reads the directory through; what it returns is all a
// resume depends on — and a node is restarted on a sample of those cuts:
// around the record's header, every 509th byte, and the last few.
func TestResumeFromDamagedJournal(t *testing.T) {
	ds := world(t, 1)
	const k = 19
	for _, v := range []struct {
		name         string
		index, count int
	}{{"single", 0, 0}, {"shard1of2", 1, 2}} {
		t.Run(v.name, func(t *testing.T) {
			sharded := func(c *Config) { c.ShardIndex, c.ShardCount, c.SnapshotKeep = v.index, v.count, 10 }
			batch, shard := ds.reference(t, v.index, v.count)

			tmpl := t.TempDir()
			first := start(t, tmpl, sharded)
			if err := first.Ingest(ds.days(k)); !errors.Is(err, obs.ErrTruncated) {
				t.Fatal(err)
			}
			shutdown(t, first)
			bases, _ := ListCheckpoints(tmpl)
			if len(bases) < 2 {
				t.Fatalf("base images %v after %d days, want at least two", bases, k)
			}
			newest, older := bases[len(bases)-1], bases[len(bases)-2]
			var baseEpoch uint64
			fmt.Sscanf(filepath.Base(newest), checkpointPattern, &baseEpoch)
			base, journal := filepath.Base(newest), filepath.Base(journalPath(newest))
			whole := JournalOf(newest, baseEpoch)
			if whole.Err != nil || whole.Tail != nil || len(whole.Records) < 2 || whole.Epoch() != k {
				t.Fatalf("the newest base's journal: %d records through epoch %d (%v, %v), want at least two through %d",
					len(whole.Records), whole.Epoch(), whole.Err, whole.Tail, k)
			}
			last := whole.Records[len(whole.Records)-1]
			lastOff := int(whole.Intact - last.Bytes) // where the last record starts

			// Every cut of the last record reads as the journal without it.
			raw, err := os.ReadFile(filepath.Join(tmpl, journal))
			if err != nil {
				t.Fatal(err)
			}
			cutDir := copyDir(t, tmpl)
			for off := lastOff; off < len(raw); off++ {
				if err := os.WriteFile(filepath.Join(cutDir, journal), raw[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				j := JournalOf(filepath.Join(cutDir, base), baseEpoch)
				if j.Err != nil || len(j.Records) != len(whole.Records)-1 || j.Intact != int64(lastOff) || (j.Tail != nil) != (off > lastOff) || j.MidFileDamage() {
					t.Fatalf("journal cut at byte %d of %d: %d records, intact to %d, tail %v (%v), want %d records intact to %d",
						off, len(raw), len(j.Records), j.Intact, j.Tail, j.Err, len(whole.Records)-1, lastOff)
				}
			}

			// uninterrupted is the index a node that was never restarted
			// published at epoch e, encoded.
			oracles := map[uint64][]byte{}
			uninterrupted := func(e uint64) []byte {
				if oracles[e] == nil {
					n := start(t, "", sharded)
					if err := n.Ingest(ds.days(int(e))); !errors.Is(err, obs.ErrTruncated) {
						t.Fatal(err)
					}
					oracles[e] = query.EncodeSnapshot(n.Server().Index(), n.shard)
					shutdown(t, n)
				}
				return oracles[e]
			}

			type fault struct {
				name      string
				damage    func(t *testing.T, dir string)
				epoch     uint64 // where the restart must come up
				journal   int64  // the journal's length once it has, or gone, or untouched
				thenWhole bool   // go on to ingest the full stream
			}
			const gone, untouched = -1, -2
			cut := func(off int, thenWhole bool) fault {
				return fault{fmt.Sprintf("cut at %d", off), func(t *testing.T, dir string) {
					edit(t, filepath.Join(dir, journal), func(b []byte) []byte { return b[:off] })
				}, k - 1, int64(lastOff), thenWhole}
			}
			flip := func(what string, at int) fault {
				return fault{"bit flipped in the last record's " + what, func(t *testing.T, dir string) {
					edit(t, filepath.Join(dir, journal), flipBit(at))
				}, k - 1, int64(lastOff), true}
			}
			faults := []fault{
				flip("epoch", lastOff), flip("frame count", lastOff+8), flip("length", lastOff+12),
				flip("payload", lastOff+recordHeaderLen+int(last.Bytes)/2), flip("checksum", len(raw)-1),
				{"bit flipped in the first record", func(t *testing.T, dir string) {
					edit(t, filepath.Join(dir, journal), flipBit(journalHeaderLen+recordHeaderLen+9))
				}, baseEpoch, journalHeaderLen, true},
				{"journal missing", func(t *testing.T, dir string) {
					os.Remove(filepath.Join(dir, journal))
				}, baseEpoch, gone, true},
				{"journal of another base", func(t *testing.T, dir string) {
					other, err := os.ReadFile(journalPath(older))
					if err != nil {
						t.Fatal(err)
					}
					edit(t, filepath.Join(dir, journal), func([]byte) []byte { return other })
				}, baseEpoch, gone, true},
				{"journal header bit flipped", func(t *testing.T, dir string) {
					edit(t, filepath.Join(dir, journal), flipBit(13))
				}, baseEpoch, gone, false},
				{"newest base torn, older base and journal present", func(t *testing.T, dir string) {
					edit(t, filepath.Join(dir, base), func(b []byte) []byte { return b[:len(b)/2] })
				}, baseEpoch - 1, untouched, true},
			}
			for off := lastOff; off < len(raw); off++ {
				header, tail := off <= lastOff+recordHeaderLen+1, off >= len(raw)-recordCRCLen-1
				if header || tail || (off-lastOff)%509 == 0 {
					faults = append(faults, cut(off, off == lastOff || off == lastOff+recordHeaderLen || off == len(raw)-1))
				}
			}

			for _, f := range faults {
				t.Run(f.name, func(t *testing.T) {
					dir := copyDir(t, tmpl)
					f.damage(t, dir)
					n := start(t, dir, sharded)
					if got := epoch(n); got != f.epoch {
						t.Fatalf("restarted at epoch %d, want %d", got, f.epoch)
					}
					if got := query.EncodeSnapshot(n.Server().Index(), n.shard); !bytes.Equal(got, uninterrupted(f.epoch)) {
						t.Fatalf("the index served at epoch %d after the restart is not the one an uninterrupted node published", f.epoch)
					}
					switch st, err := os.Stat(filepath.Join(dir, journal)); {
					case f.journal == untouched: // the older base's journal was replayed, not this one
					case f.journal == gone && !os.IsNotExist(err):
						t.Errorf("the unusable journal is still there after the restart (%v)", err)
					case f.journal >= 0 && (err != nil || st.Size() != f.journal):
						t.Errorf("the journal after the restart: %v, %v; want it cut to %d bytes", st, err, f.journal)
					}
					if !f.thenWhole {
						shutdown(t, n)
						return
					}
					if err := n.Ingest(bytes.NewReader(ds.stream)); err != nil {
						t.Fatalf("ingest of the full stream after the restart: %v", err)
					}
					shutdown(t, n)
					sameIndex(t, n.Server().Index(), batch, shard)
					resumesAt(t, dir, uint64(len(ds.dayEnd))+1)
					noTemps(t, dir)
				})
			}
		})
	}
}

// TestCheckpointBytesProportional is the gate on what the write path
// persists, counted at the writer's two write hooks so that it repeats
// exactly: over the test world's whole stream the bytes written into the
// snapshot directory stay within twice the stream plus the final image
// (1.7 times on this world, whose week frames are large next to its
// images; an image per epoch, the design this replaced, is 4.4 times), and no journal outgrows the bound rebaseDivisor puts on
// what a restart replays — without its last record it is under
// 1/rebaseDivisor of its base, so records replayed never exceed that
// many bytes' worth plus one.
func TestCheckpointBytesProportional(t *testing.T) {
	ds, dir := world(t, 1), t.TempDir()
	n := start(t, dir, func(c *Config) { c.SnapshotKeep = 1 << 20 })
	var written, finalImage int64 // writer goroutine only; read after Shutdown
	n.ckpt.write = func(cp *query.Checkpoint, path string) (int64, error) {
		size, err := cp.WriteFile(path)
		written, finalImage = written+size, size
		return size, err
	}
	n.ckpt.appendSync = func(f *os.File, rec []byte) error {
		written += int64(len(rec))
		return writeSync(f, rec)
	}
	if err := n.Ingest(bytes.NewReader(ds.stream)); err != nil {
		t.Fatal(err)
	}
	shutdown(t, n)

	if bound := 2 * (int64(len(ds.stream)) + finalImage); written > bound {
		t.Errorf("%d bytes written into the snapshot directory for a %d-byte stream and a %d-byte final image: more than %d",
			written, len(ds.stream), finalImage, bound)
	}
	bases, _ := ListCheckpoints(dir)
	if len(bases) < 3 {
		t.Fatalf("base images %v: the world no longer exercises a rebase", bases)
	}
	epochs := uint64(len(ds.dayEnd)) + 1
	var records uint64
	for _, base := range bases {
		st, err := os.Stat(base)
		if err != nil {
			t.Fatal(err)
		}
		var e uint64
		fmt.Sscanf(filepath.Base(base), checkpointPattern, &e)
		j := JournalOf(base, e)
		if j.Err != nil || j.Tail != nil {
			t.Fatalf("%s: %v, %v", j.Path, j.Err, j.Tail)
		}
		records += uint64(len(j.Records))
		if len(j.Records) == 0 {
			continue
		}
		if before := j.Intact - j.Records[len(j.Records)-1].Bytes; before*rebaseDivisor >= st.Size() {
			t.Errorf("%s took a record when it already held %d bytes, 1/%d of its %d-byte base or more",
				j.Path, before, rebaseDivisor, st.Size())
		}
	}
	if got := uint64(len(bases)) + records; got != epochs {
		t.Errorf("%d base images and %d journal records for %d checkpointed epochs", len(bases), records, epochs)
	}
	t.Logf("%d bytes written (%d-byte stream, %d-byte final image): %d base images, %d journal records", written, len(ds.stream), finalImage, len(bases), records)
}

// FuzzJournalDecode throws arbitrary bytes at the journal reader. It never
// panics, allocates nothing an announced length asks for (a record's
// payload is a slice of the input, checked against what is there), fails
// only with typed errors, and whatever it accepts as the intact prefix is
// exactly that: the same records read back from the prefix alone, each
// decoding to the frame count its header carries.
func FuzzJournalDecode(f *testing.F) {
	cps := captures(f, 4)
	journal := appendJournalHeader(nil, 1, 12345)
	for _, c := range cps[1:] {
		var err error
		if journal, err = appendRecord(journal, c.cp.Epoch(), c.events); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(journal)
	f.Add(journal[:journalHeaderLen])
	f.Add(journal[:len(journal)/2])
	f.Add(journal[:len(journal)-1])
	for _, at := range []int{3, 13, journalHeaderLen + 2, journalHeaderLen + 13, len(journal) / 2, len(journal) - 2} {
		f.Add(flipBit(at)(bytes.Clone(journal)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		j := parseJournal("fuzz", data)
		var typed *binenc.Error
		for _, err := range []error{j.Err, j.Tail} {
			if err != nil && !errors.Is(err, errTornRecord) && !errors.As(err, &typed) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
		}
		if j.Err != nil {
			if len(j.Records) > 0 || j.Intact != 0 {
				t.Fatalf("a file that is no journal (%v) yields %d records, intact to %d", j.Err, len(j.Records), j.Intact)
			}
			return
		}
		if (j.Tail != nil) != (j.Intact < j.Size) || j.Intact > j.Size {
			t.Fatalf("intact to %d of %d bytes with tail error %v", j.Intact, j.Size, j.Tail)
		}
		again := parseJournal("fuzz", data[:j.Intact])
		if again.Err != nil || again.Tail != nil || len(again.Records) != len(j.Records) || again.Epoch() != j.Epoch() {
			t.Fatalf("the intact prefix reads back as %d records through epoch %d (%v, %v), not %d through %d",
				len(again.Records), again.Epoch(), again.Err, again.Tail, len(j.Records), j.Epoch())
		}
		for _, rec := range j.Records {
			if _, err := rec.Events(); err != nil && !errors.As(err, &typed) {
				t.Fatalf("record for epoch %d: untyped error %T: %v", rec.Epoch, err, err)
			}
		}
	})
}
