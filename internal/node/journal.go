package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"strings"

	"ipscope/internal/binenc"
	"ipscope/internal/obs"
)

// A checkpoint journal sits beside the base image it is named for
// (snap-<B>.ipjournal beside snap-<B>.ipsnap) and holds one record per
// checkpointed epoch after B: the events the applier accepted since the
// previous record, so base + journal is the applier at the last record's
// epoch. All integers little endian, like the image:
//
//	journal := header record*
//	header  := magic "ipsjrnl\x00"  version u16 (1)  reserved u16 (0)
//	           base epoch u64  base image length u64  crc u32   (32 bytes)
//	record  := epoch u64  frames u32  length u32               (16 bytes)
//	           payload[length]   obs stream frames, back to back
//	           crc u32           over the 16 header bytes and the payload
//
// CRCs are CRC-32C. The payload is internal/obs's frame encoding
// (obs.AppendFrame), post shard filter. Record epochs ascend from above
// the base's. A record is appended with one write and fsynced before the
// next is accepted, so only the last one can be torn; a reader takes the
// leading run of intact records and a restart cuts the file there.
const (
	journalGlob   = "snap-*.ipjournal"
	journalSuffix = ".ipjournal"

	journalMagic     = "ipsjrnl\x00"
	journalVersion   = 1
	journalHeaderLen = 32
	recordHeaderLen  = 16
	recordCRCLen     = 4
	// maxRecordLen bounds a record's payload: one checkpoint interval's
	// frames, of which a single one may not exceed 256 MiB.
	maxRecordLen = 1 << 30

	journalFormat = "node: journal"
)

var (
	le         = binenc.LE
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// errTornRecord is a record that ends past the end of the file: an
// append the process did not live to finish.
var errTornRecord = errors.New("node: journal: record cut short")

// journalPath is the journal of the base image at path base, basePath
// the image a journal is named for.
func journalPath(base string) string {
	return strings.TrimSuffix(base, checkpointSuffix) + journalSuffix
}

func basePath(journal string) string {
	return strings.TrimSuffix(journal, journalSuffix) + checkpointSuffix
}

func appendJournalHeader(b []byte, baseEpoch uint64, baseBytes int64) []byte {
	start := len(b)
	b = append(b, journalMagic...)
	b = le.U16(b, journalVersion)
	b = le.U16(b, 0)
	b = le.U64(b, baseEpoch)
	b = le.U64(b, uint64(baseBytes))
	return le.U32(b, crc32.Checksum(b[start:], castagnoli))
}

// appendRecord appends epoch's record: events as obs frames, framed and
// checksummed. It appends nothing on failure.
func appendRecord(b []byte, epoch uint64, events []obs.Event) ([]byte, error) {
	start := len(b)
	b = le.U64(b, epoch)
	b = le.U32(b, uint32(len(events)))
	b = le.U32(b, 0) // payload length, below
	for _, e := range events {
		var err error
		if b, err = obs.AppendFrame(b, e); err != nil {
			return b[:start], err
		}
	}
	n := len(b) - start - recordHeaderLen
	if n > maxRecordLen {
		return b[:start], binenc.Errorf(journalFormat, "record of %d bytes exceeds the %d-byte limit", n, maxRecordLen)
	}
	binary.LittleEndian.PutUint32(b[start+12:], uint32(n))
	return le.U32(b, crc32.Checksum(b[start:], castagnoli)), nil
}

// Record is one journal record as read back.
type Record struct {
	Epoch  uint64
	Frames int   // obs frames in the payload
	Bytes  int64 // the record's length in the file, header and CRC included

	payload []byte
}

// Events decodes the record's frames.
func (r Record) Events() ([]obs.Event, error) {
	events, err := obs.DecodeFrames(r.payload)
	if err == nil && len(events) != r.Frames {
		err = binenc.Errorf(journalFormat, "record for epoch %d holds %d frames, its header says %d", r.Epoch, len(events), r.Frames)
	}
	return events, err
}

// decodeRecord reads the record at the head of p. The announced length is
// checked against the bytes that are there before anything else is: a
// record that ends past them is errTornRecord (with the length it
// announced, when it got as far as announcing one), a checksum that does
// not match a *binenc.Error. The payload aliases p.
func decodeRecord(p []byte) (Record, error) {
	if len(p) < recordHeaderLen {
		return Record{}, errTornRecord
	}
	d := binenc.NewDec(le, journalFormat, p)
	rec := Record{Epoch: d.U64(), Frames: int(d.U32())}
	n := int64(d.U32())
	rec.Bytes = recordHeaderLen + n + recordCRCLen
	if n > maxRecordLen {
		return rec, binenc.Errorf(journalFormat, "record for epoch %d announces %d bytes (limit %d)", rec.Epoch, n, maxRecordLen)
	}
	if rec.Bytes > int64(len(p)) {
		return rec, errTornRecord
	}
	rec.payload = d.Take(int(n))
	if sum := d.U32(); sum != crc32.Checksum(p[:recordHeaderLen+n], castagnoli) {
		return rec, binenc.Errorf(journalFormat, "record for epoch %d fails its checksum", rec.Epoch)
	}
	return rec, nil
}

// Journal is a journal file as a restart reads it.
type Journal struct {
	Path      string
	BaseEpoch uint64 // from the header
	BaseBytes int64
	Size      int64 // the file's length
	// Err is why the file is no journal of its base: a restart ignores and
	// removes it. Records is then empty and Intact 0.
	Err     error
	Records []Record // the leading run of intact records: what a restart replays
	Intact  int64    // the file's length through the last of them
	// Tail is why the bytes past Intact are not a record (nil when there
	// are none): a restart cuts them off. TailBytes is how many of them
	// that first bad record claims for itself.
	Tail      error
	TailBytes int64
}

// readJournal reads the journal at path; a missing file is (nil, nil).
func readJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseJournal(path, data), nil
}

func parseJournal(path string, data []byte) *Journal {
	j := &Journal{Path: path, Size: int64(len(data))}
	if len(data) < journalHeaderLen {
		j.Err = binenc.Errorf(journalFormat, "%d bytes are no journal header", len(data))
		return j
	}
	d := binenc.NewDec(le, journalFormat, data[:journalHeaderLen])
	magic, version, _ := string(d.Take(len(journalMagic))), d.U16(), d.U16()
	j.BaseEpoch, j.BaseBytes = d.U64(), int64(d.U64())
	switch sum := d.U32(); {
	case magic != journalMagic:
		j.Err = binenc.Errorf(journalFormat, "bad magic %q", magic)
	case sum != crc32.Checksum(data[:journalHeaderLen-4], castagnoli):
		j.Err = binenc.Errorf(journalFormat, "header fails its checksum")
	case version != journalVersion:
		j.Err = binenc.Errorf(journalFormat, "unsupported journal version %d (want %d)", version, journalVersion)
	}
	if j.Err != nil {
		return j
	}
	j.Intact = journalHeaderLen
	last := j.BaseEpoch
	for rest := data[journalHeaderLen:]; len(rest) > 0; rest = data[j.Intact:] {
		rec, err := decodeRecord(rest)
		if err == nil && rec.Epoch <= last {
			err = binenc.Errorf(journalFormat, "record for epoch %d follows epoch %d", rec.Epoch, last)
		}
		if err != nil {
			j.Tail, j.TailBytes = err, int64(len(rest))
			if rec.Bytes > 0 && rec.Bytes < j.TailBytes {
				j.TailBytes = rec.Bytes
			}
			break
		}
		j.Records = append(j.Records, rec)
		j.Intact += rec.Bytes
		last = rec.Epoch
	}
	return j
}

// JournalOf reads the journal of the base image at path base, which
// carries epoch, as a restart would use it: never nil, empty when there
// is no file, and with Err set when the file is another base's.
func JournalOf(base string, epoch uint64) *Journal {
	var size int64
	if st, err := os.Stat(base); err == nil {
		size = st.Size()
	}
	j, err := readJournal(journalPath(base))
	switch {
	case j == nil:
		j = &Journal{Path: journalPath(base), Err: err}
	case j.Err == nil && (j.BaseEpoch != epoch || j.BaseBytes != size):
		j.Err = fmt.Errorf("it belongs to a base image of epoch %d (%d bytes), not this one of epoch %d (%d bytes)",
			j.BaseEpoch, j.BaseBytes, epoch, size)
		j.Records, j.Intact, j.Tail = nil, 0, nil
	}
	j.BaseEpoch, j.BaseBytes = epoch, size
	return j
}

// Epoch is the epoch base + journal resumes at.
func (j *Journal) Epoch() uint64 {
	if n := len(j.Records); n > 0 {
		return j.Records[n-1].Epoch
	}
	return j.BaseEpoch
}

// MidFileDamage reports a bad record that is not the tail: bytes follow
// where it says it ends. A torn append cannot leave that; a restart would
// still cut the file at Intact, dropping records that were once durable.
func (j *Journal) MidFileDamage() bool {
	return j.Tail != nil && j.Intact+j.TailBytes < j.Size
}
