package rpc

import (
	"bytes"
	"errors"
	"testing"

	"ipscope/internal/binenc"
	"ipscope/internal/query"
)

// FuzzRPCDecode fuzzes the payload decoder with arbitrary bytes under
// every frame kind. The invariants mirror the obs codec fuzz target:
// decoding never panics, failures are the one typed format error
// (*binenc.Error), and any accepted payload is canonical — re-encoding the decoded message
// reproduces the input bytes exactly (the fixed point that makes byte
// equality across transports provable).
func FuzzRPCDecode(f *testing.F) {
	for _, m := range testMessages() {
		f.Add(m.Kind(), EncodePayload(m))
	}
	f.Add(byte(0x42), []byte{})                                       // unknown kind
	f.Add(byte(0x01), []byte{})                                       // reserved (was Info)
	f.Add(byte(0x01|respBit), []byte{0, 0, 0, 2, 'o', 'k'})           // reserved response
	f.Add(byte(0x01|respBit), []byte{})                               // reserved response, empty
	f.Add(byte(0x09), []byte{})                                       // reserved (was BulkBlock)
	f.Add(byte(0x09|respBit), []byte{0, 0, 0, 0, 0, 0, 0, 1})         // reserved response
	f.Add(byte(kindBulkAddr|respBit), bytes.Repeat([]byte{0xFF}, 40)) // huge counts
	// AS sets out of order and with a repeat, which the partial merges
	// cannot take: a typed decode error.
	for _, m := range []Msg{
		SummaryResp{Partial: query.SummaryPartial{
			Daily: query.SeriesPartial{Snapshots: 1, SnapASes: [][]uint32{{64501, 64500}}}}},
		MovementResp{Partial: query.MovementPartial{
			Entries: []query.MovementEntryPartial{{ASes: []uint32{7, 7}}}}},
	} {
		f.Add(m.Kind(), EncodePayload(m))
	}

	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		m, err := DecodePayload(kind, payload)
		if err != nil {
			var fe *binenc.Error
			if !errors.As(err, &fe) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		if m.Kind() != kind {
			t.Fatalf("decoded kind 0x%02x from frame kind 0x%02x", m.Kind(), kind)
		}
		if again := EncodePayload(m); !bytes.Equal(again, payload) {
			t.Fatalf("decode∘encode not the identity:\n in:  %x\n out: %x", payload, again)
		}
	})
}
