package obs_test

import (
	"bytes"
	"runtime"
	"testing"

	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// allocated returns the bytes and objects f allocates.
func allocated(f func()) (n, objects int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc), int(after.Mallocs - before.Mallocs)
}

// TestStreamDecodeAllocs is the exact gate on what a stream decode
// allocates besides its events: decoding the TinyConfig seed-5 stream
// from a reader must cost what decoding its frames in place does
// (DecodeFrames, which slices one byte array) plus the decoder's 1 MiB
// read buffer and a fixed term — every frame is read into one reused
// payload buffer, which grows to the largest frame (10.9 KB) in ten
// steps. Measured: the read buffer plus 52.5 KB (go1.24, linux/amd64,
// with and without -race); the fixed term allows 80 KB. A payload
// allocated per frame adds the stream's 1.9 MB.
func TestStreamDecodeAllocs(t *testing.T) {
	const (
		readBuffer = 1 << 20
		fixed      = 80 << 10
	)
	wcfg := synthnet.TinyConfig()
	wcfg.Seed = 5
	res := sim.Run(synthnet.Generate(wcfg), sim.TinyConfig())
	var buf bytes.Buffer
	if err := obs.Write(&buf, &res.Data); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	frames := stream[8 : len(stream)-5] // the header and the end frame cut off

	var err error
	inPlace, _ := allocated(func() { _, err = obs.DecodeFrames(frames) })
	if err != nil {
		t.Fatal(err)
	}
	discard := obs.SinkFunc(func(obs.Event) error { return nil })
	streamed, _ := allocated(func() { err = obs.StreamDecode(bytes.NewReader(stream), discard) })
	if err != nil {
		t.Fatal(err)
	}
	if bound := inPlace + readBuffer + fixed; streamed > bound {
		t.Errorf("StreamDecode of a %d-byte stream allocated %d bytes, want at most %d: %d decoding its frames in place, %d of read buffer, %d fixed",
			len(stream), streamed, bound, inPlace, readBuffer, fixed)
	}
}
