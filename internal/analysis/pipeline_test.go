package analysis

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

// TestReportFromDatasetByteIdentical is the pipeline's acceptance
// property: a report computed from a dataset that was streamed out of
// a live simulation, encoded, and decoded again is byte-identical to
// the report computed directly from that simulation. This is what the
// CI pipeline smoke (make pipeline-smoke) verifies end to end across
// the three binaries; here it is pinned at the library level.
func TestReportFromDatasetByteIdentical(t *testing.T) {
	wcfg := synthnet.Config{Seed: 23, NumASes: 30, MeanBlocksPerAS: 6}
	w := synthnet.Generate(wcfg)

	// Live run, streaming the dataset through the codec as it goes.
	var stream bytes.Buffer
	writer := obs.NewWriter(&stream)
	res, err := sim.RunTo(w, sim.TinyConfig(), writer)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	liveCtx, err := NewContextFromSource(res)
	if err != nil {
		t.Fatal(err)
	}

	decoded, err := obs.Decode(&stream)
	if err != nil {
		t.Fatal(err)
	}
	storedCtx, err := NewContextFromSource(decoded)
	if err != nil {
		t.Fatal(err)
	}

	// The regenerated world must be the same world.
	if storedCtx.World.NumBlocks() != liveCtx.World.NumBlocks() ||
		len(storedCtx.World.ASes) != len(liveCtx.World.ASes) {
		t.Fatalf("regenerated world differs: %d/%d blocks, %d/%d ASes",
			storedCtx.World.NumBlocks(), liveCtx.World.NumBlocks(),
			len(storedCtx.World.ASes), len(liveCtx.World.ASes))
	}

	var live, stored bytes.Buffer
	RunAll(&live, liveCtx, wcfg.Seed)
	RunAll(&stored, storedCtx, wcfg.Seed)
	if live.Len() == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(live.Bytes(), stored.Bytes()) {
		a, b := live.Bytes(), stored.Bytes()
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		off := 0
		for off < n && a[off] == b[off] {
			off++
		}
		lo := off - 80
		if lo < 0 {
			lo = 0
		}
		hiA, hiB := off+80, off+80
		if hiA > len(a) {
			hiA = len(a)
		}
		if hiB > len(b) {
			hiB = len(b)
		}
		t.Fatalf("reports diverge at byte %d:\nlive:   %q\nstored: %q",
			off, a[lo:hiA], b[lo:hiB])
	}

	// Repeat the direct report: determinism of the report itself (map
	// iteration must never leak into rendered floats).
	var again bytes.Buffer
	RunAll(&again, NewContext(wcfg, sim.TinyConfig()), wcfg.Seed)
	if !bytes.Equal(live.Bytes(), again.Bytes()) {
		t.Fatal("direct report is not deterministic run to run")
	}
}

// TestReplayScenarios: the stored-dataset-only scenarios produce
// well-formed contexts and reports without re-simulation.
func TestReplayScenarios(t *testing.T) {
	wcfg := synthnet.Config{Seed: 23, NumASes: 30, MeanBlocksPerAS: 6}
	w := synthnet.Generate(wcfg)
	res := sim.Run(w, sim.TinyConfig())

	t.Run("truncated-window", func(t *testing.T) {
		d := res.Data.TruncateWindow(14)
		ctx, err := NewContextFromSource(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(ctx.Obs.Daily); got != 14 {
			t.Fatalf("daily window = %d", got)
		}
		var out bytes.Buffer
		RunAll(&out, ctx, wcfg.Seed)
		if out.Len() == 0 {
			t.Fatal("empty report")
		}
	})
	t.Run("subsampled-vantage", func(t *testing.T) {
		d := res.Data.SubsampleVantage(0.4, 7)
		ctx, err := NewContextFromSource(d)
		if err != nil {
			t.Fatal(err)
		}
		full := res.DailyWindowUnion().Len()
		kept := ctx.Obs.DailyWindowUnion().Len()
		if kept == 0 || kept >= full {
			t.Fatalf("vantage kept %d of %d", kept, full)
		}
		var out bytes.Buffer
		RunAll(&out, ctx, wcfg.Seed)
		if out.Len() == 0 {
			t.Fatal("empty report")
		}
	})
}

// TestReportBytesStable pins the sha256 of the whole report on the
// pipeline world (seed 23, sim.TinyConfig()): live, decoded from the
// stream, and under both replay scenarios. The other report tests only
// compare the report with itself, which a change moving both sides
// passes; this one fails on any moved byte. After an intended change to
// what the report prints, take the new digests from the failure.
func TestReportBytesStable(t *testing.T) {
	wcfg := synthnet.Config{Seed: 23, NumASes: 30, MeanBlocksPerAS: 6}
	w := synthnet.Generate(wcfg)
	var stream bytes.Buffer
	writer := obs.NewWriter(&stream)
	res, err := sim.RunTo(w, sim.TinyConfig(), writer)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.Decode(&stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		src    obs.Source
		sha256 string
	}{
		{"live", res, "bc8b1f9f811541198a57507dc4f895bc6e50cbc634bfb398fc9264b5c21f60dd"},
		{"decoded", decoded, "bc8b1f9f811541198a57507dc4f895bc6e50cbc634bfb398fc9264b5c21f60dd"},
		{"window-14", res.Data.TruncateWindow(14), "e4154737a3f3fb9b4e1d9dece7e93ca79d882373f7052af4fd100c7cd0715f0d"},
		{"vantage-0.4", res.Data.SubsampleVantage(0.4, 7), "f60d9be2b7732bbb38e341bd71a84c1dcfccdbf781a4f7e0b018c99aa130e231"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, err := NewContextFromSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			RunAll(&out, ctx, wcfg.Seed)
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != tc.sha256 {
				t.Errorf("report sha256 = %s, want %s", got, tc.sha256)
			}
		})
	}
}
