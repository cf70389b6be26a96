package stats

import (
	"math"
	"testing"
)

func TestPercentilesEmpty(t *testing.T) {
	out := Percentiles(nil, 5, 50, 95)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for _, v := range out {
		if !math.IsNaN(v) {
			t.Errorf("empty percentile = %v, want NaN", v)
		}
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestHistogramEmptyAndEdge(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, c := range h.Counts {
		if c != 0 {
			t.Error("empty histogram counts must be zero")
		}
	}
	if h.N() != 0 {
		t.Error("empty N")
	}
	// Float edge: a value infinitesimally below Hi lands in last bin.
	h.Add(math.Nextafter(1, 0))
	if h.Counts[3] != 1 {
		t.Errorf("edge value bin: %v", h.Counts)
	}
}

func TestFitLineMismatchedLengths(t *testing.T) {
	f := FitLine([]float64{1, 2}, []float64{1})
	if !math.IsNaN(f.R2) {
		t.Error("mismatched lengths should yield NaN fit")
	}
}

func TestFitLinePerfectlyFlat(t *testing.T) {
	// Zero variance in y: R2 defined as 1 (perfect fit).
	f := FitLine([]float64{0, 1, 2}, []float64{5, 5, 5})
	if f.Slope != 0 || f.R2 != 1 {
		t.Errorf("flat fit = %+v", f)
	}
}

func TestNormalizeLogClamp(t *testing.T) {
	// Values above the max clamp to 1.
	if got := NormalizeLog(1e9, 100); got != 1 {
		t.Errorf("overflow clamp = %v", got)
	}
	// maxV <= 1 maps everything to 0.
	if NormalizeLog(5, 1) != 0 {
		t.Error("degenerate max")
	}
}
