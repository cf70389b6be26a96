package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); !almostEq(got, 15, 1e-9) {
		t.Errorf("interpolated median = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input was mutated")
	}
}

func TestPercentilesMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	ps := []float64{5, 25, 50, 75, 95}
	multi := Percentiles(xs, ps...)
	for i, p := range ps {
		if single := Percentile(xs, p); !almostEq(single, multi[i], 1e-9) {
			t.Errorf("p%v: %v vs %v", p, single, multi[i])
		}
	}
}

func TestMedianMeanSummary(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Median(xs); !almostEq(got, 2.5, 1e-9) {
		t.Errorf("Median = %v", got)
	}
	if got := Mean(xs); !almostEq(got, 2.5, 1e-9) {
		t.Errorf("Mean = %v", got)
	}
	s := Summarize(xs)
	if s.N != 4 || s.Min != 1 || s.Max != 4 || !almostEq(s.Median, 2.5, 1e-9) {
		t.Errorf("Summary = %+v", s)
	}
	e := Summarize(nil)
	if e.N != 0 || !math.IsNaN(e.Min) {
		t.Errorf("empty summary = %+v", e)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under=%d Over=%d", h.Under, h.Over)
	}
	wantCounts := []int{2, 1, 1, 0, 1}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d (all %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.N() != 8 {
		t.Errorf("N = %d", h.N())
	}
	if got := h.BinCenter(0); !almostEq(got, 1, 1e-9) {
		t.Errorf("BinCenter(0) = %v", got)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	f := FitLine(xs, ys)
	if !almostEq(f.Slope, 2, 1e-9) || !almostEq(f.Intercept, 1, 1e-9) {
		t.Errorf("fit = %+v", f)
	}
	if !almostEq(f.R2, 1, 1e-9) {
		t.Errorf("R2 = %v", f.R2)
	}
	if !almostEq(f.At(10), 21, 1e-9) {
		t.Errorf("At(10) = %v", f.At(10))
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 3*x+10+rng.NormFloat64()*5)
	}
	f := FitLine(xs, ys)
	if math.Abs(f.Slope-3) > 0.05 {
		t.Errorf("slope = %v", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v", f.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if f := FitLine([]float64{1}, []float64{2}); !math.IsNaN(f.R2) {
		t.Error("n<2 should yield NaN R2")
	}
	if f := FitLine([]float64{2, 2}, []float64{1, 5}); !math.IsNaN(f.R2) {
		t.Error("vertical data should yield NaN R2")
	}
}

func TestNormalizeLogAndBinIndex(t *testing.T) {
	if NormalizeLog(0, 100) != 0 || NormalizeLog(-3, 100) != 0 {
		t.Error("nonpositive values must map to 0")
	}
	if got := NormalizeLog(100, 100); !almostEq(got, 1, 1e-9) {
		t.Errorf("max should map to 1, got %v", got)
	}
	if NormalizeLog(10, 100) <= NormalizeLog(5, 100) {
		t.Error("NormalizeLog must be monotone")
	}
	if BinIndex(0, 10) != 0 || BinIndex(1, 10) != 9 || BinIndex(0.55, 10) != 5 {
		t.Error("BinIndex mapping wrong")
	}
	if BinIndex(-0.5, 10) != 0 {
		t.Error("negative clamps to 0")
	}
}

func TestNormalizeLogProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a%10000), float64(b%10000)
		nx, ny := NormalizeLog(x, 10000), NormalizeLog(y, 10000)
		if x < y && nx > ny {
			return false
		}
		return nx >= 0 && nx <= 1 && ny >= 0 && ny <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
