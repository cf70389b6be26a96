// Package stats provides the small statistical toolkit used by the
// ipscope analyses: percentiles, summaries, CDFs, histograms, binning
// and ordinary least-squares regression.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns NaN for an
// empty input. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Percentiles returns several percentiles with a single sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summary holds a five-point summary of a sample.
type Summary struct {
	N                int
	Min, Median, Max float64
	Mean             float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{0, nan, nan, nan, nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Median: percentileSorted(s, 50),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
	}
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi  float64
	Counts  []int
	Under   int // observations < Lo
	Over    int // observations >= Hi
	samples int
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v)/%d", lo, hi, nbins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.samples++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // float edge case
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// N returns the total number of observations recorded.
func (h *Histogram) N() int { return h.samples }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// LinearFit holds an ordinary-least-squares line y = Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64
}

// FitLine fits y = a*x + b by least squares. It needs at least two
// distinct x values; otherwise it returns a zero fit with R2 = NaN.
func FitLine(xs, ys []float64) LinearFit {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return LinearFit{R2: math.NaN()}
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{R2: math.NaN()}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}

// At evaluates the fitted line at x.
func (f LinearFit) At(x float64) float64 { return f.Slope*x + f.Intercept }

// NormalizeLog maps v into [0,1] by log-transforming and dividing by the
// log of the maximum, as used for the demographics features in the paper
// (Section 7). Values <= 0 map to 0; maxV <= 1 maps everything to 0.
func NormalizeLog(v, maxV float64) float64 {
	if v <= 0 || maxV <= 1 {
		return 0
	}
	n := math.Log(1+v) / math.Log(1+maxV)
	if n > 1 {
		return 1
	}
	return n
}

// BinIndex maps a normalized value in [0,1] to one of nbins bins,
// clamping 1.0 into the last bin.
func BinIndex(v float64, nbins int) int {
	if v < 0 {
		v = 0
	}
	i := int(v * float64(nbins))
	if i >= nbins {
		i = nbins - 1
	}
	return i
}
