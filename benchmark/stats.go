package main

import (
	"hash/fnv"
	"io"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted: the smallest value with at least p of the samples at or
// below it. An empty input yields NaN, so a class with no samples can
// never pass for a fast one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the "exclusive" method) does, which is
// how the benchmark's driver computes run-to-run spread. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run noise of one metric as a share of its
// median: the interquartile distance when there are enough runs to have
// quartiles (>= 4), the full range otherwise.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := median(v)
	if med == 0 {
		return math.Inf(1)
	}
	if len(v) < 4 {
		s := sortedCopy(v)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// hashLines is the FNV-1a hash ipscope-loadgen prints as its workload
// hash: every item followed by a newline.
func hashLines(items ...string) uint64 {
	h := fnv.New64a()
	for _, s := range items {
		io.WriteString(h, s) //nolint:errcheck // hash.Hash never fails
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
