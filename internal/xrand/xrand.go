// Package xrand provides deterministic random-number utilities used to
// make every synthetic world reproducible from a single seed.
//
// Streams are derived with splitmix64 so that independent subsystems
// (topology, behaviour, scanning, ...) each get a statistically
// independent generator, and adding randomness consumption to one
// subsystem does not perturb the others.
package xrand

import (
	"math"
	"math/rand"
)

// Splitmix64 advances and hashes the state x, returning the next value of
// the splitmix64 sequence. It is the standard seeding function recommended
// for xoshiro-family generators.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive deterministically derives a child seed from a parent seed and a
// label, so each named subsystem obtains an independent stream.
func Derive(seed uint64, label string) uint64 {
	return Splitmix64(Absorb(seed, label))
}

// Absorb folds label into a running Derive state without finalizing it:
// Derive(seed, a+b) == Splitmix64(Absorb(Absorb(seed, a), b)). A caller
// deriving many seeds whose labels share a prefix absorbs the prefix
// once.
func Absorb[S string | []byte](h uint64, label S) uint64 {
	for i := 0; i < len(label); i++ {
		h = Splitmix64(h ^ uint64(label[i]))
	}
	return h
}

// New returns a deterministic *rand.Rand for the given seed and label.
func New(seed uint64, label string) *rand.Rand {
	return rand.New(rand.NewSource(int64(Derive(seed, label))))
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Poisson draws from a Poisson distribution with mean lambda using
// Knuth's method for small lambda and a normal approximation above 30.
func Poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		v := lambda + r.NormFloat64()*sqrt(lambda) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Pareto draws from a bounded Pareto-ish heavy tail: xm * U^(-1/alpha),
// capped at maxV. Used for traffic volumes per address.
func Pareto(r *rand.Rand, xm, alpha, maxV float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = 1e-12
	}
	v := xm * pow(u, -1/alpha)
	if v > maxV {
		return maxV
	}
	return v
}

// WeightedChoice returns an index in [0,len(weights)) with probability
// proportional to weights[i]. Zero or negative total weight returns 0.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func sqrt(x float64) float64   { return math.Sqrt(x) }
func exp(x float64) float64    { return math.Exp(x) }
func pow(x, y float64) float64 { return math.Pow(x, y) }
