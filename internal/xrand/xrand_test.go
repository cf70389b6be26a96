package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(1, "topology")
	b := Derive(1, "topology")
	if a != b {
		t.Fatal("Derive not deterministic")
	}
	if Derive(1, "topology") == Derive(1, "behaviour") {
		t.Fatal("different labels should derive different seeds")
	}
	if Derive(1, "topology") == Derive(2, "topology") {
		t.Fatal("different seeds should derive different streams")
	}
}

// TestAbsorbSplitsDerive: Derive over a concatenated label is Absorb over
// its pieces plus one finalizing round, wherever the label is cut.
func TestAbsorbSplitsDerive(t *testing.T) {
	const label = "16777215/255"
	for _, seed := range []uint64{0, 42, 1 << 63} {
		for cut := 0; cut <= len(label); cut++ {
			got := Splitmix64(Absorb(Absorb(seed, label[:cut]), []byte(label[cut:])))
			if want := Derive(seed, label); got != want {
				t.Fatalf("seed %d cut %d: %#x, Derive gives %#x", seed, cut, got, want)
			}
		}
	}
}

func TestNewReproducible(t *testing.T) {
	r1 := New(7, "x")
	r2 := New(7, "x")
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("streams diverged")
		}
	}
}

func TestSplitmix64Avalanche(t *testing.T) {
	// Flipping one input bit should change roughly half the output bits.
	f := func(x uint64) bool {
		d := Splitmix64(x) ^ Splitmix64(x^1)
		n := 0
		for d != 0 {
			d &= d - 1
			n++
		}
		return n >= 10 && n <= 54
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliBounds(t *testing.T) {
	r := New(1, "bern")
	if Bernoulli(r, 0) {
		t.Error("p=0 must be false")
	}
	if !Bernoulli(r, 1) {
		t.Error("p=1 must be true")
	}
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if Bernoulli(r, 0.3) {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) frequency = %.3f", got)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(2, "pois")
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		sum := 0
		const trials = 5000
		for i := 0; i < trials; i++ {
			sum += Poisson(r, lambda)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-lambda) > lambda*0.1+0.2 {
			t.Errorf("Poisson(%v) mean = %.2f", lambda, mean)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -1) != 0 {
		t.Error("nonpositive lambda must yield 0")
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(3, "par")
	for i := 0; i < 10000; i++ {
		v := Pareto(r, 2, 1.2, 1e6)
		if v < 2 || v > 1e6 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(4, "wc")
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(r, w)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight choice selected %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
	if WeightedChoice(r, []float64{0, 0}) != 0 {
		t.Error("all-zero weights should return 0")
	}
}
