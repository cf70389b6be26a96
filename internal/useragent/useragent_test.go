package useragent

import (
	"fmt"
	"math"
	"testing"

	"ipscope/internal/xrand"
)

func TestDeviceDeterministic(t *testing.T) {
	d1 := NewDevice(42)
	d2 := NewDevice(42)
	if d1.browser != d2.browser || len(d1.apps) != len(d2.apps) {
		t.Fatal("device generation not deterministic")
	}
	r1 := xrand.New(1, "ua")
	r2 := xrand.New(1, "ua")
	for i := 0; i < 50; i++ {
		if d1.UA(r1) != d2.UA(r2) {
			t.Fatal("UA stream not deterministic")
		}
	}
}

func TestDeviceUANonEmpty(t *testing.T) {
	r := xrand.New(2, "ua")
	for seed := uint64(0); seed < 100; seed++ {
		d := NewDevice(seed)
		if d.UA(r) == "" {
			t.Fatal("empty UA")
		}
	}
	if BotUA(1) == "" || BotUA(1) != BotUA(1) {
		t.Fatal("BotUA broken")
	}
}

func TestSamplerRate(t *testing.T) {
	s := NewSampler(3, 100)
	n := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if s.Sample() {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.01) > 0.002 {
		t.Errorf("sample rate = %v, want ~0.01", got)
	}
	always := NewSampler(3, 1)
	if !always.Sample() {
		t.Error("rate 1 must sample everything")
	}
	if NewSampler(3, 0).rate != 1 {
		t.Error("rate 0 should clamp to 1")
	}
}

func TestSamplerSampleN(t *testing.T) {
	s := NewSampler(5, 4096)
	// Large n path (normal approximation).
	n := 4096 * 100
	got := s.SampleN(n)
	if got < 50 || got > 150 {
		t.Errorf("SampleN(%d) = %d, want ~100", n, got)
	}
	// Small n path.
	total := 0
	for i := 0; i < 1000; i++ {
		total += s.SampleN(409)
	}
	// Expectation: 1000 * 409/4096 ≈ 100.
	if total < 40 || total > 200 {
		t.Errorf("small-n SampleN total = %d, want ~100", total)
	}
	if s2 := NewSampler(5, 1); s2.SampleN(77) != 77 {
		t.Error("rate-1 SampleN should return n")
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, trueN := range []int{10, 100, 1000, 50000} {
		h := NewHLL(12)
		for i := 0; i < trueN; i++ {
			h.AddString(fmt.Sprintf("ua-string-%d", i))
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(trueN)) / float64(trueN)
		// 2^12 registers => ~1.6% standard error; allow 6%.
		if relErr > 0.06 {
			t.Errorf("n=%d: estimate %.0f (rel err %.3f)", trueN, est, relErr)
		}
	}
}

func TestHLLDuplicatesDontInflate(t *testing.T) {
	h := NewHLL(10)
	for i := 0; i < 100; i++ {
		for rep := 0; rep < 50; rep++ {
			h.AddString(fmt.Sprintf("dup-%d", i))
		}
	}
	est := h.Estimate()
	if est < 80 || est > 120 {
		t.Errorf("estimate with duplicates = %.0f, want ~100", est)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := NewHLL(11), NewHLL(11)
	for i := 0; i < 500; i++ {
		a.AddString(fmt.Sprintf("a-%d", i))
		b.AddString(fmt.Sprintf("b-%d", i))
	}
	// Overlap.
	for i := 0; i < 200; i++ {
		b.AddString(fmt.Sprintf("a-%d", i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	est := a.Estimate()
	if math.Abs(est-1000)/1000 > 0.1 {
		t.Errorf("merged estimate = %.0f, want ~1000", est)
	}
	c := NewHLL(9)
	if err := a.Merge(c); err == nil {
		t.Error("precision mismatch must error")
	}
}

func TestHLLPrecisionClamped(t *testing.T) {
	if got := len(NewHLL(1).regs); got != 16 {
		t.Errorf("p<4 should clamp to 16 regs, got %d", got)
	}
	if got := len(NewHLL(30).regs); got != 1<<16 {
		t.Errorf("p>16 should clamp, got %d", got)
	}
}

func TestHLLEmptyEstimate(t *testing.T) {
	h := NewHLL(10)
	if est := h.Estimate(); est != 0 {
		t.Errorf("empty estimate = %v", est)
	}
}

// TestInvPow2Table holds Estimate's register table to the per-register
// division it replaces, bit for bit, for every register value.
func TestInvPow2Table(t *testing.T) {
	for i := 0; i < 256; i++ {
		v := uint8(i)
		want := 1 / float64(uint64(1)<<v)
		if math.Float64bits(invPow2[v]) != math.Float64bits(want) {
			t.Errorf("invPow2[%d] = %v, want %v", v, invPow2[v], want)
		}
	}
}
