package ipv4

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSetClearTest(t *testing.T) {
	var b Bitmap256
	if !b.IsEmpty() || b.Count() != 0 {
		t.Fatal("zero bitmap should be empty")
	}
	for _, h := range []byte{0, 1, 63, 64, 127, 128, 200, 255} {
		b.Set(h)
		if !b.Test(h) {
			t.Errorf("bit %d not set", h)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
	b.Clear(63)
	if b.Test(63) || b.Count() != 7 {
		t.Error("Clear(63) failed")
	}
	// Idempotency.
	b.Set(0)
	if b.Count() != 7 {
		t.Error("double Set changed count")
	}
}

func TestBitmapForEachOrdered(t *testing.T) {
	var b Bitmap256
	want := []byte{3, 64, 65, 130, 255}
	for _, h := range want {
		b.Set(h)
	}
	var got []byte
	b.ForEach(func(h byte) { got = append(got, h) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// setOps returns a | b, a & b and a &^ b through the in-place forms.
func setOps(a, b Bitmap256) (u, i, d Bitmap256) {
	u, i, d = a, a, a
	u.UnionWith(&b)
	i.IntersectWith(&b)
	d.AndNotWith(&b)
	return u, i, d
}

func TestBitmapSetOps(t *testing.T) {
	var a, b Bitmap256
	for h := 0; h < 256; h += 2 {
		a.Set(byte(h))
	}
	for h := 0; h < 256; h += 3 {
		b.Set(byte(h))
	}
	u, i, d := setOps(a, b)
	// |A ∪ B| = |A| + |B| - |A ∩ B|
	if u.Count() != a.Count()+b.Count()-i.Count() {
		t.Error("inclusion-exclusion violated")
	}
	if d.Count() != a.Count()-i.Count() {
		t.Error("difference count wrong")
	}
	if got := a.IntersectCount(&b); got != i.Count() {
		t.Errorf("IntersectCount = %d, want %d", got, i.Count())
	}
	if got := a.AndNotCount(&b); got != d.Count() {
		t.Errorf("AndNotCount = %d, want %d", got, d.Count())
	}
}

func TestBitmapSetOpsProperty(t *testing.T) {
	f := func(aw, bw [4]uint64) bool {
		a, b := Bitmap256(aw), Bitmap256(bw)
		u, i, d := setOps(a, b)
		if u.Count() != a.Count()+b.Count()-i.Count() {
			return false
		}
		if d.Count()+i.Count() != a.Count() {
			return false
		}
		// De Morgan-ish sanity: (a &^ b) ∩ b == ∅
		if d.IntersectCount(&b) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapCountRange(t *testing.T) {
	var b Bitmap256
	for h := 0; h < 256; h++ {
		b.Set(byte(h))
	}
	cases := []struct {
		lo, hi byte
		want   int
	}{
		{0, 255, 256},
		{0, 0, 1},
		{255, 255, 1},
		{10, 9, 0},
		{60, 70, 11},
		{0, 63, 64},
		{64, 127, 64},
		{100, 200, 101},
	}
	for _, c := range cases {
		if got := b.CountRange(c.lo, c.hi); got != c.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestBitmapCountRangeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var b Bitmap256
		members := make(map[byte]bool)
		for i := 0; i < 40; i++ {
			h := byte(rng.Intn(256))
			b.Set(h)
			members[h] = true
		}
		lo := byte(rng.Intn(256))
		hi := byte(rng.Intn(256))
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for h := int(lo); h <= int(hi); h++ {
			if members[byte(h)] {
				want++
			}
		}
		if got := b.CountRange(lo, hi); got != want {
			t.Fatalf("trial %d: CountRange(%d,%d) = %d, want %d", trial, lo, hi, got, want)
		}
	}
}
