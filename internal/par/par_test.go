package par

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestSplitCoversAndBalances(t *testing.T) {
	cases := []struct{ n, w int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 3}, {8, 8}, {100, 7}, {5, 100},
	}
	for _, c := range cases {
		rs := Split(c.n, c.w)
		if c.n == 0 {
			if rs != nil {
				t.Fatalf("Split(0,%d) = %v, want nil", c.w, rs)
			}
			continue
		}
		if len(rs) > c.w && c.w > 0 {
			t.Fatalf("Split(%d,%d): %d shards > %d workers", c.n, c.w, len(rs), c.w)
		}
		next := 0
		for _, r := range rs {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("Split(%d,%d) = %v: not contiguous non-empty", c.n, c.w, rs)
			}
			next = r.Hi
		}
		if next != c.n {
			t.Fatalf("Split(%d,%d) covers [0,%d), want [0,%d)", c.n, c.w, next, c.n)
		}
		// Balanced: sizes differ by at most one.
		min, max := c.n, 0
		for _, r := range rs {
			s := r.Hi - r.Lo
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("Split(%d,%d) unbalanced: %v", c.n, c.w, rs)
		}
	}
}

// TestSplitDeterministic: shard boundaries are a pure function of (n, w).
func TestSplitDeterministic(t *testing.T) {
	a, b := Split(1000, 7), Split(1000, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Split not deterministic")
	}
}

func TestForEachShardEdgeCases(t *testing.T) {
	// w=1: a single shard covering everything, run inline.
	var got []Range
	ForEachShard(10, 1, func(shard, lo, hi int) {
		got = append(got, Range{lo, hi})
	})
	if !reflect.DeepEqual(got, []Range{{0, 10}}) {
		t.Fatalf("w=1: %v", got)
	}
	// w > n: no more shards than items, every item visited once.
	var visits [5]int32
	ForEachShard(5, 64, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("item %d visited %d times", i, v)
		}
	}
	// n=0: fn never called.
	ForEachShard(0, 4, func(int, int, int) { t.Fatal("called for n=0") })
}

// TestMapDeterministicAcrossWorkerCounts is the package's determinism
// contract: identical output for any worker count.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }
	want := Map(1000, 1, fn)
	for _, w := range []int{2, 3, 8, 1000, 5000} {
		if got := Map(1000, w, fn); !reflect.DeepEqual(got, want) {
			t.Fatalf("Map differs at w=%d", w)
		}
	}
}

func TestForEachCountsEveryIndex(t *testing.T) {
	var sum atomic.Int64
	ForEach(1000, 8, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 999*1000/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	var g Group
	g.SetLimit(2)
	boom := errors.New("boom")
	for i := 0; i < 8; i++ {
		i := i
		g.Go(func() error {
			if i == 3 {
				return boom
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	var ok Group
	ok.Go(func() error { return nil })
	if err := ok.Wait(); err != nil {
		t.Fatalf("Wait = %v, want nil", err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("Workers(3)")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("Workers must be >= 1")
	}
}
