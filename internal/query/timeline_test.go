package query

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
)

// TestTranspose64 is the property test of the bit transpose behind a
// live encode and a mid-word resume: it matches the definition on random
// matrices of several densities and is its own inverse. Through a day
// tail, the transposed words match the per-host gather and tailFrom
// rebuilds the days from them.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var m [64]uint64
		for i := range m {
			switch trial % 3 {
			case 0:
				m[i] = rng.Uint64()
			case 1:
				m[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			default:
				m[i] = 1 << uint(rng.Intn(64))
			}
		}
		got := m
		transpose64(&got)
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				if got[j]>>uint(i)&1 != m[i]>>uint(j)&1 {
					t.Fatalf("trial %d: bit %d of row %d is %d, want bit %d of row %d (%d)",
						trial, i, j, got[j]>>uint(i)&1, j, i, m[i]>>uint(j)&1)
				}
			}
		}
		if transpose64(&got); got != m {
			t.Fatalf("trial %d: transposing twice is not the identity", trial)
		}
	}

	// Word 1 of a 100-day window: a tail of 1, 17 and all 36 of its days,
	// with inactive days the block skips.
	const window, stride = 100, 2
	for _, n := range []int{65, 81, 100} {
		var tail dayTail
		for day := 64; day < n; day++ {
			if rng.Intn(4) == 0 && day != 64 {
				continue
			}
			bm := ipv4.Bitmap256{rng.Uint64(), rng.Uint64() & rng.Uint64(), 0, 1 << uint(day%64)}
			tail.push(day, &bm, window)
		}
		words := tail.days.words()
		timelines := make([]uint64, 256*stride)
		for h := 0; h < 256; h++ {
			if got, want := words[h], tail.days.hostWord(h); got != want {
				t.Fatalf("n=%d host %d: transposed word %#x, gathered %#x", n, h, got, want)
			}
			timelines[h*stride+1] = words[h]
		}
		back := tailFrom(timelines, stride, 1, n, window)
		if back.word != 1 || len(back.days) != n-64 || cap(back.days) != window-64 {
			t.Fatalf("n=%d: rebuilt tail is word %d, %d days, cap %d", n, back.word, len(back.days), cap(back.days))
		}
		for i, bm := range back.days {
			var want ipv4.Bitmap256
			if i < len(tail.days) {
				want = tail.days[i]
			}
			if bm != want {
				t.Fatalf("n=%d: rebuilt day %d is %v, want %v", n, 64+i, bm, want)
			}
		}
	}
}

// allocated returns the bytes and objects the heap gave out while f ran:
// process-wide counters, so the goroutines f fans out to count too.
func allocated(f func()) (n, objects int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc), int(after.Mallocs - before.Mallocs)
}

// TestSnapshotAllocsProportional is the exact gate on what a publish
// allocates: one Snapshot after one applied day of the 70-day window,
// at a mid-word epoch and at epoch 65, the first past the seal of word
// 0. The epoch's block records, AS fold and summary cost a constant per
// indexed block plus a fixed term, and no object per block at all
// (measured: 288–295 bytes a block with the fixed term, 48 objects).
// There is no timeline term: copying each dirty block's words adds
// 256 × words × 8 bytes and an object a block — 2 KB a block at the
// mid-word epoch, 4 KB at epoch 65.
func TestSnapshotAllocsProportional(t *testing.T) {
	const (
		perBlock   = 256 // a blockData record is 216 bytes
		fixed      = 32 << 10
		maxObjects = 80
	)
	measure := map[int]bool{40: true, 65: true}
	a := NewApplier(Options{Workers: 4})
	for _, e := range liveEvents(t) {
		if err := a.Observe(e); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.(obs.DayEvent); !ok {
			continue
		}
		var x *Index
		var err error
		b, objects := allocated(func() { x, err = a.Snapshot() })
		if err != nil {
			t.Fatal(err)
		}
		if !measure[x.DailyLen()] {
			continue
		}
		delete(measure, x.DailyLen())
		if bound := perBlock*x.NumBlocks() + fixed; b > bound || objects > maxObjects {
			t.Errorf("epoch %d (%d days, %d blocks): Snapshot allocated %d bytes in %d objects, want at most %d bytes (%d a block + %d) in %d objects",
				x.Epoch(), x.DailyLen(), x.NumBlocks(), b, objects, bound, perBlock, fixed, maxObjects)
		}
	}
	if len(measure) != 0 {
		t.Errorf("epochs never measured: %v", measure)
	}
}

// TestApplyDayAllocs is the exact gate on what applying one day
// allocates, on four workers, pinned (go1.24, linux/amd64) with 50 %
// headroom on the bytes and one object: at day 40, mid-word, 160 bytes
// in 1 object, the day's AS set; at day 63, which seals word 0, 568
// bytes in 13 objects, the seal's fan-out added. A goroutine the
// scheduler has no free descriptor for costs one more, 448 bytes, so the
// seal day is also allowed one per worker. Neither day has a term per
// block: the seal transposes each block's tail on the stack. A map per
// day for the AS set costs 1,328 bytes in 10 objects. A day that brings
// a fresh block or grows a per-day series allocates more, so the pinned
// days have neither.
func TestApplyDayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts are pinned without -race, whose instrumentation allocates")
	}
	const workers, gBytes = 4, 448
	pinned := map[int]struct{ bytes, objects, goroutines int }{
		40: {160, 1, 0},
		63: {568, 13, workers},
	}
	a := NewApplier(Options{Workers: workers})
	for _, e := range liveEvents(t) {
		var err error
		b, objects := allocated(func() { err = a.Observe(e) })
		if err != nil {
			t.Fatal(err)
		}
		day, ok := e.(obs.DayEvent)
		if !ok {
			continue
		}
		if _, err := a.Snapshot(); err != nil {
			t.Fatal(err)
		}
		p, ok := pinned[day.Index]
		if !ok {
			continue
		}
		delete(pinned, day.Index)
		if b > p.bytes*3/2+p.goroutines*gBytes || objects > p.objects+1+p.goroutines {
			t.Errorf("day %d: applying it allocated %d bytes in %d objects; pinned at %d bytes in %d objects (+50 %%, +1, +%d goroutines)",
				day.Index, b, objects, p.bytes, p.objects, p.goroutines)
		}
	}
	if len(pinned) != 0 {
		t.Errorf("days never applied: %v", pinned)
	}
}

// TestBuildAllocs pins what a Build of testData allocates on one worker:
// 1,611 KB in 4,334 objects when pinned (go1.24, linux/amd64), with 5 %
// headroom on the bytes and 3 % on the objects. Build's window closes
// with its fill, so no block needs a day tail: building one anyway adds
// 896 bytes and an object a block here, 13 % and 5.5 %.
func TestBuildAllocs(t *testing.T) {
	const (
		pinnedBytes   = 1_611_000
		pinnedObjects = 4_334
	)
	if raceEnabled {
		t.Skip("counts are pinned without -race, whose instrumentation allocates ≈ 250 objects more here")
	}
	d := testData(t)
	var err error
	b, objects := allocated(func() { _, err = Build(d, Options{Workers: 1}) })
	if err != nil {
		t.Fatal(err)
	}
	if b > pinnedBytes*105/100 || objects > pinnedObjects*103/100 {
		t.Errorf("Build allocated %d bytes in %d objects; pinned at %d bytes in %d objects (+5 %%, +3 %%)",
			b, objects, pinnedBytes, pinnedObjects)
	}
}

// timelineSection returns the timeline section of a snapshot encoding.
func timelineSection(t *testing.T, enc []byte) []byte {
	t.Helper()
	e := enc[snapPrefaceLen+snapTableEntry*(secTimelines-1):]
	off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
	return enc[off : off+n]
}

// TestPublishedEpochsImmutable pins the sharing rule from the readers'
// side. Every epoch published while the 70-day stream is applied is
// kept, and two reader goroutines render every address of every kept
// epoch and re-encode it while the applier goes on writing the arrays
// those epochs share: across the seal of word 0 at day 64 and past the
// window's close at day 70. Each epoch must keep the bytes captured at
// its publish, and under -race no reader may load a word the applier
// writes after that publish. At epochs whose open word comes from a
// tail, at the repack of day 64 and at the closed window, the captured
// timeline section is also held to that of Build over the truncated
// dataset, whose window closes at the cut (so its meta, and the
// sections derived from it, differ).
func TestPublishedEpochsImmutable(t *testing.T) {
	events, d := liveRun(t)
	type capture struct {
		x   *Index
		enc []byte
	}
	check := func(c capture) {
		if !bytes.Equal(EncodeSnapshot(c.x, nil), c.enc) {
			t.Errorf("epoch %d: the encoding moved after its publish", c.x.Epoch())
			return
		}
		l, err := DecodeSnapshot(c.enc)
		if err != nil {
			t.Error(err)
			return
		}
		ref := l.Index
		for i, blk := range c.x.Blocks() {
			for h := 0; h < 256; h++ {
				got := c.x.Addr(blk.Addr(byte(h)))
				want := ref.timeline(nil, &ref.blocks[i], h, nil)
				if active := lastBit(want) >= 0; got.Active != active || (active && got.Timeline != timelineHex(want)) {
					t.Errorf("epoch %d %v: Addr timeline %q (active %v), captured %x", c.x.Epoch(), blk.Addr(byte(h)), got.Timeline, got.Active, want)
					return
				}
			}
		}
	}

	// Room for every publish: the applier never waits for a reader, so
	// nothing orders a reader's loads after the writes that follow.
	jobs := make(chan capture, len(events))
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				check(c)
			}
		}()
	}

	oracle := map[int]bool{30: true, 63: true, 64: true, 65: true, 69: true, 70: true}
	var kept []capture
	a := NewApplier(Options{})
	driveLive(t, a, events, func(int) {
		c := capture{x: a.prev, enc: EncodeSnapshot(a.prev, nil)}
		kept = append(kept, c)
		jobs <- c
		if n := c.x.DailyLen(); oracle[n] && c.x.Epoch() == uint64(n) {
			ref, err := Build(d.TruncateLive(n), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(timelineSection(t, EncodeSnapshot(ref, nil)), timelineSection(t, c.enc)) {
				t.Errorf("epoch %d: timelines differ from Build's over the first %d days", c.x.Epoch(), n)
			}
		}
	})
	close(jobs)
	wg.Wait()
	if len(kept) != 71 {
		t.Fatalf("%d epochs published, want 71", len(kept))
	}
	// And once more after the stream: the applier wrote everything it
	// ever will.
	for _, c := range kept {
		if !bytes.Equal(EncodeSnapshot(c.x, nil), c.enc) {
			t.Errorf("epoch %d: the encoding moved after the stream ended", c.x.Epoch())
		}
	}
}
