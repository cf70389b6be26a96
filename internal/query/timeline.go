package query

import "ipscope/internal/ipv4"

// The sharing rule between an Applier and the snapshots it publishes.
//
// A block's timelines are one host-major array at the full window width
// (fullWords words per host), and every snapshot shares it: a publish
// copies no timeline. Day d only ever sets bit d%64 of word d/64, so
// word k is sealed — no later day touches it — once day 64k+63, or the
// window's last day, is applied. Until then the word's days live only in
// the block's day tail, one host bitmap per applied day, appended. The
// ingest goroutine alone writes the array, and writes each word once:
// the day that seals word k writes it whole from the tail
// (Applier.seal), after that day's fresh blocks have joined the keys and
// before any snapshot can read the word from the array.
//
// A snapshot of n days reads its sealed words from the array and the one
// word still open, n/64 (when n is not a multiple of 64 and the window
// is still open), from the tail. The applier only ever appends past a
// published tail's length and starts a new tail for each word, so
// nothing a reader loads is written after it was published.
//
// Build's fill writes every word at once, its window closing with the
// fill, so it keeps no tail. A resumed applier (ResumeApplier) copies a
// mid-word checkpoint's open word into the array and rebuilds the tail
// from it: the array's copy is read by no snapshot, since the tail holds
// the same days, and the seal overwrites it with the tail's words.

// tailDays is one timeline word's days as host bitmaps: element i holds
// the hosts active on the word's day i. Days after the block's last
// active one may be missing; they were inactive.
type tailDays []ipv4.Bitmap256

// hostWord returns host h's timeline word, gathered from the days.
func (t tailDays) hostWord(h int) uint64 {
	q, s := h>>6, uint(h&63)
	var w uint64
	for i := range t {
		w |= (t[i][q] >> s & 1) << uint(i)
	}
	return w
}

// words returns every host's timeline word: the days transposed, 64
// hosts at a time (a quarter of the block no day touched stays zero).
func (t tailDays) words() (out [256]uint64) {
	for q := 0; q < 4; q++ {
		var m [64]uint64
		var any uint64
		for i := range t {
			m[i] = t[i][q]
			any |= m[i]
		}
		if any != 0 {
			transpose64(&m)
			copy(out[64*q:], m[:])
		}
	}
	return out
}

// dayTail is an accumulator's days of timeline word `word`.
type dayTail struct {
	word int
	days tailDays
}

// newTail returns an empty tail for timeline word `word` of a window of
// `window` days, sized for every day of the word the window holds, so
// appends never move it.
func newTail(word, window int) dayTail {
	return dayTail{word: word, days: make(tailDays, 0, min(64, window-64*word))}
}

// push appends day's active hosts, padding the inactive days before it.
// A day of a later word starts a new tail.
func (t *dayTail) push(day int, bm *ipv4.Bitmap256, window int) {
	if word := day / 64; t.days == nil || t.word != word {
		*t = newTail(word, window)
	}
	for len(t.days) < day%64 {
		t.days = append(t.days, ipv4.Bitmap256{})
	}
	t.days = append(t.days, *bm)
}

// tailFrom rebuilds the tail of timeline word `word` holding days
// [64*word, n) from that word of a host-major array of `stride` words
// per host: the inverse of tailDays.words.
func tailFrom(timelines []uint64, stride, word, n, window int) dayTail {
	t := newTail(word, window)
	t.days = t.days[:n-64*word]
	for q := 0; q < 4; q++ {
		var m [64]uint64
		for j := range m {
			m[j] = timelines[(64*q+j)*stride+word]
		}
		transpose64(&m)
		for i := range t.days {
			t.days[i][q] = m[i]
		}
	}
	return t
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of m[i]
// moves to bit i of m[j]. Each round swaps the off-diagonal halves of
// every diagonal block of the round's size j, halving it.
func transpose64(m *[64]uint64) {
	mask := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, mask = j>>1, mask^(mask<<uint(j>>1)) {
		s := uint(j) & 63
		for base := 0; base < 64; base += 2 * j {
			lo, hi := m[base:base+j], m[base+j:]
			hi = hi[:len(lo)]
			for k := range lo {
				t := (lo[k]>>s ^ hi[k]) & mask
				hi[k] ^= t
				lo[k] ^= t << s
			}
		}
	}
}

// timeline appends host h's packed timeline in bd — x.words words — to
// dst: the one way an index reads a timeline. The words before x.open
// come from the block's array; the open word comes from open[h] when the
// caller has transposed the block's tail already (an encoder, which
// needs every host), and is gathered from the tail otherwise.
func (x *Index) timeline(dst []uint64, bd *blockData, h int, open *[256]uint64) []uint64 {
	row := bd.timelines[h*x.stride:]
	if x.open < 0 {
		return append(dst, row[:x.words]...)
	}
	dst = append(dst, row[:x.open]...)
	if open != nil {
		return append(dst, open[h])
	}
	return append(dst, bd.tail.hostWord(h))
}
