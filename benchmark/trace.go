package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanID indexes recorder.spans; noSpan marks a root's parent and is
// what a nil recorder hands out.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, recorded from the benchmark's
// own files around the layer's public functions. Times are nanoseconds
// since the recorder started.
type span struct {
	Name   string `json:"name"`
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Trace  int32  `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine. begin and end on a nil *recorder do nothing, so code
// shared with the untraced end-to-end run needs no second path.
type recorder struct {
	t0     time.Time
	spans  []span
	traces int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (noSpan starts a new trace).
func (r *recorder) begin(name string, parent spanID) spanID {
	if r == nil {
		return noSpan
	}
	return r.open(name, parent, time.Now())
}

// open is begin with an explicit start time.
func (r *recorder) open(name string, parent spanID, at time.Time) spanID {
	id := spanID(len(r.spans))
	s := span{Name: name, ID: id, Parent: parent, Start: at.Sub(r.t0).Nanoseconds(), End: -1}
	if parent == noSpan {
		r.traces++
		s.Trace = r.traces
	} else {
		s.Trace = r.spans[parent].Trace
	}
	r.spans = append(r.spans, s)
	return id
}

// end closes a span.
func (r *recorder) end(id spanID) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
}

// add records a span whose interval was observed from outside (the
// gap between two sink calls is the decoder's time).
func (r *recorder) add(name string, parent spanID, from, to time.Time) {
	id := r.open(name, parent, from)
	r.spans[id].End = to.Sub(r.t0).Nanoseconds()
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover.
func (r *recorder) finish() {
	kids := make(map[spanID][]spanID)
	for _, s := range r.spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return r.spans[ch[a]].Start < r.spans[ch[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(r.spans[c].Start, edge), min(r.spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// durations returns the length in nanoseconds of every span called
// name, in recording order.
func (r *recorder) durations(name string) []float64 {
	var d []float64
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
