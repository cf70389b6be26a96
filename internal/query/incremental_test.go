package query

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ipscope/internal/ipv4"
	"ipscope/internal/obs"
	"ipscope/internal/sim"
	"ipscope/internal/synthnet"
)

var _ obs.Sink = (*Applier)(nil)

// cutStream returns the length of the emission-order prefix a live
// consumer has seen at the moment day `cut` of the daily window closed:
// everything before the next day event, any week/ICMP event that closes
// later, and the end-of-stream aggregates. The per-series keep counts
// come from TruncateLive itself, so the prefix and the reference
// dataset agree by construction.
func cutStream(events []obs.Event, ref *obs.Data, cut int) int {
	wkKeep, scanKeep := len(ref.Weekly), len(ref.ICMPScans)
	for i, e := range events {
		switch ev := e.(type) {
		case obs.DayEvent:
			if ev.Index >= cut {
				return i
			}
		case obs.WeekEvent:
			if ev.Index >= wkKeep {
				return i
			}
		case obs.ICMPScanEvent:
			if ev.Index >= scanKeep {
				return i
			}
		case obs.BlockStatsEvent, obs.SurfacesEvent:
			return i
		}
	}
	return len(events)
}

// TestApplierEquivalence is the tentpole invariant: applying days 1..N
// of the live stream and publishing must be view-identical — byte for
// byte across summary, block, address, AS and prefix views — to Build
// over the dataset truncated to those N days, for several N and worker
// counts. The applier publishes at every cut along the way, so later
// cuts also exercise the clean-block reuse path against earlier epochs.
// Both sides publish through one compiler — the day-serial fill against
// the block-parallel one — so at every cut the snapshot is also held to
// the oracle that shares none of it (checkAgainstCore).
func TestApplierEquivalence(t *testing.T) {
	type variant struct {
		name string
		cfg  sim.Config
		cuts []int
		// late lists days on which the variant makes one block active
		// for the first time, by dropping it from every earlier day.
		late []int
		// resume lists the cuts after which a third run swaps its
		// applier for one resumed from the cut's checkpoint.
		resume []int
	}
	long := sim.TinyConfig()
	long.Days, long.DailyStart, long.DailyLen = 98, 14, 70
	variants := []variant{
		// Cuts probe the first day, early window, mid-window and the
		// last day of the window.
		{"tiny", sim.TinyConfig(), []int{1, 2, 13, 27, 28}, nil, nil},
		// A >64-day window crosses the timeline word boundary between
		// cuts 64 and 65. Build's window closes at each cut, so the cuts
		// probe the word edges of its fill: 63 ends its last word one day
		// short of full, 64 fills it, 65 and 70 add a partial second word
		// (a cut of 1 is tiny's).
		{"word-boundary", long, []int{50, 63, 64, 65, 70}, nil, nil},
		// A block whose first active day seals a word — 63 seals word 0,
		// 69 the window and with it word 1 — has no other day in the
		// word: the seal must see it among the keys. Both sealing cuts
		// are also resumed from, so a checkpoint of the sealed word must
		// carry it.
		{"fresh-at-seal", long, []int{63, 64, 69, 70}, []int{63, 69}, []int{64, 70}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			w := synthnet.Generate(synthnet.TinyConfig())
			// Record the live emission stream; payloads may be retained
			// without copying (the Sink contract).
			var events []obs.Event
			rec := obs.SinkFunc(func(e obs.Event) error { events = append(events, e); return nil })
			res, err := sim.RunTo(w, v.cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			d := &res.Data
			lateStart(t, events, d, v.late)

			type run struct {
				workers int
				resume  bool
			}
			runs := []run{{1, false}, {5, false}}
			if len(v.resume) > 0 {
				runs = append(runs, run{3, true})
			}
			for _, r := range runs {
				name := fmt.Sprintf("workers=%d", r.workers)
				if r.resume {
					name += "/resumed"
				}
				t.Run(name, func(t *testing.T) {
					workers := r.workers
					a := NewApplier(Options{Workers: workers})
					fed := 0
					for _, cut := range v.cuts {
						trunc := d.TruncateLive(cut)
						end := cutStream(events, trunc, cut)
						for _, e := range events[fed:end] {
							if err := a.Observe(e); err != nil {
								t.Fatalf("observe %T: %v", e, err)
							}
						}
						fed = end
						snap, err := a.Snapshot()
						if err != nil {
							t.Fatalf("snapshot at day %d: %v", cut, err)
						}
						ref, err := Build(trunc, Options{Workers: 3})
						if err != nil {
							t.Fatalf("build truncated(%d): %v", cut, err)
						}
						got, want := marshalIndex(t, snap), marshalIndex(t, ref)
						if !bytes.Equal(got, want) {
							t.Fatalf("day %d: incremental snapshot differs from Build over truncated dataset (%d vs %d bytes)",
								cut, len(got), len(want))
						}
						checkAgainstCore(t, snap, trunc)
						if r.resume && slices.Contains(v.resume, cut) {
							a = resumed(t, a, workers)
						}
					}

					// End of stream: the remaining events (trailing
					// weeks, per-block stats, surfaces) must converge
					// the snapshot onto Build over the full dataset.
					for _, e := range events[fed:] {
						if err := a.Observe(e); err != nil {
							t.Fatalf("observe %T: %v", e, err)
						}
					}
					snap, err := a.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					ref, err := Build(d, Options{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(marshalIndex(t, snap), marshalIndex(t, ref)) {
						t.Fatal("end-of-stream snapshot differs from Build over the full dataset")
					}
					checkAgainstCore(t, snap, d)
				})
			}
		})
	}
}

// lateStart makes, for each day in days, one block first active on that
// day: a block active on it, dropped from every earlier day of the
// recorded stream and of d alike, so the applier and Build see the same
// days. The blocks are distinct.
func lateStart(t *testing.T, events []obs.Event, d *obs.Data, days []int) {
	t.Helper()
	if len(days) == 0 {
		return
	}
	first := map[ipv4.Block]int{}
	for _, day := range days {
		var pick ipv4.Block
		found := false
		for _, blk := range d.Daily[day].Blocks() {
			if _, taken := first[blk]; !taken {
				pick, found = blk, true
				break
			}
		}
		if !found {
			t.Fatalf("no block left to start on day %d", day)
		}
		first[pick] = day
	}
	for i, e := range events {
		ev, ok := e.(obs.DayEvent)
		if !ok {
			continue
		}
		ev.Active = ev.Active.FilterBlocks(func(blk ipv4.Block) bool {
			day, late := first[blk]
			return !late || ev.Index >= day
		})
		events[i], d.Daily[ev.Index] = ev, ev.Active
	}
}

// resumed returns an applier resumed from a's checkpoint, the way a
// restarted node resumes: encoded, decoded and rebuilt.
func resumed(t *testing.T, a *Applier, workers int) *Applier {
	t.Helper()
	enc, err := a.EncodeCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := l.ResumeApplier(Options{Workers: workers})
	if err != nil {
		t.Fatalf("resume at day %d: %v", a.Days(), err)
	}
	return b
}

// TestApplierEpochs pins the epoch contract: Build stamps 1, every
// Snapshot bumps the counter (even without new events), and repeated
// publishes of unchanged state are view-identical.
func TestApplierEpochs(t *testing.T) {
	d := testData(t)
	b, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != 1 {
		t.Errorf("Build epoch = %d, want 1", b.Epoch())
	}

	a := NewApplier(Options{})
	if err := d.WriteTo(a); err != nil {
		t.Fatal(err)
	}
	s1, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() != 1 || s2.Epoch() != 2 || a.Epoch() != 2 {
		t.Errorf("epochs = %d, %d (applier %d), want 1, 2 (2)", s1.Epoch(), s2.Epoch(), a.Epoch())
	}
	if !bytes.Equal(marshalIndex(t, s1), marshalIndex(t, s2)) {
		t.Error("unchanged republish differs from previous snapshot")
	}
}

// TestApplierStreamContract exercises the ordering errors: no events
// before meta, no duplicate meta, sequential day indices, no snapshot
// before the first day, and no day, week or scan past the run.
func TestApplierStreamContract(t *testing.T) {
	d := testData(t)
	meta := obs.MetaEvent{Meta: d.Meta}

	a := NewApplier(Options{})
	if err := a.Observe(obs.DayEvent{Index: 0, Active: d.Daily[0]}); err == nil {
		t.Error("day before meta accepted")
	}
	if _, err := a.Snapshot(); err == nil {
		t.Error("snapshot before meta accepted")
	}

	a = NewApplier(Options{})
	if err := a.Observe(meta); err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(meta); err == nil {
		t.Error("second meta accepted")
	}
	if _, err := a.Snapshot(); err == nil {
		t.Error("snapshot with no days accepted")
	}
	if err := a.Observe(obs.DayEvent{Index: 1, Active: d.Daily[1]}); err == nil {
		t.Error("out-of-order day accepted")
	}
	if err := a.Observe(obs.DayEvent{Index: 0, Active: d.Daily[0]}); err != nil {
		t.Fatal(err)
	}
	if err := a.Observe(obs.DayEvent{Index: 0, Active: d.Daily[0]}); err == nil {
		t.Error("duplicate day accepted")
	}
	if _, err := a.Snapshot(); err != nil {
		t.Errorf("snapshot after first day: %v", err)
	}

	// Frames in sequence but past the run's geometry: an error, not a
	// write past the timelines or a slice of ICMPScanDays out of range.
	a = NewApplier(Options{})
	if err := d.WriteTo(a); err != nil {
		t.Fatal(err)
	}
	run := d.Meta.Run
	for name, e := range map[string]obs.Event{
		"day":  obs.DayEvent{Index: run.DailyLen, Active: d.Daily[0]},
		"week": obs.WeekEvent{Index: run.NumWeeks(), Active: d.Weekly[0]},
		"scan": obs.ICMPScanEvent{Index: len(run.ICMPScanDays), Responders: d.ICMPScans[0]},
	} {
		if err := a.Observe(e); err == nil {
			t.Errorf("%s frame one past the run accepted", name)
		}
	}
	if a.days != run.DailyLen || a.weeks != run.NumWeeks() || a.scans != len(run.ICMPScanDays) {
		t.Errorf("rejected frames moved the applier: days %d, weeks %d, scans %d", a.days, a.weeks, a.scans)
	}
}
