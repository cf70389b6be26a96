package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"ipscope/internal/synthnet"
)

// TestParse is argv → options for every mode, and the error for every
// refused invocation.
func TestParse(t *testing.T) {
	// base is what no flag leaves in the options: the defaults.
	base := func(mod func(*options)) options {
		o := options{world: synthnet.Config{Seed: 1, NumASes: 300, MeanBlocksPerAS: 12}, days: 364}
		mod(&o)
		return o
	}
	for _, tc := range []struct {
		argv string
		want options
		err  string // a substring of the error; "" = accepted
	}{
		{argv: "-dataset -", want: base(func(o *options) { o.dataset = "-" })},
		{argv: "-connect 127.0.0.1:9 -day-delay 10ms",
			want: base(func(o *options) { o.connect, o.dayDelay = "127.0.0.1:9", 10*time.Millisecond })},
		{argv: "-seed 3 -ases 24 -blocks-per-as 6 -days 56 -dataset w.obs -connect :9",
			want: base(func(o *options) {
				o.world = synthnet.Config{Seed: 3, NumASes: 24, MeanBlocksPerAS: 6}
				o.days, o.dataset, o.connect = 56, "w.obs", ":9"
			})},
		{argv: "-ases 1 -blocks-per-as 1 -days 1 -dataset w.obs",
			want: base(func(o *options) {
				o.world.NumASes, o.world.MeanBlocksPerAS, o.days, o.dataset = 1, 1, 1, "w.obs"
			})},

		{argv: "", err: "give -dataset, -connect or both"},
		{argv: "-seed 3 -days 56", err: "give -dataset, -connect or both"},
		{argv: "-ases 0 -days 10 -dataset t.obs", err: "-ases 0: must be at least 1"},
		{argv: "-blocks-per-as -2 -dataset t.obs", err: "-blocks-per-as -2: must be at least 1"},
		{argv: "-days -5 -dataset t.obs", err: "-days -5: must be at least 1"},
		{argv: "-days 0 -connect :9", err: "-days 0: must be at least 1"},
		{argv: "-prefix out/world", err: "flag provided but not defined: -prefix"},
		{argv: "-dataset t.obs -prefix out/world", err: "flag provided but not defined: -prefix"},
	} {
		fs := flag.NewFlagSet("ipscope-gen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parse(fs, strings.Fields(tc.argv))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.argv, err)
		case tc.err == "":
			if o != tc.want {
				t.Errorf("%q:\n got %+v\nwant %+v", tc.argv, o, tc.want)
			}
		case err == nil || !strings.Contains(err.Error(), tc.err):
			t.Errorf("%q: error %v, want one containing %q", tc.argv, err, tc.err)
		}
	}
}
