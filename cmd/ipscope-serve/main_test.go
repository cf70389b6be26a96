package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"ipscope/internal/node"
)

// TestParse is argv → node.Config for every mode, and the error for every
// refused combination.
func TestParse(t *testing.T) {
	// base is what no flag leaves in the Config: the defaults.
	base := func(mod func(*node.Config)) node.Config {
		c := node.Config{Listen: "127.0.0.1:8090", SnapshotKeep: 3}
		mod(&c)
		return c
	}
	for _, tc := range []struct {
		argv string
		want node.Config
		err  string // a substring of the error; "" = accepted
	}{
		{argv: "-dataset w.obs", want: base(func(c *node.Config) { c.Dataset = "w.obs" })},
		{argv: "-dataset w.obs -listen :0 -rpc-listen :1 -retain-epochs 8 -snapshot-save w.ipsnap",
			want: base(func(c *node.Config) {
				c.Dataset, c.Listen, c.RPCListen, c.SnapshotSave = "w.obs", ":0", ":1", "w.ipsnap"
				c.Serve.RetainEpochs = 8
			})},
		{argv: "-dataset w.obs -shard-index 1 -shard-count 2 -replica 3",
			want: base(func(c *node.Config) { c.Dataset, c.ShardIndex, c.ShardCount, c.Replica = "w.obs", 1, 2, 3 })},
		{argv: "-dataset w.obs -shard-count 1 -replica 1",
			want: base(func(c *node.Config) { c.Dataset, c.ShardCount, c.Replica = "w.obs", 1, 1 })},
		{argv: "-snapshot-load w.ipsnap -replica 2 -dump-summary",
			want: base(func(c *node.Config) { c.SnapshotLoad, c.Replica = "w.ipsnap", 2 })},
		{argv: "-follow w.obs -shard-index 0 -shard-count 2",
			want: base(func(c *node.Config) { c.Follow, c.ShardCount = "w.obs", 2 })},
		{argv: "-obs-listen :9 -snapshot-dir snaps -snapshot-keep 1",
			want: base(func(c *node.Config) { c.ObsListen, c.SnapshotDir, c.SnapshotKeep = ":9", "snaps", 1 })},

		{argv: "", err: "exactly one of"},
		{argv: "-listen :0 -dump-summary", err: "exactly one of"},
		{argv: "-dataset w.obs -snapshot-load w.ipsnap", err: "exactly one of"},
		{argv: "-dataset w.obs -follow w.obs", err: "exactly one of"},
		{argv: "-dataset w.obs -obs-listen :9", err: "exactly one of"},
		{argv: "-snapshot-load w.ipsnap -follow w.obs", err: "exactly one of"},
		{argv: "-follow w.obs -obs-listen :9", err: "exactly one of"},
		{argv: "-follow w.obs -dump-summary", err: "batch flags"},
		{argv: "-obs-listen :9 -snapshot-save w.ipsnap", err: "batch flags"},
		{argv: "-dataset w.obs -snapshot-dir snaps", err: "-snapshot-dir requires a live mode"},
		{argv: "-snapshot-load w.ipsnap -shard-count 2", err: "drop -shard-count"},
		{argv: "-dataset w.obs -shard-index 1", err: "-shard-index 1 requires -shard-count"},
		{argv: "-dataset w.obs -shard-index 2 -shard-count 2", err: "-shard-index 2 outside 0..1"},
		{argv: "-dataset w.obs -shard-index -1 -shard-count 2", err: "-shard-index -1 outside 0..1"},
		{argv: "-dataset w.obs -shard-count 2 -replica -1", err: "-replica -1 must be >= 0"},
		{argv: "-dataset w.obs -replica 1", err: "-replica requires a partition identity"},
		{argv: "-obs-listen :9 -snapshot-dir snaps -snapshot-keep 0", err: "-snapshot-keep 0 must be >= 1"},
		{argv: "-obs-listen :9 -snapshot-keep -2", err: "-snapshot-keep -2 must be >= 1"},
		{argv: "-dataset w.obs -retain-epochs -1", err: "-retain-epochs -1 must be >= 0"},
		{argv: "-dataset w.obs -no-such-flag", err: "flag provided but not defined"},
		{argv: "-dataset w.obs -cache 16", err: "flag provided but not defined: -cache"},
		{argv: "-follow w.obs -follow-poll 20ms", err: "flag provided but not defined: -follow-poll"},
	} {
		fs := flag.NewFlagSet("ipscope-serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parse(fs, strings.Fields(tc.argv))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.argv, err)
		case tc.err == "":
			if o.node != tc.want {
				t.Errorf("%q:\n got %+v\nwant %+v", tc.argv, o.node, tc.want)
			}
			if want := strings.Contains(tc.argv, "-dump-summary"); o.dumpSummary != want {
				t.Errorf("%q: dumpSummary %v, want %v", tc.argv, o.dumpSummary, want)
			}
		case err == nil || !strings.Contains(err.Error(), tc.err):
			t.Errorf("%q: error %v, want one containing %q", tc.argv, err, tc.err)
		}
	}
}
