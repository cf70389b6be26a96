package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipscope/internal/cluster"
)

// TestParse is argv → options for every accepted invocation, and the
// error for every refused one.
func TestParse(t *testing.T) {
	// base is what no flag but -shards leaves in the options: the defaults.
	base := func(mod func(*options)) options {
		o := options{
			urls: []string{"http://a:1"},
			router: cluster.RouterOptions{
				Transport:     cluster.TransportHTTP,
				InfoTimeout:   cluster.DefaultInfoTimeout,
				Replicas:      1,
				ProbeInterval: cluster.DefaultProbeInterval,
			},
			listen: "127.0.0.1:8095",
		}
		mod(&o)
		return o
	}
	for _, tc := range []struct {
		argv string
		want options
		err  string // a substring of the error; "" = accepted
	}{
		{argv: "-shards http://a:1", want: base(func(o *options) {})},
		{argv: "-shards http://a:1/,,http://b:2/ -replicas 2 -listen :0 -transport rpc -info-timeout 5s -probe-every -1s -pprof :7",
			want: base(func(o *options) {
				o.urls, o.listen, o.pprof = []string{"http://a:1", "http://b:2"}, ":0", ":7"
				o.router.Replicas, o.router.Transport = 2, cluster.TransportRPC
				o.router.InfoTimeout, o.router.ProbeInterval = 5*time.Second, -time.Second
			})},

		{argv: "", err: "-shards is empty"},
		{argv: "-shards , -replicas 2", err: "-shards is empty"},
		{argv: "-shards http://a:1 -replicas 0", err: "-replicas 0 must be >= 1"},
		{argv: "-shards http://a:1 -replicas -2", err: "-replicas -2 must be >= 1"},
		{argv: "-shards http://a:1 -no-such-flag", err: "flag provided but not defined"},
	} {
		fs := flag.NewFlagSet("ipscope-router", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parse(fs, strings.Fields(tc.argv))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.argv, err)
		case tc.err == "":
			if !reflect.DeepEqual(o, tc.want) {
				t.Errorf("%q:\n got %+v\nwant %+v", tc.argv, o, tc.want)
			}
		case err == nil || !strings.Contains(err.Error(), tc.err):
			t.Errorf("%q: error %v, want one containing %q", tc.argv, err, tc.err)
		}
	}
}
