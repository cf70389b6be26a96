package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"ipscope/internal/serve/wire"
)

// TestEpochTurnover races readers against a publisher over a 2-deep
// window, so nearly every request names an epoch a publish is about to
// drop — the traffic ?epoch=, /v1/delta and /v1/movement exist for.
// Whichever side wins, a request answers from one published state: never
// a panic, only the 200 or the documented 404, and nothing in one
// response contradicts anything else in it. Run under -race.
func TestEpochTurnover(t *testing.T) {
	const (
		readers    = 4
		iters      = 100 // per reader, at least
		turnovers  = 200 // publishes the readers must have raced, at least
		firstEpoch = 100
	)
	base := snapshots(t, 1)[0]
	srv := New(nil, Config{RetainEpochs: 2})
	h := srv.Handler()
	srv.Publish(base.AtEpoch(firstEpoch))
	srv.Publish(base.AtEpoch(firstEpoch + 1))

	// Every epoch holds the same data, so what epoch E answers for path
	// while it is live is the fixture's view stamped E.
	blk := base.Blocks()[0]
	view, _ := base.Block(blk)
	path := "/v1/block/" + blk.String()
	liveAt := func(e uint64) []byte {
		_, body := wire.Encode(http.StatusOK, view, e)
		return body
	}

	var published atomic.Int64
	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for e := uint64(firstEpoch + 2); ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.Publish(base.AtEpoch(e))
			published.Add(1)
		}
	}()

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	// refused checks the documented 404 for a request that named asked
	// (in blame order): the body is NotRetainedBody of a range that does
	// not contain the epoch it refuses.
	refused := func(url string, rec *httptest.ResponseRecorder, asked ...uint64) error {
		var rb wire.EpochRangeBody
		if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
			return fmt.Errorf("%s: 404 body %q: %v", url, rec.Body, err)
		}
		for _, e := range asked {
			if e >= rb.OldestEpoch && e <= rb.NewestEpoch {
				continue
			}
			if want := wire.NotRetainedBody(e, rb.OldestEpoch, rb.NewestEpoch); !bytes.Equal(rec.Body.Bytes(), want) {
				return fmt.Errorf("%s: 404 body %q, want %q", url, rec.Body, want)
			}
			return nil
		}
		return fmt.Errorf("%s: refused, but the 404 names a range holding every epoch asked: %s", url, rec.Body)
	}
	read := func() error {
		hb := srv.Health()
		if hb.Epoch != hb.NewestEpoch {
			return fmt.Errorf("healthz: epoch %d, newestEpoch %d", hb.Epoch, hb.NewestEpoch)
		}
		if ci := srv.ClusterInfo(); ci.Epoch != ci.NewestEpoch {
			return fmt.Errorf("cluster/info: epoch %d, newestEpoch %d", ci.Epoch, ci.NewestEpoch)
		}
		from, to := hb.OldestEpoch, hb.NewestEpoch
		if from == to { // the window holds two epochs from the start
			return fmt.Errorf("healthz: retained range %d..%d", from, to)
		}

		for _, ep := range []string{"/v1/delta", "/v1/cluster/delta"} {
			url := fmt.Sprintf("%s?from=%d&to=%d", ep, from, to)
			switch rec := get(url); rec.Code {
			case http.StatusOK:
				var body struct {
					Epoch, FromEpoch, ToEpoch, RingOldest, RingNewest uint64
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					return fmt.Errorf("%s: %v", url, err)
				}
				if body.Epoch != to || body.FromEpoch != from || body.ToEpoch != to || rec.Header().Get("ETag") != wire.ETagFor(to) {
					return fmt.Errorf("%s: ETag %s, body %s", url, rec.Header().Get("ETag"), rec.Body)
				}
				if ep == "/v1/cluster/delta" && (from < body.RingOldest || to > body.RingNewest) {
					return fmt.Errorf("%s: answered, from a ring %d..%d that does not hold the span", url, body.RingOldest, body.RingNewest)
				}
			case http.StatusNotFound:
				if err := refused(url, rec, from, to); err != nil {
					return err
				}
			default:
				return fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
			}
		}

		for _, url := range []string{"/v1/movement", "/v1/cluster/movement"} {
			rec := get(url)
			var body struct {
				Epoch, NewestEpoch, RingNewest uint64
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
				return fmt.Errorf("%s: status %d (%v): %s", url, rec.Code, err, rec.Body)
			}
			if body.NewestEpoch != body.Epoch || rec.Header().Get("ETag") != wire.ETagFor(body.Epoch) ||
				(url == "/v1/cluster/movement" && body.RingNewest != body.Epoch) {
				return fmt.Errorf("%s: ETag %s, body %s", url, rec.Header().Get("ETag"), rec.Body)
			}
		}

		for _, e := range []uint64{from, to} {
			url := fmt.Sprintf("%s?epoch=%d", path, e)
			switch rec := get(url); rec.Code {
			case http.StatusOK:
				if !bytes.Equal(rec.Body.Bytes(), liveAt(e)) || rec.Header().Get("ETag") != wire.ETagFor(e) {
					return fmt.Errorf("%s: ETag %s, body %q, want the live capture %q", url, rec.Header().Get("ETag"), rec.Body, liveAt(e))
				}
			case http.StatusNotFound:
				if err := refused(url, rec, e); err != nil {
					return err
				}
			default:
				return fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters || published.Load() < turnovers; i++ {
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pub.Wait()
}
