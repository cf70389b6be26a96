package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// newClient returns an HTTP client limited to conns connections per
// host — the load generator's whole connection budget.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeoutSeconds * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// sampled is a response kept for the oracle.
type sampled struct {
	url    string
	status int
	body   []byte
}

// passStats is what one pass of a load generator measured. An
// operation fails on a transport error, a timeout or a 5xx; a failed
// operation has no latency sample.
type passStats struct {
	wall    time.Duration
	next    int // closed loop: where in the sequence the next pass starts
	ok      int
	failed  int
	point   []float64 // latencies, ms
	agg     []float64
	late    []float64 // open loop: how late each request left, ms
	samples []sampled
	hits    int // X-Cache: hit
	misses  int // X-Cache: miss
	byShard map[string]int
}

func (s *passStats) merge(o *passStats) {
	s.ok += o.ok
	s.failed += o.failed
	s.point = append(s.point, o.point...)
	s.agg = append(s.agg, o.agg...)
	s.late = append(s.late, o.late...)
	s.samples = append(s.samples, o.samples...)
	s.hits += o.hits
	s.misses += o.misses
	for k, v := range o.byShard {
		if s.byShard == nil {
			s.byShard = map[string]int{}
		}
		s.byShard[k] += v
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fetch performs one GET and records it into s, timing from t0 (the
// send time in a closed loop, the due time in an open loop). The body
// is returned only when keep is set or the status is 404.
func (s *passStats) fetch(c *http.Client, base, url string, cl class, t0 time.Time, keep bool) (resp *http.Response, body []byte, done time.Time) {
	resp, err := c.Get(base + url)
	if err != nil {
		s.failed++
		return nil, nil, time.Now()
	}
	if keep || resp.StatusCode == http.StatusNotFound {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	done = time.Now()
	if err != nil || resp.StatusCode >= 500 {
		s.failed++
		return nil, nil, done
	}
	s.ok++
	if cl.point() {
		s.point = append(s.point, ms(done.Sub(t0)))
		if sh := resp.Header.Get("X-Shard"); sh != "" {
			if s.byShard == nil {
				s.byShard = map[string]int{}
			}
			s.byShard[sh]++
		}
	} else {
		s.agg = append(s.agg, ms(done.Sub(t0)))
	}
	switch resp.Header.Get("X-Cache") {
	case "hit":
		s.hits++
	case "miss":
		s.misses++
	}
	if keep {
		s.samples = append(s.samples, sampled{url: url, status: resp.StatusCode, body: body})
	}
	return resp, body, done
}

// runClosed drives reqs in order, starting at index from, through a
// closed loop of conns workers, each sending its next request when the
// previous one completes. It stops after limit requests (limit > 0) or
// once dur has elapsed (dur > 0), wrapping around reqs if it outruns
// them; next is the index the following call should start from. One
// response in every keepEvery is kept for the oracle (0 keeps none).
func runClosed(c *http.Client, base string, reqs []request, from, conns, limit int, dur time.Duration, keepEvery int) *passStats {
	var issued atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*passStats, conns)
	var wg sync.WaitGroup
	for w := range parts {
		s := &passStats{}
		parts[w] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(issued.Add(1)) - 1
				if limit > 0 && n >= limit {
					issued.Add(-1)
					return
				}
				t0 := time.Now()
				if dur > 0 && !t0.Before(deadline) {
					issued.Add(-1)
					return
				}
				i := from + n
				r := reqs[i%len(reqs)]
				s.fetch(c, base, r.path, r.class, t0, keepEvery > 0 && i%keepEvery == 0)
			}
		}()
	}
	wg.Wait()
	total := &passStats{wall: time.Since(start), next: from + int(issued.Load())}
	for _, s := range parts {
		total.merge(s)
	}
	return total
}

// maxEpochs bounds the epochs a live-ingest pass can publish (one per
// day plus the final one, with slack).
const maxEpochs = 256

// openReader is live-ingest's second connection: an open-loop reader
// that sends on a fixed schedule whatever the server's state, times
// every request from its due time, and notes when each epoch first
// shows up in a response's ETag — the harness's only view of epoch
// visibility, so publish lag costs no extra polling.
type openReader struct {
	// stats[0] collects until flood() is called, stats[1] after.
	stats   [2]passStats
	flooded atomic.Bool

	mu        sync.Mutex
	newest    uint64
	visibleAt [maxEpochs]time.Time

	stop chan struct{}
	done chan struct{}
}

// startReader begins sending reqs to base at rps over one connection.
// newest seeds the reader's idea of the live epoch.
func startReader(base string, reqs []request, rps float64, newest uint64) *openReader {
	r := &openReader{newest: newest, stop: make(chan struct{}), done: make(chan struct{})}
	c := newClient(1)
	period := time.Duration(float64(time.Second) / rps)
	go func() {
		defer close(r.done)
		defer c.CloseIdleConnections()
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			select {
			case <-r.stop:
				r.stats[0].wall = time.Since(start)
				return
			default:
			}
			sleepUntil(due)
			st := &r.stats[0]
			if r.flooded.Load() {
				st = &r.stats[1]
			}
			late := time.Since(due)
			if late < 0 {
				late = 0
			}
			st.late = append(st.late, ms(late))
			req := reqs[i%len(reqs)]
			resp, body, at := st.fetch(c, base, liveURL(req, r.epoch()), req.class, due, false)
			if resp == nil {
				continue
			}
			if resp.StatusCode == http.StatusNotFound && bytes.Contains(body, []byte("retained")) {
				// A pinned read that raced eviction: the workload keeps
				// pinMargin epochs of distance so this cannot happen.
				st.ok--
				st.failed++
				continue
			}
			if e, ok := etagEpoch(resp.Header.Get("Etag")); ok {
				r.saw(e, at)
			}
		}
	}()
	return r
}

// sleepUntil blocks the calling thread until t. The Go runtime wakes an
// idle program's timers through epoll's millisecond timeout, which would
// make a 2 ms schedule up to 1 ms late; nanosleep(2) is good to the
// kernel's timer slack (~50 us) and burns no CPU.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-reads the clock
	}
}

// etagEpoch parses serve's epoch ETag, "ips-e<N>" in quotes.
func etagEpoch(etag string) (uint64, bool) {
	s, ok := strings.CutPrefix(strings.Trim(etag, `"`), "ips-e")
	if !ok {
		return 0, false
	}
	e, err := strconv.ParseUint(s, 10, 64)
	return e, err == nil
}

func (r *openReader) epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newest
}

// saw records that epoch e (and any the reader skipped over) was
// visible at time at.
func (r *openReader) saw(e uint64, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.newest < e; r.newest++ {
		if r.newest+1 < maxEpochs {
			r.visibleAt[r.newest+1] = at
		}
	}
}

// await blocks until epoch e has been seen and returns when.
func (r *openReader) await(e uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		seen, at := r.newest >= e, r.visibleAt[e]
		r.mu.Unlock()
		if seen {
			return at, nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("epoch %d not visible to the reader within %v", e, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// finish stops the reader and returns what it measured before and after
// flooded was set; the first carries the reader's whole wall time.
func (r *openReader) finish() (paced, flood *passStats) {
	close(r.stop)
	<-r.done
	return &r.stats[0], &r.stats[1]
}
