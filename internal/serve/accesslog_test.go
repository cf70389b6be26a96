package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAccessLogExactlyOnceInOrder pins the logger's correctness
// contract: every request is logged exactly once, and records from one
// connection appear in completion order (serial requests → request
// order), even though formatting and writing happen asynchronously.
func TestAccessLogExactlyOnceInOrder(t *testing.T) {
	_, idx := fixture(t)
	var log bytes.Buffer
	s := New(idx, Config{AccessLog: &log})
	h := s.Handler()

	var want []string
	paths := []string{"/v1/summary", "/v1/healthz", "/v1/summary", "/v1/movement"}
	for i := 0; i < 3; i++ {
		for _, p := range paths {
			req := httptest.NewRequest("GET", p, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			want = append(want, p)
		}
	}
	s.FlushAccessLog()

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("access log has %d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec.Path != want[i] {
			t.Errorf("line %d: path %q, want %q — completion order not preserved", i, rec.Path, want[i])
		}
	}
	if s.AccessLogDrops() != 0 {
		t.Errorf("%d drops on an idle queue", s.AccessLogDrops())
	}
}

// blockingWriter refuses to accept writes until released — a stand-in
// for a wedged log disk or pipe.
type blockingWriter struct {
	release chan struct{}
	mu      sync.Mutex
	n       int
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
	return len(p), nil
}

func (w *blockingWriter) writes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// TestAccessLogOverflowDrops pins the backpressure policy: when the
// bounded queue is full, log() drops and counts instead of blocking the
// request path.
func TestAccessLogOverflowDrops(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{})}
	l := newAccessLogger(w)

	// Let the consumer park inside Write on the first record so the
	// queue fills behind it.
	l.log(logEvent{method: "GET", path: "/p0", start: time.Now()})
	deadline := time.Now().Add(2 * time.Second)
	for len(l.ch) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	const extra = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < accessLogQueue+extra; i++ {
			l.log(logEvent{method: "GET", path: fmt.Sprintf("/p%d", i+1), start: time.Now()})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("log() blocked on a full queue")
	}
	if d := l.Drops(); d != extra {
		t.Fatalf("%d drops with queue %d and %d overflow records, want %d", d, accessLogQueue, extra, extra)
	}

	close(w.release)
	l.Close()
	if got, want := w.writes(), 1+accessLogQueue; got != want {
		t.Errorf("%d records written, want %d (the non-dropped ones)", got, want)
	}
}

// TestShutdownClosesAccessLog pins the logger's lifecycle: Shutdown
// writes every record logged before it, then stops the consumer
// goroutine, and a FlushAccessLog after that returns at once.
func TestShutdownClosesAccessLog(t *testing.T) {
	_, idx := fixture(t)
	baseline := runtime.NumGoroutine()
	var log bytes.Buffer
	s := New(idx, Config{AccessLog: &log})
	const requests = 50
	for i := 0; i < requests; i++ {
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/summary", nil))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(log.String(), "\n"); got != requests {
		t.Errorf("%d records written by Shutdown, want %d", got, requests)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, want the %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	flushed := make(chan struct{})
	go func() {
		s.FlushAccessLog()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
		t.Fatal("FlushAccessLog blocked after Shutdown")
	}
}

// TestAccessLogDropsInHealthz proves the drop counter is operator
// visible: a server with a wedged log writer, given more requests than
// the queue holds, reports accessLogDrops in /v1/healthz instead of
// stalling requests.
func TestAccessLogDropsInHealthz(t *testing.T) {
	_, idx := fixture(t)
	w := &blockingWriter{release: make(chan struct{})}
	defer close(w.release)
	s := New(idx, Config{AccessLog: w})
	h := s.Handler()

	for i := 0; i < accessLogQueue+20; i++ {
		req := httptest.NewRequest("GET", "/v1/summary", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d — a wedged access log must not affect serving", i, rec.Code)
		}
	}
	if s.AccessLogDrops() == 0 {
		t.Fatal("no drops recorded with a wedged writer and an overfilled queue")
	}

	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var hz map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if drops, ok := hz["accessLogDrops"].(float64); !ok || drops == 0 {
		t.Fatalf("healthz accessLogDrops = %v, want > 0", hz["accessLogDrops"])
	}
}
