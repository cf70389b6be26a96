package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// accessLogQueue bounds the async access-log queue: when it is full the
// record is dropped and counted (/v1/healthz accessLogDrops) instead of
// stalling the request.
const accessLogQueue = 1024

// accessRecord is one structured access-log line.
type accessRecord struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	Bytes    int     `json:"bytes"`
	Duration float64 `json:"durMs"`
	Cache    string  `json:"cache,omitempty"`
}

// logEvent is one queued completion. Timestamp formatting and JSON
// encoding happen on the consumer goroutine, off the request path; a
// non-nil flush channel marks a synchronization token instead of a
// record (closed once every earlier record has been written), and stop
// the token that ends the consumer.
type logEvent struct {
	start         time.Time
	dur           time.Duration
	method, path  string
	cache         string
	status, bytes int
	flush         chan struct{}
	stop          bool
}

// accessLogger serializes access records through a bounded queue and a
// single consumer goroutine: the request path never takes a lock, never
// marshals JSON, and never blocks on the log writer. Records from one
// connection are enqueued in completion order and the single consumer
// preserves queue order, so per-connection log order is exact. When the
// queue is full the record is dropped and counted instead of stalling
// the response — Drops is surfaced in /v1/healthz.
type accessLogger struct {
	ch      chan logEvent
	stopped chan struct{} // closed when the consumer has exited
	drops   atomic.Uint64
	once    sync.Once
}

func newAccessLogger(w io.Writer) *accessLogger {
	l := &accessLogger{ch: make(chan logEvent, accessLogQueue), stopped: make(chan struct{})}
	go l.run(w)
	return l
}

// log enqueues one completed request, dropping (and counting) when the
// queue is full. Never blocks.
func (l *accessLogger) log(ev logEvent) {
	select {
	case l.ch <- ev:
	default:
		l.drops.Add(1)
	}
}

// Flush blocks until every record enqueued before the call has been
// written to the log writer. After Close it returns at once.
func (l *accessLogger) Flush() {
	done := make(chan struct{})
	select {
	case l.ch <- logEvent{flush: done}:
	case <-l.stopped:
		return
	}
	select {
	case <-done:
	case <-l.stopped:
	}
}

// Close writes every record enqueued before it and stops the consumer
// goroutine. Records logged after Close fill the dead queue and are then
// dropped; the server only closes after the HTTP listener has drained.
func (l *accessLogger) Close() {
	l.once.Do(func() {
		l.ch <- logEvent{stop: true}
		<-l.stopped
	})
}

// run is the single consumer: one persistent buffer and encoder reused
// across lines (the pooled-encoder discipline — one encoder, zero
// steady-state allocation churn beyond what encoding/json itself does).
func (l *accessLogger) run(w io.Writer) {
	defer close(l.stopped)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for ev := range l.ch {
		if ev.stop {
			return
		}
		if ev.flush != nil {
			close(ev.flush)
			continue
		}
		rec := accessRecord{
			Time:     ev.start.UTC().Format(time.RFC3339Nano),
			Method:   ev.method,
			Path:     ev.path,
			Status:   ev.status,
			Bytes:    ev.bytes,
			Duration: float64(ev.dur.Microseconds()) / 1000,
			Cache:    ev.cache,
		}
		buf.Reset()
		if enc.Encode(rec) == nil { // Encode appends the trailing newline
			w.Write(buf.Bytes())
		}
	}
}

// Drops reports how many records the bounded queue has discarded.
func (l *accessLogger) Drops() uint64 { return l.drops.Load() }
