package serve

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"
)

// A connection that never finishes its request line, or sits idle
// between requests, must not hold a goroutine and a descriptor forever.
// idleTimeout stays above the 90 s a router keeps an idle shard
// connection for, so it is the client that retires one, never the
// server under a request already on its way.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Listener runs one handler's http.Server on a background goroutine —
// the Listen/Shutdown pair the node's Server and the cluster router
// share. The zero value is ready; Shutdown before Listen is a no-op.
type Listener struct {
	mu  sync.Mutex
	srv *http.Server
	ch  chan error

	readHeaderTimeout time.Duration // 0 = the constant; a test shortens it
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port) and serves h
// in the background until Shutdown.
func (l *Listener) Listen(addr string, h http.Handler) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.srv = &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	if l.readHeaderTimeout > 0 {
		l.srv.ReadHeaderTimeout = l.readHeaderTimeout
	}
	l.ch = make(chan error, 1)
	srv, ch := l.srv, l.ch
	l.mu.Unlock()
	go func() {
		err := srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		ch <- err
	}()
	return ln.Addr(), nil
}

// Shutdown stops accepting new requests and waits for in-flight ones to
// drain (bounded by ctx). It returns the first serve error, if any.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	srv, ch := l.srv, l.ch
	l.mu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-ch
}
