package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ipscope/internal/serve"
	"ipscope/internal/serve/wire"
)

// TestEpochTurnoverRPC is serve.TestEpochTurnover over the binary
// transport: clients race a publisher over a 2-deep window, and every
// frame must describe one published state — a delta or an as-of read
// answers, or fails with the typed not-retained error whose range does
// not hold the epoch it refuses, and a movement frame's range is its
// series'. Run under -race.
func TestEpochTurnoverRPC(t *testing.T) {
	const (
		readers    = 4
		iters      = 100 // per reader, at least
		turnovers  = 200 // publishes the readers must have raced, at least
		firstEpoch = 100
	)
	_, base := testBackend(t)
	be := serve.New(nil, serve.Config{RetainEpochs: 2})
	be.Publish(base.AtEpoch(firstEpoch))
	be.Publish(base.AtEpoch(firstEpoch + 1))
	srv := NewServer(be, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := NewClient(addr.String(), ClientOptions{})
	defer c.Close()
	ctx := context.Background()

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
			be.Publish(base.AtEpoch(e))
			published.Add(1)
		}
	}()

	// refused checks a failed call that named asked (in blame order): the
	// typed error's range must not hold the epoch it refuses.
	refused := func(what string, err error, asked ...uint64) error {
		var nr *wire.NotRetainedError
		if !errors.As(err, &nr) {
			return fmt.Errorf("%s: %v, want *wire.NotRetainedError", what, err)
		}
		for _, e := range asked {
			if e < nr.Oldest || e > nr.Newest {
				return nil
			}
		}
		return fmt.Errorf("%s %v: refused, from a range %d..%d holding every epoch asked", what, asked, nr.Oldest, nr.Newest)
	}
	read := func() error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		if h.Epoch != h.NewestEpoch || h.OldestEpoch == h.NewestEpoch {
			return fmt.Errorf("health: epoch %d, retained %d..%d", h.Epoch, h.OldestEpoch, h.NewestEpoch)
		}
		from, to := h.OldestEpoch, h.NewestEpoch

		p, oldest, newest, err := c.Delta(ctx, from, to, 0)
		if err != nil {
			if err := refused("delta", err, from, to); err != nil {
				return err
			}
		} else if p.FromEpoch != from || p.ToEpoch != to || from < oldest || to > newest {
			return fmt.Errorf("delta %d..%d: partial spans %d..%d, from a ring %d..%d", from, to, p.FromEpoch, p.ToEpoch, oldest, newest)
		}

		mp, oldest, newest, err := c.Movement(ctx, 0)
		if err != nil {
			return err
		}
		if mp.OldestEpoch != oldest || mp.NewestEpoch != newest {
			return fmt.Errorf("movement: series %d..%d beside a ring %d..%d", mp.OldestEpoch, mp.NewestEpoch, oldest, newest)
		}

		for _, e := range []uint64{from, to} {
			if _, got, err := c.Summary(ctx, e); err != nil {
				if err := refused("summary", err, e); err != nil {
					return err
				}
			} else if got != e {
				return fmt.Errorf("summary as of %d: answered at %d", e, got)
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
