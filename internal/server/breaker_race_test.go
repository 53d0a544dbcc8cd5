package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpfs/internal/fault"
	"dpfs/internal/obs"
)

// breakerStorm opens a client's breaker with `drops` failed sends (a
// write fault, not a drop: a drop can land on the demux reader's idle
// read, where it fails no request; a send always has its tag
// registered, so each fault costs exactly one attempt and its conn),
// then hammers the half-open window from many goroutines until every
// one of them gets a successful request through. Run under -race: the
// interleaving of breakerAllow/breakerResult is the test. It returns
// the registry and the count of network-level failures seen during the
// storm: the open breaker lets only half-open probes touch the wire,
// so that count is exactly the drop budget left after the opening
// burst.
func breakerStorm(t *testing.T, seed int64, threshold, drops int) (*obs.Registry, int64) {
	t.Helper()
	s := newTestServer(t)
	inj := fault.New(seed, fault.Rule{Kind: fault.KindWriteErr, Nth: 1, Count: int64(drops)})
	reg := obs.NewRegistry()
	c := NewClientWith(s.Addr(), ClientConfig{
		Dial: inj.DialContext, Metrics: reg,
		Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: threshold,
			BreakerCooldown: 20 * time.Millisecond},
	})
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()

	for i := 0; i < threshold; i++ {
		if err := c.Ping(ctx); err == nil {
			t.Fatalf("ping %d succeeded through a dropping link", i)
		}
	}
	if err := c.Ping(ctx); !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("ping on an open breaker = %v, want ErrUnhealthy", err)
	}

	const goroutines = 16
	var netErrs atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := c.Ping(ctx)
				switch {
				case err == nil:
					return
				case !errors.Is(err, ErrUnhealthy):
					// A half-open probe reached the wire and lost: it
					// reports its own failure to its caller. Count it
					// and keep going.
					netErrs.Add(1)
				case time.Now().After(deadline):
					errs <- fmt.Errorf("breaker never closed: %w", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Steady state: the breaker is closed for everyone.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
	return reg, netErrs.Load()
}

// TestBreakerHalfOpenConcurrent: 16 goroutines race one half-open
// window whose single probe succeeds. The breaker must open exactly
// once — concurrent losers fail fast and must not re-open or trample
// the winning probe's close.
func TestBreakerHalfOpenConcurrent(t *testing.T) {
	const threshold = 3
	reg, netErrs := breakerStorm(t, 7, threshold, threshold)
	if got := reg.Counter(MetricServerUnhealthy).Value(); got != 1 {
		t.Fatalf("server_unhealthy = %d, want exactly 1 opening", got)
	}
	if netErrs != 0 {
		t.Fatalf("%d network failures during the storm, want 0 (budget was spent opening)", netErrs)
	}
}

// TestBreakerHalfOpenProbeFailsConcurrent: the first half-open probe
// still hits a drop, so the breaker re-opens once (second unhealthy
// mark) and the next window's probe heals it — all under the same
// 16-goroutine race.
func TestBreakerHalfOpenProbeFailsConcurrent(t *testing.T) {
	const threshold = 3
	reg, netErrs := breakerStorm(t, 8, threshold, threshold+1)
	if got := reg.Counter(MetricServerUnhealthy).Value(); got != 2 {
		t.Fatalf("server_unhealthy = %d, want 2 (opening + failed probe re-opening)", got)
	}
	if netErrs != 1 {
		t.Fatalf("%d network failures during the storm, want exactly 1 (the losing probe)", netErrs)
	}
}
