package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dpfs/internal/netsim"
	"dpfs/internal/wire"
)

// TestShutdownDrainsInflight: a request occupying the simulated device
// when Shutdown begins must run to completion and get its response
// before the server exits — the graceful half of the SIGTERM path. In
// the second case a new request arrives on the same conn mid-drain: it
// is refused, the conn drops — its caller sees a transport-class error,
// so it retries or fails over — but only behind the claimed write's
// flush, which the refusal must not cancel.
func TestShutdownDrainsInflight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		refusal bool
	}{
		{"claimed work finishes", false},
		{"a refusal on the same conn spares claimed work", true},
	} {
		t.Run(tc.name, func(t *testing.T) { testShutdownDrainsInflight(t, tc.refusal) })
	}
}

func testShutdownDrainsInflight(t *testing.T, refusal bool) {
	// 1 MiB/s: a 512 KiB write reserves ~0.5s of device time.
	model := netsim.New(netsim.Params{Bandwidth: 1 << 20})
	srv, err := Listen(Config{Root: t.TempDir(), Model: model, Name: "drain"}, "")
	if err != nil {
		t.Fatal(err)
	}
	// No retries: each call's own first outcome is what is asserted.
	cli := NewClientWith(srv.Addr(), ClientConfig{Retry: RetryPolicy{MaxRetries: -1}})
	defer cli.Close()

	data := make([]byte, 512<<10)
	for i := range data {
		data[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cli.Do(context.Background(), &wire.Request{
			Op: wire.OpWrite, Path: "drain.dat",
			Extents: []wire.Extent{{Off: 0, Len: int64(len(data))}}, Data: data,
		})
		done <- err
	}()
	waitFor(t, "the server to claim the write", func() bool {
		return srv.Metrics().Counter(MetricRequests).Value() == 1
	})
	if srv.Draining() {
		t.Fatal("draining before Shutdown was called")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shErr := make(chan error, 1)
	go func() { shErr <- srv.Shutdown(ctx) }()

	// Mid-drain the server must report itself draining.
	waitFor(t, "the draining state", srv.Draining)
	if st := srv.Health().Status; st != "draining" {
		t.Fatalf("mid-drain health = %q, want draining", st)
	}
	if refusal {
		err := cli.Ping(context.Background()) // rides the write's conn
		if err == nil || IsServerError(err) {
			t.Fatalf("ping mid-drain = %v, want a transport-class error", err)
		}
	}

	if err := <-shErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight write during drain: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(srv.cfg.Root, "drain.dat")); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("drained write not on disk intact (%d bytes, %v)", len(got), err)
	}
	if conn, err := net.Dial("tcp", srv.Addr()); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after shutdown closed the listener")
	}
}

// TestShutdownDeadlineForces: when in-flight work outlives the drain
// deadline, Shutdown force-closes the remaining connections and
// returns the context error instead of hanging.
func TestShutdownDeadlineForces(t *testing.T) {
	// 1 MiB/s: a 4 MiB write reserves ~4s, far past the 200ms deadline.
	model := netsim.New(netsim.Params{Bandwidth: 1 << 20})
	srv, err := Listen(Config{Root: t.TempDir(), Model: model, Name: "force"}, "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClientWith(srv.Addr(), ClientConfig{Retry: RetryPolicy{MaxRetries: -1}})
	defer cli.Close()

	data := make([]byte, 4<<20)
	done := make(chan error, 1)
	go func() {
		_, err := cli.Do(context.Background(), &wire.Request{
			Op: wire.OpWrite, Path: "force.dat",
			Extents: []wire.Extent{{Off: 0, Len: int64(len(data))}}, Data: data,
		})
		done <- err
	}()
	// Wait until the server has actually claimed the write (dispatch
	// bumps requests_total on entry) — a fixed sleep races with loaded
	// machines, and a Shutdown before the claim drains gracefully.
	waitFor(t, "the server to claim the write", func() bool {
		return srv.Metrics().Counter(MetricRequests).Value() == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown error = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("forced shutdown took %v, want well under the write's 4s reservation", d)
	}
	if err := <-done; err == nil {
		t.Fatal("in-flight write survived a forced shutdown, want an error")
	}
}

// TestShutdownIdle: with nothing in flight, Shutdown closes idle
// connections immediately and returns nil.
func TestShutdownIdle(t *testing.T) {
	srv, err := Listen(Config{Root: t.TempDir(), Name: "idle"}, "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(srv.Addr())
	defer cli.Close()
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}
