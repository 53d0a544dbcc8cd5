package server

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"dpfs/internal/fault"
	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// newTestServer starts a real I/O server on a loopback port.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen(Config{Root: t.TempDir(), Name: "test"}, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRetryRecoversFromDrops injects a deterministic schedule of
// connections dropped mid-send and asserts the client retries through
// all of them with no caller-visible failure.
func TestRetryRecoversFromDrops(t *testing.T) {
	s := newTestServer(t)
	// A conn's 4th op tears the frame it is sending and drops the conn.
	// An exchange is one vectored send and one buffered read, and the
	// demux reader's next read is already posted when the next send
	// goes out, so op 4 is every conn's second send: each conn carries
	// one request and fails the next, whose tag is registered — a drop
	// that could land on the reader's idle read instead would fail no
	// request and make the retry count below a matter of timing.
	inj := fault.New(7, fault.Rule{Kind: fault.KindPartial, Nth: 4})
	reg := obs.NewRegistry()
	c := NewClientWith(s.Addr(), ClientConfig{
		Dial:    inj.DialContext,
		Metrics: reg,
		Retry:   RetryPolicy{MaxRetries: 8, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond},
	})
	defer c.Close()
	ctx := context.Background()
	data := []byte("fault tolerant bytes")
	for i := 0; i < 20; i++ {
		req := &wire.Request{Op: wire.OpWrite, Path: "/f",
			Extents: []wire.Extent{{Off: int64(i) * int64(len(data)), Len: int64(len(data))}}, Data: data}
		if _, err := c.Do(ctx, req); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if inj.Total() == 0 {
		t.Fatal("fault schedule never fired")
	}
	if got := reg.Counter(MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0")
	}
	if got := reg.Counter(MetricConnEvictions).Value(); got == 0 {
		t.Fatal("conn_evictions = 0, want > 0")
	}
	// The data must be intact despite the storm.
	resp, err := c.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "/f",
		Extents: []wire.Extent{{Off: 0, Len: int64(len(data))}}})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != string(data) {
		t.Fatalf("read back %q, want %q", resp.Data, data)
	}
}

// TestPerRequestTimeout points the client at a server that accepts and
// then never answers: every attempt must be cut by RequestTimeout and
// the retry budget must be spent.
func TestPerRequestTimeout(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the conn open, never respond
		}
	}()

	reg := obs.NewRegistry()
	c := NewClientWith(lis.Addr().String(), ClientConfig{
		Metrics: reg,
		Retry: RetryPolicy{MaxRetries: 2, RequestTimeout: 30 * time.Millisecond,
			BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	})
	defer c.Close()
	start := time.Now()
	_, err = c.Do(context.Background(), &wire.Request{Op: wire.OpPing})
	if err == nil {
		t.Fatal("ping of a mute server succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("gave up after %v, want >= 3 timed-out attempts (~90ms)", d)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 2 {
		t.Fatalf("client_retries = %d, want 2", got)
	}
}

// TestContextCancelStopsRetries: an exhausted context must end the
// retry ladder immediately.
func TestContextCancelStopsRetries(t *testing.T) {
	// Nothing listens on this address (reserved then released).
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	reg := obs.NewRegistry()
	c := NewClientWith(addr, ClientConfig{
		Metrics: reg,
		Retry:   RetryPolicy{MaxRetries: 50, BackoffBase: 20 * time.Millisecond, BackoffMax: 20 * time.Millisecond},
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Do(ctx, &wire.Request{Op: wire.OpPing}); err == nil {
		t.Fatal("ping of a dead address succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("retry ladder ran %v past a 30ms context", d)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got >= 50 {
		t.Fatalf("client_retries = %d, want the context to cut the budget short", got)
	}
}

// TestBreakerFailsFastAndRecovers drives a server through a failure
// burst long enough to open the breaker, asserts fail-fast behavior
// during the cooldown, and verifies the half-open probe closes the
// breaker once the faults stop.
func TestBreakerFailsFastAndRecovers(t *testing.T) {
	s := newTestServer(t)
	const threshold = 3
	// Exactly `threshold` failed sends (each costs its attempt and its
	// conn; see breakerStorm), then the link heals.
	inj := fault.New(3, fault.Rule{Kind: fault.KindWriteErr, Nth: 1, Count: threshold})
	reg := obs.NewRegistry()
	c := NewClientWith(s.Addr(), ClientConfig{
		Dial:    inj.DialContext,
		Metrics: reg,
		Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: threshold,
			BreakerCooldown: 50 * time.Millisecond},
	})
	defer c.Close()
	ctx := context.Background()

	for i := 0; i < threshold; i++ {
		if err := c.Ping(ctx); err == nil {
			t.Fatalf("ping %d succeeded through a dropping link", i)
		}
	}
	if got := reg.Counter(MetricServerUnhealthy).Value(); got != 1 {
		t.Fatalf("server_unhealthy = %d after the burst, want 1", got)
	}
	// Open breaker: fail fast, without touching the network.
	err := c.Ping(ctx)
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("ping during cooldown = %v, want ErrUnhealthy", err)
	}
	// After the cooldown the half-open probe goes through (the fault
	// budget is spent) and the breaker closes again.
	time.Sleep(60 * time.Millisecond)
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
}

// reapingServer answers one request per connection, then — a peer (or
// a middlebox) reaping idle conns — drops it 10ms later: closed cleanly,
// or reset.
func reapingServer(t *testing.T, reset bool) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				if h, err := wire.ReadFrameHeader(conn); err == nil {
					if _, err := wire.ReadRequestV2(conn, h, nil); err == nil {
						_ = wire.WriteResponseV2(conn, h.Tag, &wire.Response{}, 0)
					}
				}
				time.Sleep(10 * time.Millisecond)
				if reset {
					_ = conn.(*net.TCPConn).SetLinger(0)
				}
				conn.Close()
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// pingAcrossReap pings, idles while the peer reaps the conn, and pings
// again: the demux reader must have retired the dead conn by then —
// exactly one eviction — so the second RPC dials fresh instead of
// burning a retry on it.
func pingAcrossReap(t *testing.T, addr string) {
	t.Helper()
	reg := obs.NewRegistry()
	c := NewClientWith(addr, ClientConfig{Metrics: reg})
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // peer reaps the idle conn
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricConnEvictions).Value(); got != 1 {
		t.Fatalf("conn_evictions = %d, want 1 (the reader retires the dead conn)", got)
	}
	if got := reg.Counter(MetricClientRetries).Value(); got != 0 {
		t.Fatalf("client_retries = %d, want 0 (retired before the RPC could pick it)", got)
	}
	if idle := reg.Gauge(MetricClientConnsIdle).Value(); idle != 1 {
		t.Fatalf("client_conns_idle = %d, want 1 (the fresh conn only)", idle)
	}
}

// TestIdleProbeEvictsDeadConn: a muxed conn whose peer closes it
// mid-idle. (No probe does this any more; the demux reader's blocked
// read does.)
func TestIdleProbeEvictsDeadConn(t *testing.T) {
	pingAcrossReap(t, reapingServer(t, false))
}

// TestIdleAgeCapEvicts: the same when the idle conn is reset rather
// than closed — what the pool's idle-age cap guarded against by
// discarding old conns unseen; the reader sees the reset itself, so
// there is no cap.
func TestIdleAgeCapEvicts(t *testing.T) {
	pingAcrossReap(t, reapingServer(t, true))
}

// TestHealthyIdleConnIsReused: an idle stretch alone retires nothing
// (no false positives).
func TestHealthyIdleConnIsReused(t *testing.T) {
	s := newTestServer(t)
	reg := obs.NewRegistry()
	c := NewClientWith(s.Addr(), ClientConfig{Metrics: reg})
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricConnEvictions).Value(); got != 0 {
		t.Fatalf("conn_evictions = %d, want 0 (healthy conn wrongly evicted)", got)
	}
	if got := s.Metrics().Counter(MetricConnsTotal).Value(); got != 1 {
		t.Fatalf("server saw %d conns, want 1 (reuse)", got)
	}
}
