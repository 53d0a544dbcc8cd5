package wire

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"dpfs/internal/obs"
)

// testSet serves n dialed conns. Each handler reads its conn until it
// closes; a byte 'h' from the peer makes it hand the conn to the set
// it receives on to, and report whether that worked on handed.
type testSet struct {
	*ConnSet
	reg    *obs.Registry
	served []*Conn
	peers  []net.Conn
	to     chan *ConnSet
	handed chan bool
}

func newTestSet(t *testing.T, n int) *testSet {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testSet{reg: obs.NewRegistry(), to: make(chan *ConnSet), handed: make(chan bool, n)}
	got := make(chan *Conn, n)
	ts.ConnSet = Serve(lis, ts.reg, func(c *Conn) {
		got <- c
		b := make([]byte, 1)
		for {
			if _, err := c.Conn.Read(b); err != nil {
				return
			}
			if b[0] == 'h' {
				ts.handed <- c.HandTo(<-ts.to, func(c *Conn) { io.Copy(io.Discard, c.Conn) })
				return
			}
		}
	})
	t.Cleanup(func() { ts.Close() })
	for range n {
		pc, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		ts.peers = append(ts.peers, pc)
		ts.served = append(ts.served, <-got)
	}
	return ts
}

// closed reports whether the set closed pc's far end within a wait.
func closed(pc net.Conn, wait time.Duration) bool {
	pc.SetReadDeadline(time.Now().Add(wait))
	_, err := pc.Read(make([]byte, 1))
	return err == io.EOF
}

// TestConnSetClaimRule: a drain closes the idle conn at once, keeps the
// claimed one open, refuses its next claim and closes it behind its
// last release; Shutdown returns once both handlers have.
func TestConnSetClaimRule(t *testing.T) {
	s := newTestSet(t, 2)
	busy := s.served[0]
	if !busy.Claim() || !busy.Claim() {
		t.Fatal("claims refused before a drain")
	}
	if !s.Drain() || s.Drain() || !s.Draining() {
		t.Fatal("Drain must begin once")
	}
	if !closed(s.peers[1], 2*time.Second) {
		t.Fatal("the idle conn outlived the drain")
	}
	if busy.Claim() {
		t.Fatal("a claim was granted mid-drain")
	}
	busy.Release()
	if closed(s.peers[0], 50*time.Millisecond) {
		t.Fatal("the claimed conn closed before its last release")
	}
	busy.Release()
	if !closed(s.peers[0], 2*time.Second) {
		t.Fatal("the last release on a draining conn left it open")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.reg.Counter(MetricConnsTotal).Value(); got != 2 {
		t.Fatalf("conns_total = %d, want 2", got)
	}
	if got := s.reg.Gauge(MetricActiveConns).Value(); got != 0 {
		t.Fatalf("active_conns = %d after Shutdown, want 0", got)
	}
}

// TestConnSetShutdownDeadline: a claimed conn that never releases is
// cut when the drain's context ends, and Shutdown returns its error.
func TestConnSetShutdownDeadline(t *testing.T) {
	s := newTestSet(t, 1)
	if !s.served[0].Claim() {
		t.Fatal("claim refused")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want %v", err, context.DeadlineExceeded)
	}
	if !closed(s.peers[0], 2*time.Second) {
		t.Fatal("the claimed conn survived the deadline")
	}
}

// TestConnSetHandTo: a handed-over conn leaves its set — draining that
// set no longer touches it, and it leaves active_conns — and a closed
// destination, or a draining source, refuses a hand-over.
func TestConnSetHandTo(t *testing.T) {
	var dst, shut ConnSet
	shut.Close()
	s := newTestSet(t, 3)
	hand := func(i int, to *ConnSet) bool {
		t.Helper()
		if _, err := s.peers[i].Write([]byte{'h'}); err != nil {
			t.Fatal(err)
		}
		s.to <- to
		return <-s.handed
	}
	if !hand(0, &dst) {
		t.Fatal("hand-over refused")
	}
	if got := s.reg.Gauge(MetricActiveConns).Value(); got != 2 {
		t.Fatalf("active_conns = %d after a hand-over, want 2", got)
	}
	if hand(1, &shut) {
		t.Fatal("a closed set took a conn")
	}
	if !closed(s.peers[1], 2*time.Second) {
		t.Fatal("a refused conn stayed open after its handler returned")
	}
	// A claim keeps conn 2 open through the drain, so its handler asks
	// for the hand-over after the drain began.
	if !s.served[2].Claim() {
		t.Fatal("claim refused")
	}
	s.Drain()
	if hand(2, &dst) {
		t.Fatal("a draining set handed a conn over")
	}
	s.served[2].Release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The handed-over conn survived its old set's drain.
	if closed(s.peers[0], 50*time.Millisecond) {
		t.Fatal("draining the source closed a handed-over conn")
	}
	dst.Close()
	if !closed(s.peers[0], 2*time.Second) {
		t.Fatal("closing the destination left its conn open")
	}
}
