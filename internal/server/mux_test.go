package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dpfs/internal/wire"
)

// startServerV2 starts a real server and a client of the given
// configuration.
func startServerV2(t *testing.T, cfg ClientConfig) (*Server, *Client) {
	t.Helper()
	srv, err := Listen(Config{Root: t.TempDir(), Name: "test-io"}, "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClientWith(srv.Addr(), cfg)
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

func TestMuxRoundtrip(t *testing.T) {
	_, cli := startServerV2(t, ClientConfig{})
	ctx := ctxT(t)

	data := []byte("hello muxed brick world")
	if _, err := cli.Do(ctx, &wire.Request{
		Op: wire.OpWrite, Path: "dir/sub.f",
		Extents: []wire.Extent{{Off: 0, Len: 5}, {Off: 100, Len: 18}},
		Data:    data,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Do(ctx, &wire.Request{
		Op: wire.OpRead, Path: "dir/sub.f",
		Extents: []wire.Extent{{Off: 0, Len: 5}, {Off: 100, Len: 18}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, data) {
		t.Fatalf("read back %q, want %q", resp.Data, data)
	}
	stat, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "dir/sub.f"})
	if err != nil {
		t.Fatal(err)
	}
	if stat.N != 118 {
		t.Fatalf("stat = %d, want 118", stat.N)
	}
}

// TestMuxSegmentsRoundtrip drives the scatter write path (REQ + DATA
// frames built from Segments in one vectored write) through a real
// server, with a payload big enough to split into several DATA frames.
func TestMuxSegmentsRoundtrip(t *testing.T) {
	_, cli := startServerV2(t, ClientConfig{})
	ctx := ctxT(t)

	big := bytes.Repeat([]byte("0123456789abcdef"), (wire.StreamChunk+4096)/16)
	segs := [][]byte{big[:777], big[777:4096], big[4096:]}
	if _, err := cli.Do(ctx, &wire.Request{
		Op: wire.OpWrite, Path: "big.f",
		Extents:  []wire.Extent{{Off: 0, Len: int64(len(big))}},
		Segments: segs,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Do(ctx, &wire.Request{
		Op: wire.OpRead, Path: "big.f",
		Extents: []wire.Extent{{Off: 0, Len: int64(len(big))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, big) {
		t.Fatal("streamed read returned different bytes than the scatter write stored")
	}
}

// TestMuxFanInSharesConns is the mux's reason to exist: a 64-request
// concurrent burst must ride a handful of connections (ceil(64/window)
// plus dial-timing slack), not one conn per request.
func TestMuxFanInSharesConns(t *testing.T) {
	srv, cli := startServerV2(t, ClientConfig{MuxWindow: 16})
	ctx := ctxT(t)

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("f%d", i%8)
			if _, err := cli.Do(ctx, &wire.Request{
				Op: wire.OpWrite, Path: path,
				Extents: []wire.Extent{{Off: int64(i) * 64, Len: 64}},
				Data:    bytes.Repeat([]byte{byte(i)}, 64),
			}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	conns := srv.Metrics().Counter(MetricConnsTotal).Value()
	if conns > 8 {
		t.Fatalf("64-way fan-in used %d conns; the mux should hold it near ceil(64/16)", conns)
	}
}

// TestMuxIdleConnSurvivesOldDeadline is the stale-deadline regression
// for the demux reader: the conn read deadline armed for a request must be CLEARED when the
// pending set empties, so a muxed conn idling past the old deadline is
// not killed and the next request reuses it instead of redialing.
func TestMuxIdleConnSurvivesOldDeadline(t *testing.T) {
	srv, cli := startServerV2(t, ClientConfig{
		Retry: RetryPolicy{RequestTimeout: 150 * time.Millisecond, MaxRetries: -1},
	})
	ctx := ctxT(t)
	if err := cli.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	// Sit idle well past the first request's deadline + the reader's
	// slack; with a stale armed deadline the reader would kill the conn.
	time.Sleep(700 * time.Millisecond)
	if err := cli.Ping(ctx); err != nil {
		t.Fatalf("ping after idle period: %v", err)
	}
	if conns := srv.Metrics().Counter(MetricConnsTotal).Value(); conns != 1 {
		t.Fatalf("server saw %d conns; the idle muxed conn should have been reused", conns)
	}
	if ev := cli.Metrics().Counter(MetricConnEvictions).Value(); ev != 0 {
		t.Fatalf("%d mux conns evicted during an idle stretch", ev)
	}
}

// TestMuxConnGauges checks the client_conns_idle/active bookkeeping
// across the muxed conn's state transitions.
func TestMuxConnGauges(t *testing.T) {
	_, cli := startServerV2(t, ClientConfig{})
	ctx := ctxT(t)
	if err := cli.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	idle := cli.Metrics().Gauge(MetricClientConnsIdle).Value()
	active := cli.Metrics().Gauge(MetricClientConnsActive).Value()
	if idle != 1 || active != 0 {
		t.Fatalf("after ping: idle=%d active=%d, want 1/0", idle, active)
	}
	cli.Close()
	idle = cli.Metrics().Gauge(MetricClientConnsIdle).Value()
	active = cli.Metrics().Gauge(MetricClientConnsActive).Value()
	if idle != 0 || active != 0 {
		t.Fatalf("after close: idle=%d active=%d, want 0/0", idle, active)
	}
}

// TestServerV2SkipsUnknownFrames drives a raw v2 connection into a live
// server: an unknown frame kind (with a body) and a CANCEL for a tag
// the server has never seen must both be skipped, leaving the session
// fully usable for a normal request.
func TestServerV2SkipsUnknownFrames(t *testing.T) {
	srv, _ := startServerV2(t, ClientConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var unknown bytes.Buffer // a frame of a kind no version of the protocol has
	if err := wire.NewFrameWriter(&unknown).WriteData(12, []byte("ignored")); err != nil {
		t.Fatal(err)
	}
	unknown.Bytes()[2] = 0x66 // the header's kind byte
	if _, err := conn.Write(unknown.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := wire.NewFrameWriter(conn).WriteCancel(424242); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteRequestV2(conn, 7, &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponseV2Into(conn, 7, nil)
	if err != nil {
		t.Fatalf("ping after junk frames: %v", err)
	}
	if resp.Err != "" {
		t.Fatalf("ping answered with error %q", resp.Err)
	}
}

// TestRetiredMagicIsClosed: a conn opening with the retired
// one-exchange-per-conn protocol's magic (0xD9) — a complete PING in
// that framing — is closed without a response, and its handler is gone.
func TestRetiredMagicIsClosed(t *testing.T) {
	srv, _ := startServerV2(t, ClientConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ping := []byte{0xD9, 1, byte(wire.OpPing), 0, 18, 0, 0, 0} // header, then an 18-byte body
	ping = append(ping, make([]byte, 18)...)                   // no path, gen 0, no extents, no data
	if _, err := conn.Write(ping); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// A close with the request unread may reach us as a reset: either
	// way not one byte comes back.
	if b, _ := io.ReadAll(conn); len(b) != 0 {
		t.Fatalf("server answered the retired protocol with %d bytes, want a bare close", len(b))
	}
	waitFor(t, "the refused conn's handler to exit", func() bool {
		return srv.Metrics().Gauge(MetricActiveConns).Value() == 0
	})
	if got := srv.Metrics().Counter(MetricRequests).Value(); got != 0 {
		t.Fatalf("requests_total = %d, want 0", got)
	}
}

// TestServerV2CancelFrame checks that a CANCEL frame cancels the
// in-flight tag's context server-side without costing the connection:
// the canceled op's RESP reports a context error, and the next request
// on the same conn succeeds.
func TestServerV2CancelFrame(t *testing.T) {
	// No netsim model means ops don't block server-side, so instead of
	// timing-based assertions this just exercises cancel-then-reuse.
	srv, _ := startServerV2(t, ClientConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteRequestV2(conn, 3, &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := wire.NewFrameWriter(conn).WriteCancel(3); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadResponseV2Into(conn, 3, nil); err != nil {
		t.Fatalf("response for canceled tag: %v", err)
	}
	// The conn survived both the op and its cancellation.
	if err := wire.WriteRequestV2(conn, 4, &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponseV2Into(conn, 4, nil)
	if err != nil || resp.Err != "" {
		t.Fatalf("request after CANCEL: %v / %q", err, resp.Err)
	}
}

// stubV2Server implements just enough of the protocol to script fault
// scenarios: requests whose Path is "hang" are accepted and never
// answered; everything else gets an immediate RESP. Hung conns can be
// killed to simulate a mid-exchange conn fault.
type stubV2Server struct {
	lis net.Listener

	mu    sync.Mutex
	hung  []net.Conn // conns holding an unanswered "hang" tag
	conns int
}

func newStubV2Server(t *testing.T) *stubV2Server {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &stubV2Server{lis: lis}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			st.mu.Lock()
			st.conns++
			st.mu.Unlock()
			go st.serve(conn)
		}
	}()
	return st
}

func (st *stubV2Server) serve(conn net.Conn) {
	defer conn.Close()
	var first [1]byte
	if _, err := conn.Read(first[:]); err != nil || first[0] != wire.Magic2 {
		return
	}
	rd := io.MultiReader(bytes.NewReader(first[:]), conn)
	var wmu sync.Mutex
	for {
		h, err := wire.ReadFrameHeader(rd)
		if err != nil {
			return
		}
		switch h.Kind {
		case wire.FrameReq:
			req, err := wire.ReadRequestV2(rd, h, nil)
			if err != nil {
				return
			}
			if req.Path == "hang" {
				st.mu.Lock()
				st.hung = append(st.hung, conn)
				st.mu.Unlock()
				continue // never answer
			}
			wmu.Lock()
			err = wire.WriteResponseV2(conn, h.Tag, &wire.Response{N: 1}, 0)
			wmu.Unlock()
			if err != nil {
				return
			}
		default:
			if err := wire.DiscardFrameBody(rd, h); err != nil {
				return
			}
		}
	}
}

func (st *stubV2Server) killHung() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, c := range st.hung {
		c.Close()
	}
	st.hung = nil
}

func (st *stubV2Server) connCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.conns
}

// TestMuxConnFaultFailsOnlyItsTags pins the fault boundary: killing
// one muxed conn mid-exchange fails exactly the tags in flight on that
// conn; requests on other conns of the same client are untouched, and
// the client recovers on a fresh conn afterwards. MuxWindow 1 forces
// the hung tag and the healthy tag onto different conns; retries are
// disabled so the raw transport error surfaces.
func TestMuxConnFaultFailsOnlyItsTags(t *testing.T) {
	st := newStubV2Server(t)
	cli := NewClientWith(st.lis.Addr().String(), ClientConfig{
		MuxWindow: 1,
		Retry:     RetryPolicy{MaxRetries: -1, BreakerThreshold: -1},
	})
	defer cli.Close()
	ctx := ctxT(t)

	hangErr := make(chan error, 1)
	go func() {
		_, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "hang"})
		hangErr <- err
	}()
	// Wait until the stub holds the hung tag (its conn is pinned).
	waitFor(t, "the stub to hold the hang request", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.hung) == 1
	})

	// A second request rides a second conn (window 1) and succeeds while
	// the first tag is still in flight on the faulted-to-be conn.
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "ok"}); err != nil {
		t.Fatalf("healthy-conn request failed: %v", err)
	}

	st.killHung()
	err := <-hangErr
	if err == nil {
		t.Fatal("request on the killed conn reported success")
	}
	if IsServerError(err) {
		t.Fatalf("conn fault surfaced as a server error (breaks failover): %v", err)
	}

	// The mux recovers: the next request succeeds, reusing the healthy
	// conn (now idle) rather than dialing a third.
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "again"}); err != nil {
		t.Fatalf("request after conn fault: %v", err)
	}
	if got := st.connCount(); got != 2 {
		t.Fatalf("stub saw %d conns, want 2 (hung + healthy; recovery reuses healthy)", got)
	}
}

// TestMuxAbandonSendsCancel checks the client side of cancellation: a
// caller whose context dies abandons its tag and emits a CANCEL frame,
// the error is transport-class, and the conn remains usable for the
// next request.
func TestMuxAbandonSendsCancel(t *testing.T) {
	st := newStubV2Server(t)
	cli := NewClientWith(st.lis.Addr().String(), ClientConfig{
		Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: -1},
	})
	defer cli.Close()

	ctx, cancel := context.WithCancel(ctxT(t))
	done := make(chan error, 1)
	go func() {
		_, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "hang"})
		done <- err
	}()
	waitFor(t, "the stub to hold the hang request", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.hung) == 1
	})
	cancel()
	err := <-done
	if err == nil || IsServerError(err) {
		t.Fatalf("abandoned call returned %v; want a transport-class error", err)
	}
	// Same conn, next tag: the abandonment did not poison the mux.
	if _, err := cli.Do(ctxT(t), &wire.Request{Op: wire.OpStat, Path: "ok"}); err != nil {
		t.Fatalf("request after abandon: %v", err)
	}
	if got := st.connCount(); got != 1 {
		t.Fatalf("stub saw %d conns, want 1 (abandon must not cost the conn)", got)
	}
}
