package server

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// scriptedV2 is a frame-protocol stub whose answer to the n-th request
// (counting from 1, over all conns) is written by a script, frame by
// frame, so tests can stall, truncate or falsify a response at any
// byte. CANCEL and unknown frames are skipped.
type scriptedV2 struct {
	addr  string
	conns atomic.Int64
}

func newScriptedV2(t *testing.T, script func(n int, conn net.Conn, tag uint32, req *wire.Request)) *scriptedV2 {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	st := &scriptedV2{addr: lis.Addr().String()}
	var reqs atomic.Int64
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			st.conns.Add(1)
			go func() {
				defer conn.Close()
				for {
					h, err := wire.ReadFrameHeader(conn)
					if err != nil {
						return
					}
					if h.Kind != wire.FrameReq {
						if wire.DiscardFrameBody(conn, h) != nil {
							return
						}
						continue
					}
					req, err := wire.ReadRequestV2(conn, h, nil)
					if err != nil {
						return
					}
					script(int(reqs.Add(1)), conn, h.Tag, req)
				}
			}()
		}
	}()
	return st
}

// dataHeader writes the header of a DATA frame announcing n body bytes,
// and none of the body.
func dataHeader(conn net.Conn, tag uint32, n int) {
	var frame bytes.Buffer
	_ = wire.NewFrameWriter(&frame).WriteData(tag, make([]byte, n))
	_, _ = conn.Write(frame.Bytes()[:wire.FrameHeaderLen])
}

func fillByte(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

// TestMuxAbandonMidFrame is the scratch-ownership test of the landing
// reader: the server stalls in the middle of a DATA frame — the demux
// reader is blocked inside the caller's scratch — while the caller
// times out. When the timed-out call returns, the scratch must be the
// caller's again: the test scribbles over it at once (under -race, a
// reader still landing the stalled frame's tail is a reported race)
// and reuses it for the next request on the same Client. The stall ends
// inside the backstop, so the conn must survive too.
func TestMuxAbandonMidFrame(t *testing.T) {
	const n = 64 << 10
	stallOver := make(chan struct{})
	st := newScriptedV2(t, func(i int, conn net.Conn, tag uint32, req *wire.Request) {
		if i == 1 {
			dataHeader(conn, tag, n)
			_, _ = conn.Write(fillByte(n/2, 0xAA))
			time.Sleep(150 * time.Millisecond) // well past the caller's 30 ms deadline
			_, _ = conn.Write(fillByte(n/2, 0xAA))
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n}, n)
			close(stallOver)
			return
		}
		_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: fillByte(n, 0xBB)}, 0)
	})
	cli := NewClientWith(st.addr, ClientConfig{
		Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: -1},
	})
	defer cli.Close()
	ctx := ctxT(t)

	req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: []wire.Extent{{Off: 0, Len: n}}}
	scratch := make([]byte, n+wire.RespOverhead)
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := cli.DoScratch(short, req, scratch); err == nil || short.Err() == nil {
		t.Fatalf("stalled read returned %v before its deadline", err)
	}
	// Ours again. Keep scribbling until the stalled frame's tail has been
	// sent: a reader that still lands it in scratch races these writes.
	// (No conn I/O in between — the runtime orders every conn read after
	// every earlier conn write under -race, which would hide the race.)
	for over := false; !over; {
		for i := range scratch {
			scratch[i] = 0xCC
		}
		select {
		case <-stallOver:
			over = true
		default:
		}
	}
	resp, err := cli.DoScratch(ctx, req, scratch)
	if err != nil {
		t.Fatalf("read after the abandoned one: %v", err)
	}
	if !bytes.Equal(resp.Data, fillByte(n, 0xBB)) {
		t.Fatal("read after the abandoned one returned wrong bytes")
	}
	if &resp.Data[0] != &scratch[0] {
		t.Error("response did not land in the caller's scratch")
	}
	if got := st.conns.Load(); got != 1 {
		t.Errorf("stub saw %d conns, want 1: a finite mid-frame stall must not cost the conn", got)
	}
	if ev := cli.Metrics().Counter(MetricConnEvictions).Value(); ev != 0 {
		t.Errorf("%d conns evicted", ev)
	}
}

// TestDirectLandingAbandonMidFrame is TestMuxAbandonMidFrame on a bare
// conn with a multi-piece landing list: the stalled frame's tail is read
// by readv, whose kernel writes the race detector cannot see, so a
// sentinel stands in for it. The caller fills its buffer with the
// sentinel once the abandoned call returns; after the stalled frame's
// tail, a second DATA frame of the abandoned tag and its trailer have
// been sent, and a ping has drained the conn behind them, the buffer
// must still hold the sentinel everywhere.
func TestDirectLandingAbandonMidFrame(t *testing.T) {
	const n = 64 << 10
	stallOver := make(chan struct{})
	st := newScriptedV2(t, func(i int, conn net.Conn, tag uint32, req *wire.Request) {
		switch {
		case req.Op == wire.OpPing:
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{}, 0)
		case i == 1:
			dataHeader(conn, tag, n/2)
			_, _ = conn.Write(fillByte(n/4, 0xAA))
			time.Sleep(150 * time.Millisecond) // well past the caller's 30 ms deadline
			_, _ = conn.Write(fillByte(n/4, 0xAA))
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: fillByte(n/2, 0xAA)}, n/2)
			close(stallOver)
		default:
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: fillByte(n, 0xBB)}, 0)
		}
	})
	cli := NewClientWith(st.addr, ClientConfig{
		Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: -1},
	})
	defer cli.Close()
	ctx := ctxT(t)

	// Four pieces of one buffer, out of memory order and apart.
	buf := make([]byte, 2*n)
	pieces := [][]byte{buf[n : n+n/4], buf[0 : n/4], buf[n/2 : n/2+n/4], buf[3*n/2 : 3*n/2+n/4]}
	req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: []wire.Extent{{Off: 0, Len: n}}}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := cli.DoInto(short, req, pieces); err == nil || short.Err() == nil {
		t.Fatalf("stalled read returned %v before its deadline", err)
	}
	for i := range buf {
		buf[i] = 0xCC
	}
	<-stallOver
	if err := cli.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(buf, func(b byte) bool { return b != 0xCC }); i >= 0 {
		t.Fatalf("byte %d of the buffer changed after the call that lent it returned", i)
	}
	if cli.Metrics().Counter(MetricClientBytesLandedDirect).Value() == 0 {
		t.Error("nothing was read by readv: the stalled frame's tail did not take the direct path")
	}

	if _, err := cli.DoInto(ctx, req, pieces); err != nil {
		t.Fatalf("read after the abandoned one: %v", err)
	}
	if !bytes.Equal(bytes.Join(pieces, nil), fillByte(n, 0xBB)) {
		t.Fatal("read after the abandoned one returned wrong bytes")
	}
	if got := st.conns.Load(); got != 1 {
		t.Errorf("stub saw %d conns, want 1: a finite mid-frame stall must not cost the conn", got)
	}
	if ev := cli.Metrics().Counter(MetricConnEvictions).Value(); ev != 0 {
		t.Errorf("%d conns evicted", ev)
	}
}

// TestOversizedDataFrameRefused: a DATA header announcing more than
// StreamChunk is a framing error to both response readers — the mux's
// demux reader and wire.ReadResponseV2Into behind wire.Call — before any
// buffer is sized from it. The peer sends a 256 MiB header and hangs up;
// the call must fail on the header and allocate under 1 MiB.
func TestOversizedDataFrameRefused(t *testing.T) {
	st := newScriptedV2(t, func(i int, conn net.Conn, tag uint32, req *wire.Request) {
		var h [wire.FrameHeaderLen]byte
		wire.PutFrameHeader(h[:], wire.FrameHeader{Kind: wire.FrameData, Tag: tag, Len: 256 << 20})
		_, _ = conn.Write(h[:])
		conn.Close()
	})
	req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: []wire.Extent{{Off: 0, Len: 4096}}}
	for _, tc := range []struct {
		name string
		do   func(ctx context.Context) error
	}{
		{"mux", func(ctx context.Context) error {
			cli := NewClientWith(st.addr, ClientConfig{Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: -1}})
			defer cli.Close()
			_, err := cli.DoScratch(ctx, req, nil)
			return err
		}},
		{"wire.Call", func(ctx context.Context) error {
			_, err := wire.Call(ctx, nil, st.addr, req)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.do(ctxT(t))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "DATA frame of 268435456 bytes exceeds") {
				t.Errorf("a 256 MiB DATA header returned %v, want a framing error", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("a 256 MiB DATA header cost %d bytes of allocation, want under 1 MiB", got)
			}
		})
	}
}

// TestMuxAbandonWedgedFrame: a peer that stalls mid-frame for good must
// not hold a cancelled caller hostage — the backstop deadline cuts the
// conn loose within muxReadSlack.
func TestMuxAbandonWedgedFrame(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	st := newScriptedV2(t, func(i int, conn net.Conn, tag uint32, req *wire.Request) {
		dataHeader(conn, tag, 1024)
		_, _ = conn.Write(fillByte(100, 1))
		<-release
	})
	cli := NewClientWith(st.addr, ClientConfig{
		Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: -1, RequestTimeout: 20 * time.Millisecond},
	})
	defer cli.Close()
	start := time.Now()
	_, err := cli.DoScratch(ctxT(t), &wire.Request{Op: wire.OpRead, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 1024}}}, make([]byte, 2048))
	if err == nil {
		t.Fatal("wedged read reported success")
	}
	if d := time.Since(start); d > 5*muxReadSlack {
		t.Fatalf("caller was held %v by a wedged frame", d)
	}
}

// TestMuxLandingRobustness extends the v2 robustness tables (see
// internal/wire/robust_test.go) to the landing reader: whatever a
// server streams — DATA for tags nobody waits for, more bytes than the
// scratch holds, more or fewer than a DoInto call's pieces, a trailer
// that disagrees with what was sent — the caller gets the right bytes
// or an error, and a well-framed stream never costs the conn.
func TestMuxLandingRobustness(t *testing.T) {
	const n = 4096
	want := fillByte(n, 0x5A)
	cases := []struct {
		name      string
		script    func(conn net.Conn, tag uint32)
		scratch   int    // capacity of the caller's scratch
		wantErr   string // substring; "" = success with want
		connLives bool
		pieces    []int // when set, DoInto lands in pieces of these sizes
	}{
		{"in one frame with the trailer", func(conn net.Conn, tag uint32) {
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want}, 0)
		}, n + wire.RespOverhead, "", true, nil},
		{"wrong-tag DATA interleaved", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want[:100])
			_ = wire.NewFrameWriter(conn).WriteData(tag+77, fillByte(500, 0xEE)) // nobody's: dropped
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want[100:]}, 100)
		}, n + wire.RespOverhead, "", true, nil},
		{"scratch too small", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want[:n/2])
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want[n/2:]}, n/2)
		}, 100, "", true, nil},
		{"no scratch", func(conn net.Conn, tag uint32) {
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want}, 0)
		}, 0, "", true, nil},
		{"DATA overruns the trailer's count", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want)
			_ = wire.NewFrameWriter(conn).WriteData(tag, want) // twice what RESP announces
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n}, n)
		}, n + wire.RespOverhead, "announced", true, nil},
		{"DATA short of the trailer's count", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want[:10])
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n}, n)
		}, n + wire.RespOverhead, "announced", true, nil},
		{"error trailer after DATA", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want[:10])
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{Err: "disk gone"}, 10)
		}, n + wire.RespOverhead, "disk gone", true, nil},
		{"DATA frame cut short by a close", func(conn net.Conn, tag uint32) {
			dataHeader(conn, tag, n)
			_, _ = conn.Write(want[:n/3])
			conn.Close()
		}, n + wire.RespOverhead, "receive", false, nil},
		{"pieces filled exactly across frames", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want[:n/2+3])
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want[n/2+3:]}, n/2+3)
		}, 0, "", true, []int{100, 0, n/2 - 100, 1, n/2 - 1}},
		{"pieces overrun", func(conn net.Conn, tag uint32) {
			_ = wire.NewFrameWriter(conn).WriteData(tag, want[:n/2])
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want[n/2:]}, n/2)
		}, 0, "landing pieces", true, []int{n / 4, n / 2}},
		{"pieces short", func(conn net.Conn, tag uint32) {
			_ = wire.WriteResponseV2(conn, tag, &wire.Response{N: n, Data: want}, 0)
		}, 0, "landing pieces", true, []int{n, n}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newScriptedV2(t, func(i int, conn net.Conn, tag uint32, req *wire.Request) {
				if req.Op == wire.OpPing {
					_ = wire.WriteResponseV2(conn, tag, &wire.Response{}, 0)
					return
				}
				tc.script(conn, tag)
			})
			cli := NewClientWith(st.addr, ClientConfig{
				Retry: RetryPolicy{MaxRetries: -1, BreakerThreshold: -1},
			})
			defer cli.Close()
			ctx := ctxT(t)
			req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: []wire.Extent{{Off: 0, Len: n}}}
			var resp *wire.Response
			var err error
			var got []byte
			if tc.pieces != nil {
				var pieces [][]byte
				for _, k := range tc.pieces {
					pieces = append(pieces, make([]byte, k))
				}
				resp, err = cli.DoInto(ctx, req, pieces)
				got = bytes.Join(pieces, nil)
				if err == nil && resp.Data != nil {
					t.Error("a DoInto response carries Data")
				}
			} else {
				var scratch []byte
				if tc.scratch > 0 {
					scratch = make([]byte, tc.scratch)
				}
				resp, err = cli.DoScratch(ctx, req, scratch)
				if err == nil {
					got = resp.Data
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("read failed: %v", err)
			case tc.wantErr == "" && !bytes.Equal(got, want):
				t.Fatal("read returned wrong bytes")
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("read returned %v, want an error containing %q", err, tc.wantErr)
			}
			if err := cli.Ping(ctx); err != nil {
				t.Fatalf("ping afterwards: %v", err)
			}
			if lives := st.conns.Load() == 1; lives != tc.connLives {
				t.Errorf("conn survived = %v, want %v", lives, tc.connLives)
			}
		})
	}
}

// writeCountListener wraps accepted conns so every Write call is
// logged. A wrapper hides the conn's vectored-write fast path, so each
// buffer of a vectored write arrives as its own call.
type writeCountListener struct {
	net.Listener
	mu     sync.Mutex
	writes [][]byte // first bytes of every Write call, in order
}

type writeCountConn struct {
	net.Conn
	l *writeCountListener
}

func (l *writeCountListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountConn{Conn: c, l: l}, nil
}

func (c *writeCountConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, append([]byte(nil), p[:min(len(p), wire.FrameHeaderLen)]...))
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns and clears the log, as the frame kinds that started at
// a Write call boundary.
func (l *writeCountListener) take() (frames []wire.FrameKind, calls int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls = len(l.writes)
	for _, w := range l.writes {
		if h, err := wire.ReadFrameHeader(bytes.NewReader(w)); err == nil {
			frames = append(frames, h.Kind)
		}
	}
	l.writes = nil
	return frames, calls
}

// TestReadTailRidesTrailer pins the shape of a v2 read response: a
// read of N StreamChunks is N messages — N-1 DATA frames emitted while
// the subfile is read, then the last chunk in the same message as the
// RESP trailer — so a read of up to one chunk is answered by exactly
// one. The handler side is counted directly (emit calls); the conn
// side through a Write-logging conn, on which a message of k buffers
// is k calls: header and chunk per DATA frame, one for the trailer.
func TestReadTailRidesTrailer(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &writeCountListener{Listener: inner}
	srv, err := New(Config{Root: t.TempDir(), Name: "test-io"}, lis)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClientWith(srv.Addr(), ClientConfig{})
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	ctx := ctxT(t)
	const chunk = wire.StreamChunk
	file := make([]byte, 3*chunk)
	for i := range file {
		file[i] = byte(i * 7)
	}
	writeAt(t, cli, "f", 0, 0, file)

	for _, tc := range []struct {
		name     string
		exts     []wire.Extent
		messages int
	}{
		{"4 KiB", []wire.Extent{{Off: 100, Len: 4096}}, 1},
		{"exactly one chunk", []wire.Extent{{Off: 0, Len: chunk}}, 1},
		{"one chunk from many extents", []wire.Extent{{Off: 0, Len: 10}, {Off: 50, Len: chunk - 20}, {Off: 7, Len: 10}}, 1},
		{"one byte more", []wire.Extent{{Off: 0, Len: chunk + 1}}, 2},
		{"exactly two chunks", []wire.Extent{{Off: 0, Len: chunk}, {Off: chunk, Len: chunk}}, 2},
		{"two and a half", []wire.Extent{{Off: chunk / 2, Len: 5 * chunk / 2}}, 3},
		{"nothing", nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, e := range tc.exts {
				want = append(want, file[e.Off:e.Off+e.Len]...)
			}
			req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: tc.exts}

			// Handler side: all but the last chunk are emitted.
			emits := 0
			resp, streamed := srv.dispatchEmit(ctx, req, func(c []byte) error {
				if len(c) != chunk {
					t.Errorf("emitted a %d-byte chunk, want full %d-byte ones", len(c), chunk)
				}
				emits++
				return nil
			}, nil)
			if resp.Err != "" {
				t.Fatal(resp.Err)
			}
			if emits != tc.messages-1 || streamed+int64(len(resp.Data)) != int64(len(want)) {
				t.Errorf("handler emitted %d chunks (%d bytes) and kept %d for the trailer; want %d emitted of %d bytes in all",
					emits, streamed, len(resp.Data), tc.messages-1, len(want))
			}
			if len(want) > 0 && len(resp.Data) == 0 {
				t.Error("nothing rides with the trailer")
			}
			putReadBuf(resp.Data)

			// Conn side.
			lis.take()
			got, err := cli.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, want) {
				t.Fatal("read returned wrong bytes")
			}
			frames, calls := lis.take()
			dataFrames := tc.messages
			if len(want) == 0 {
				dataFrames = 0
			}
			wantFrames := append(repeatKind(wire.FrameData, dataFrames), wire.FrameResp)
			if !slices.Equal(frames, wantFrames) {
				t.Errorf("frames on the conn: %v, want %v", frames, wantFrames)
			}
			if want := 2*dataFrames + 1; calls != want {
				t.Errorf("response took %d Write calls, want %d (%d messages)", calls, want, tc.messages)
			}
		})
	}
}

func repeatKind(k wire.FrameKind, n int) []wire.FrameKind {
	out := make([]wire.FrameKind, n)
	for i := range out {
		out[i] = k
	}
	return out
}

// TestDataOpErrorsReleaseSpanAndBuffer covers the error paths of the
// data ops: an invalid extent is refused before any subfile I/O is
// timed or traced, and a disk error mid-loop still ends the
// server.subfile span and records subfile_io_us.
func TestDataOpErrorsReleaseSpanAndBuffer(t *testing.T) {
	srv, cli := startServerV2(t, ClientConfig{})
	ctx := ctxT(t)
	writeAt(t, cli, "f", 0, 0, fillByte(8192, 3))
	ioCount := func() int64 { return srv.Metrics().Snapshot().Histograms[MetricSubfileIO].Count }

	bad := []wire.Extent{{Off: 0, Len: 16}, {Off: -1, Len: 16}}
	for _, req := range []*wire.Request{
		{Op: wire.OpRead, Path: "f", Extents: bad},
		{Op: wire.OpWrite, Path: "f", Extents: bad, Data: make([]byte, 32)},
	} {
		before := ioCount()
		for _, emit := range []func([]byte) error{nil, func([]byte) error { return nil }} {
			resp, _ := srv.dispatchEmit(ctx, req, emit, nil)
			if !strings.Contains(resp.Err, "invalid extent") {
				t.Errorf("%v with a negative offset answered %q", req.Op, resp.Err)
			}
		}
		if got := ioCount(); got != before {
			t.Errorf("%v: a refused request recorded %d subfile_io_us samples", req.Op, got-before)
		}
	}

	// Pull the file out from under its cached handle: every pread and
	// pwrite now fails.
	srv.mu.Lock()
	for _, sf := range srv.files {
		sf.f.Close()
	}
	srv.mu.Unlock()
	root := obs.NewRootSpan("client.request")
	tc := root.Context()
	ok := []wire.Extent{{Off: 0, Len: 4096}}
	for _, req := range []*wire.Request{
		{Op: wire.OpRead, Path: "f", Extents: ok},
		{Op: wire.OpWrite, Path: "f", Extents: ok, Data: make([]byte, 4096)},
	} {
		req.TraceID, req.SpanID, req.Sampled = tc.TraceID, tc.SpanID, true
		for _, emit := range []func([]byte) error{nil, func([]byte) error { return nil }} {
			before, diskBefore := ioCount(), srv.Metrics().Counter(MetricDiskErrors).Value()
			resp, _ := srv.dispatchEmit(ctx, req, emit, nil)
			if resp.Err == "" {
				t.Fatalf("%v on a closed handle succeeded", req.Op)
			}
			if got := ioCount() - before; got != 1 {
				t.Errorf("%v: failed I/O recorded %d subfile_io_us samples, want 1", req.Op, got)
			}
			if got := srv.Metrics().Counter(MetricDiskErrors).Value() - diskBefore; got != 1 {
				t.Errorf("%v: disk_errors_total moved by %d, want 1", req.Op, got)
			}
			spans, err := obs.DecodeSpans(resp.Trace)
			if err != nil || len(spans) == 0 {
				t.Fatalf("%v: no span tree on the error response: %v", req.Op, err)
			}
			sub := spans[0].Children()
			if len(sub) != 1 || sub[0].Name != "server.subfile" || sub[0].Duration <= 0 {
				t.Errorf("%v: server.subfile span not ended on the error path: %+v", req.Op, sub)
			}
		}
	}
}
