package server

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dpfs/internal/fault"
	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// smallBufListener shrinks every accepted conn's send buffer, and
// dialSmallBuf every client conn's receive buffer, so a frame of
// StreamChunk bytes cannot leave in one go and the sender meets EAGAIN
// mid-frame. The conns they return are still bare *net.TCPConns.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(32 << 10)
	}
	return c, err
}

func dialSmallBuf(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetReadBuffer(32 << 10)
	return c, nil
}

// zeroCopySide is one server of the equivalence table and its client.
type zeroCopySide struct {
	name string
	srv  *Server
	cli  *Client
}

// zeroCopySides starts two servers over small send buffers: one on a
// bare TCP listener, where full frames of plain extents leave by
// sendfile, and one behind a fault.Listener with no rules, whose
// wrapped conns keep every frame on the copy path.
func zeroCopySides(t *testing.T) []zeroCopySide {
	t.Helper()
	var sides []zeroCopySide
	for _, name := range []string{"bare", "fault"} {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var lis net.Listener = smallBufListener{inner}
		if name == "fault" {
			lis = fault.New(1).Listener(lis, "srv")
		}
		srv, err := New(Config{Root: t.TempDir(), Name: name}, lis)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClientWith(srv.Addr(), ClientConfig{Dial: dialSmallBuf})
		t.Cleanup(func() {
			cli.Close()
			srv.Close()
		})
		sides = append(sides, zeroCopySide{name: name, srv: srv, cli: cli})
	}
	return sides
}

// extentBytes is what plain exts of file read as: bytes past its end
// are zeros.
func extentBytes(file []byte, exts []wire.Extent) []byte {
	var out []byte
	for _, e := range exts {
		for off := e.Off; off < e.Off+e.Len; off++ {
			if off < int64(len(file)) {
				out = append(out, file[off])
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// TestZeroCopyMatchesCopyPath reads the same requests from a server
// that sends full frames by sendfile and from one that copies them, and
// checks both return the reference bytes, the same RESP data lengths,
// and that only the bare listener's server counts zero-copy bytes — and
// only for reads holding a whole frame of a plain extent: never for 4
// and 8 KiB reads, sieved reads or a missing subfile.
func TestZeroCopyMatchesCopyPath(t *testing.T) {
	const chunk = wire.StreamChunk
	file := make([]byte, 4*chunk+333)
	for i := range file {
		file[i] = byte(i*11 + i>>10)
	}
	sides := zeroCopySides(t)
	for _, sd := range sides {
		writeAt(t, sd.cli, "f", 0, 0, file)
	}
	column := []wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 0, Len: 512, Stride: 4096, Count: 3 * chunk / 4096}}}}
	size := int64(len(file))

	for _, tc := range []struct {
		name     string
		path     string
		exts     []wire.Extent
		sels     []wire.Selection
		zeroCopy bool // the bare side sends at least one frame by sendfile
	}{
		{"plain", "f", []wire.Extent{{Off: 0, Len: 4 * chunk}}, nil, true},
		{"joined extents", "f", []wire.Extent{{Off: 7, Len: 100 << 10}, {Off: 200 << 10, Len: 600 << 10}, {Off: 3, Len: 2*chunk + 9}}, nil, true},
		{"sieved", "f", []wire.Extent{{Off: 0, Len: 3 * chunk}}, column, false},
		{"600 KiB: two frames and a tail", "f", []wire.Extent{{Off: 5, Len: 600 << 10}}, nil, true},
		{"past the subfile's end", "f", []wire.Extent{{Off: size - 100<<10, Len: 3 * chunk}}, nil, true},
		{"missing subfile", "nope", []wire.Extent{{Off: 0, Len: 2 * chunk}}, nil, false},
		{"4 KiB", "f", []wire.Extent{{Off: 4096, Len: 4096}}, nil, false},
		{"8 KiB", "f", []wire.Extent{{Off: 8192, Len: 8192}}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := extentBytes(file, tc.exts)
			if tc.sels != nil {
				want, _ = sieveRef(file, tc.exts, tc.sels)
			}
			if tc.path != "f" {
				want = make([]byte, len(want))
			}
			req := &wire.Request{Op: wire.OpRead, Path: tc.path, Extents: tc.exts, Sel: encodeSelections(tc.sels)}
			var lens []int64
			for _, sd := range sides {
				zc := sd.srv.Metrics().Counter(MetricBytesOutZeroCopy)
				before := zc.Value()
				resp, err := sd.cli.Do(ctxT(t), req)
				if err != nil {
					t.Fatalf("%s: %v", sd.name, err)
				}
				if !bytes.Equal(resp.Data, want) {
					t.Errorf("%s: read returned wrong bytes", sd.name)
				}
				lens = append(lens, int64(len(resp.Data)), resp.N)
				sent := zc.Value() - before
				if wantSent := sd.name == "bare" && tc.zeroCopy; (sent > 0) != wantSent {
					t.Errorf("%s: %s moved by %d", sd.name, MetricBytesOutZeroCopy, sent)
				}
			}
			if lens[0] != lens[2] || lens[1] != lens[3] {
				t.Errorf("RESP data length, N: bare %d, %d; fault %d, %d", lens[0], lens[1], lens[2], lens[3])
			}
		})
	}

	t.Run("two tags at once on one conn", func(t *testing.T) {
		for _, sd := range sides {
			if _, err := sd.cli.Do(ctxT(t), &wire.Request{Op: wire.OpPing}); err != nil {
				t.Fatal(err)
			}
			conns := sd.srv.Metrics().Counter(MetricConnsTotal).Value()
			exts := [][]wire.Extent{{{Off: 1, Len: 600 << 10}}, {{Off: 2 * chunk, Len: 2*chunk + 333}}}
			var wg sync.WaitGroup
			got := make([][]byte, len(exts))
			for i := range exts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := sd.cli.Do(ctxT(t), &wire.Request{Op: wire.OpRead, Path: "f", Extents: exts[i]})
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = resp.Data
				}()
			}
			wg.Wait()
			for i := range exts {
				if !bytes.Equal(got[i], extentBytes(file, exts[i])) {
					t.Errorf("%s: tag %d read wrong bytes", sd.name, i)
				}
			}
			if n := sd.srv.Metrics().Counter(MetricConnsTotal).Value(); n != conns {
				t.Errorf("%s: the reads took %d new conns, want both tags on the one open", sd.name, n-conns)
			}
		}
	})
}

// TestZeroCopyPeerClosesMidFrame has the client drop its conn while a
// 4 MiB read is streaming. The small buffers keep most of the read on
// the server when the drop lands, so the server's send fails
// mid-frame and the session dies; the client's retry, on a new conn,
// returns the right bytes.
func TestZeroCopyPeerClosesMidFrame(t *testing.T) {
	file := make([]byte, 4<<20)
	for i := range file {
		file[i] = byte(i*5 + i>>12)
	}
	for _, sd := range zeroCopySides(t) {
		t.Run(sd.name, func(t *testing.T) {
			writeAt(t, sd.cli, "f", 0, 0, file)
			// The conn's third op is the demux reader's second read: the
			// first DATA frame is on its way in.
			inj := fault.New(1, fault.Rule{Kind: fault.KindDrop, Nth: 3, Count: 1})
			dial := func(ctx context.Context, addr string) (net.Conn, error) {
				c, err := dialSmallBuf(ctx, addr)
				if err != nil {
					return nil, err
				}
				return inj.Conn(c, "srv"), nil
			}
			reg := obs.NewRegistry()
			cli := NewClientWith(sd.srv.Addr(), ClientConfig{Dial: dial, Metrics: reg,
				Retry: RetryPolicy{MaxRetries: 2, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}})
			defer cli.Close()
			m := sd.srv.Metrics()
			errs, conns := m.Counter(MetricErrors).Value(), m.Counter(MetricConnsTotal).Value()
			resp, err := cli.Do(ctxT(t), &wire.Request{Op: wire.OpRead, Path: "f", Extents: []wire.Extent{{Off: 0, Len: int64(len(file))}}})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Data, file) {
				t.Fatal("the retried read returned wrong bytes")
			}
			if got := reg.Counter(MetricClientRetries).Value(); got != 1 {
				t.Errorf("client retried %d times, want 1", got)
			}
			if got := m.Counter(MetricConnsTotal).Value() - conns; got != 2 {
				t.Errorf("the read took %d conns, want 2: the dropped one and the retry's", got)
			}
			// The failed send ends the cut read as an error on the server,
			// and its session with it.
			for deadline := time.Now().Add(10 * time.Second); m.Counter(MetricErrors).Value() == errs; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the cut read never failed on the server")
				}
			}
			if got := m.Counter(MetricErrors).Value() - errs; got != 1 {
				t.Errorf("server errors moved by %d, want 1", got)
			}
			if inj.Total() != 1 {
				t.Errorf("the drop fired %d times, want once", inj.Total())
			}
		})
	}
}
