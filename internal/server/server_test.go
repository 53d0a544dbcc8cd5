package server

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpfs/internal/netsim"
	"dpfs/internal/wire"
)

func startServer(t *testing.T, model *netsim.Model) (*Server, *Client) {
	t.Helper()
	srv, err := Listen(Config{Root: t.TempDir(), Model: model, Name: "test-io"}, "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(srv.Addr())
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestPing(t *testing.T) {
	_, cli := startServer(t, nil)
	if err := cli.Ping(ctxT(t)); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)

	data := []byte("hello brick world")
	_, err := cli.Do(ctx, &wire.Request{
		Op: wire.OpWrite, Path: "dir/sub.f",
		Extents: []wire.Extent{{Off: 0, Len: 5}, {Off: 100, Len: 12}},
		Data:    data,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Do(ctx, &wire.Request{
		Op: wire.OpRead, Path: "dir/sub.f",
		Extents: []wire.Extent{{Off: 0, Len: 5}, {Off: 100, Len: 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, data) {
		t.Fatalf("read %q, want %q", resp.Data, data)
	}
	// The gap between the extents reads as zeros.
	resp, err = cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "dir/sub.f",
		Extents: []wire.Extent{{Off: 50, Len: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, make([]byte, 10)) {
		t.Fatalf("hole read %v", resp.Data)
	}
}

func TestReadPastEOFZeroFills(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 4}}, Data: []byte("abcd")}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "f",
		Extents: []wire.Extent{{Off: 2, Len: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("cd"), make([]byte, 6)...)
	if !bytes.Equal(resp.Data, want) {
		t.Fatalf("read %v, want %v", resp.Data, want)
	}
}

func TestReadMissingSubfileReturnsZeros(t *testing.T) {
	_, cli := startServer(t, nil)
	resp, err := cli.Do(ctxT(t), &wire.Request{Op: wire.OpRead, Path: "nope",
		Extents: []wire.Extent{{Off: 0, Len: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, make([]byte, 16)) {
		t.Fatalf("missing subfile read = %v", resp.Data)
	}
}

func TestStatRemoveUsage(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "a",
		Extents: []wire.Extent{{Off: 0, Len: 8}}, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "a"})
	if err != nil || resp.N != 8 {
		t.Fatalf("stat = %+v, %v", resp, err)
	}
	resp, err = cli.Do(ctx, &wire.Request{Op: wire.OpUsage})
	if err != nil || resp.N != 8 {
		t.Fatalf("usage = %+v, %v", resp, err)
	}
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpRemove, Path: "a"}); err != nil {
		t.Fatal(err)
	}
	resp, err = cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "a"})
	if err != nil || resp.N != 0 {
		t.Fatalf("stat after remove = %+v, %v", resp, err)
	}
	// Removing a missing subfile is idempotent.
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpRemove, Path: "a"}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 100}}, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpTruncate, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 10}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Do(ctx, &wire.Request{Op: wire.OpStat, Path: "f"})
	if err != nil || resp.N != 10 {
		t.Fatalf("size after truncate = %+v, %v", resp, err)
	}
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpTruncate, Path: "f"}); err == nil {
		t.Fatal("truncate without extent should fail")
	}
}

func TestPathEscapesRejected(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	for _, p := range []string{"../escape", "a/../../b", ""} {
		if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: p,
			Extents: []wire.Extent{{Off: 0, Len: 1}}, Data: []byte{1}}); err == nil {
			t.Errorf("path %q accepted", p)
		}
	}
	// Absolute paths are confined under the root rather than escaping.
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "/abs/ok",
		Extents: []wire.Extent{{Off: 0, Len: 1}}, Data: []byte{1}}); err != nil {
		t.Errorf("absolute path rejected: %v", err)
	}
}

func TestBadExtents(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "f",
		Extents: []wire.Extent{{Off: -1, Len: 4}}, Data: make([]byte, 4)}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 4}}, Data: make([]byte, 2)}); err == nil {
		t.Error("mismatched data length accepted")
	}
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.Op(42), Path: "f"}); err == nil {
		t.Error("unknown op accepted")
	}
	// The connection survives server-side errors.
	if err := cli.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(w)}, 1024)
			path := fmt.Sprintf("f%d", w)
			for i := 0; i < 10; i++ {
				if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: path,
					Extents: []wire.Extent{{Off: int64(i) * 1024, Len: 1024}}, Data: data}); err != nil {
					errs <- err
					return
				}
			}
			resp, err := cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: path,
				Extents: []wire.Extent{{Off: 3 * 1024, Len: 1024}}})
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp.Data, data) {
				errs <- fmt.Errorf("worker %d read wrong data", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestModelShapesService(t *testing.T) {
	model := netsim.New(netsim.Params{RequestLatency: 20 * time.Millisecond})
	_, cli := startServer(t, model)
	start := time.Now()
	if err := cli.Ping(ctxT(t)); err != nil { // ping is free
		t.Fatal(err)
	}
	if _, err := cli.Do(ctxT(t), &wire.Request{Op: wire.OpRead, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 1}}}); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 18*time.Millisecond {
		t.Errorf("shaped read returned in %v, want >= ~20ms", e)
	}
	if _, reqs := model.Stats(); reqs != 1 {
		t.Errorf("model charged %d requests, want 1", reqs)
	}
}

func TestServerClose(t *testing.T) {
	srv, err := Listen(Config{Root: t.TempDir()}, "")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(srv.Addr())
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := cli.Ping(ctx); err == nil {
		t.Fatal("ping against closed server should fail")
	}
	cli.Close()
	if err := cli.Ping(context.Background()); err == nil {
		t.Fatal("ping on closed client should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Listen(Config{}, ""); err == nil {
		t.Fatal("empty root accepted")
	}
}

// TestConnectionPoolReuse: sequential requests ride one connection.
func TestConnectionPoolReuse(t *testing.T) {
	srv, cli := startServer(t, nil)
	ctx := ctxT(t)
	for i := 0; i < 50; i++ {
		if err := cli.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if conns := srv.Metrics().Counter(MetricConnsTotal).Value(); conns != 1 {
		t.Errorf("sequential pings opened %d conns, want 1 (reuse)", conns)
	}
	if idle := cli.Metrics().Gauge(MetricClientConnsIdle).Value(); idle != 1 {
		t.Errorf("sequential pings left %d idle conns, want 1", idle)
	}
}

// TestClientConfigMaxIdleConns: what bounds the conns a client is left
// holding after a burst is the mux window — a conn is dialed
// only when every existing one is at the window — so 8 concurrent
// requests at window 4 leave at most 2.
func TestClientConfigMaxIdleConns(t *testing.T) {
	srv, _ := startServer(t, nil)
	cli := NewClient(srv.Addr())
	cli.mux.window = 4
	defer cli.Close()
	ctx := ctxT(t)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cli.Ping(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if idle := cli.Metrics().Gauge(MetricClientConnsIdle).Value(); idle < 1 || idle > 2 {
		t.Errorf("client holds %d idle conns after the burst, want 1 or 2", idle)
	}

	def := NewClient(srv.Addr())
	defer def.Close()
	if def.mux.window != DefaultMuxWindow {
		t.Errorf("NewClient window = %d, want %d", def.mux.window, DefaultMuxWindow)
	}
}

// A connection must not keep a finished request's deadline: after a
// request under a context deadline completes and the deadline (plus the
// demux reader's slack) passes, a later deadline-free request must find
// the conn alive and reuse it. (TestMuxIdleConnSurvivesOldDeadline is
// the same for RetryPolicy.RequestTimeout.)
func TestPooledConnDeadlineCleared(t *testing.T) {
	srv, cli := startServer(t, nil)
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	if err := cli.Ping(dctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	time.Sleep(100*time.Millisecond + muxReadSlack + 100*time.Millisecond) // let the old deadline expire
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatalf("reused conn failed after old deadline expired: %v", err)
	}
	if conns := srv.Metrics().Counter(MetricConnsTotal).Value(); conns != 1 {
		t.Fatalf("server saw %d conns, want 1 (the idle conn survives its old deadline)", conns)
	}
}

// Read responses draw their buffers from a pool; back-to-back reads
// must stay byte-correct (no stale pooled bytes leaking through) even
// when sizes shrink between requests.
func TestReadBufferPoolCorrectness(t *testing.T) {
	_, cli := startServer(t, nil)
	ctx := ctxT(t)
	big := bytes.Repeat([]byte{0xAB}, 8192)
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 8192}}, Data: big}); err != nil {
		t.Fatal(err)
	}
	// Large read primes the pool with a dirty buffer.
	if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "f",
		Extents: []wire.Extent{{Off: 0, Len: 8192}}}); err != nil {
		t.Fatal(err)
	}
	// Smaller read past EOF must come back zero-filled, not 0xAB.
	resp, err := cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "f",
		Extents: []wire.Extent{{Off: 8192, Len: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range resp.Data {
		if b != 0 {
			t.Fatalf("EOF read byte %d = %#x, want 0 (stale pooled data)", i, b)
		}
	}
	// Missing subfile read is all zeros too.
	resp, err = cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "nope",
		Extents: []wire.Extent{{Off: 0, Len: 4096}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range resp.Data {
		if b != 0 {
			t.Fatalf("missing-subfile read byte %d = %#x, want 0", i, b)
		}
	}
}
