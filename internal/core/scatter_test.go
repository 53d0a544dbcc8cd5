package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpfs/internal/core"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// columnFile creates a rows x 64 float64 linear file in 4 KiB (eight-
// row) bricks, filled with a pattern, and returns it with its
// reference: a block of eight columns is eight 64-byte pieces of every
// brick, so every column-block access is sieved and any two share all
// their bricks.
func columnFile(t *testing.T, fs *core.FS, path string, rows int64, replicas int) (*core.File, *refFile) {
	t.Helper()
	dims := []int64{rows, 64}
	f, err := fs.Create(path, 8, dims, core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ref := &refFile{dims: dims, elem: 8, data: pattern(rows * 64 * 8)}
	if err := f.WriteSection(ctxT(t), stripe.FullSection(dims), ref.data); err != nil {
		t.Fatal(err)
	}
	return f, ref
}

// columnBlock is the section of the eight columns starting at 8*k.
func columnBlock(rows, k int64) stripe.Section {
	return stripe.NewSection([]int64{0, 8 * k}, []int64{rows, 8})
}

// TestConcurrentColumnWriters has two engines write interleaved column
// blocks — one the even blocks, one the odd — of a file whose every
// brick they therefore share, at the same time and round after round.
// The servers scatter each piece on its own and never rewrite the span
// around it, so with no lock between the two writers every byte must
// still end up as the reference has it. (Run under -race by make check.)
func TestConcurrentColumnWriters(t *testing.T) {
	const rows = 128
	c := startCluster(t, 2)
	ctx := ctxT(t)
	setup := newFS(t, c, 0, core.Options{Combine: true})
	_, ref := columnFile(t, setup, "/columns", rows, 1)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		fs := newFS(t, c, w+1, core.Options{Combine: true, Stagger: true})
		f, err := fs.Open("/columns")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for k := int64(w); k < 8; k += 2 {
					sec := columnBlock(rows, k)
					data := make([]byte, sec.Bytes(8))
					rng.Read(data)
					if err := f.WriteSection(ctx, sec, data); err != nil {
						t.Errorf("writer %d, block %d: %v", w, k, err)
						return
					}
					ref.mu.Lock()
					ref.embedSection(sec, data)
					ref.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	got := make([]byte, len(ref.data))
	f, err := setup.Open("/columns")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.ReadSection(ctx, stripe.FullSection(ref.dims), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.data) {
		t.Error("interleaved column writers lost or misplaced bytes")
	}
}

// killOnWrite is a connection to a server that dies the moment the
// client next sends it something once armed: the send fails and the
// server is closed before the failure is reported.
type killOnWrite struct {
	net.Conn
	armed *atomic.Bool
	kill  func()
}

func (k killOnWrite) Write(p []byte) (int, error) {
	if k.armed.CompareAndSwap(true, false) {
		k.kill()
		return 0, errors.New("server killed mid-write")
	}
	return k.Conn.Write(p)
}

// TestScatterWriteReplicaKilled: column-block writes to an R=2 file,
// with one server killed as the second block's request is being sent to
// it. That write and every later one land degraded — counted, not
// failed — on the surviving copies, and a fresh engine then reads every
// byte back, the dead server's bricks by failover: both the writes'
// selections and the reads' were built against each replica's own slot.
func TestScatterWriteReplicaKilled(t *testing.T) {
	const rows = 96
	c := startCluster(t, 3)
	ctx := ctxT(t)
	victim := c.IOServers[0]
	retry := server.RetryPolicy{MaxRetries: 1, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond}
	var armed atomic.Bool
	fs := newFS(t, c, 0, core.Options{Combine: true, Stagger: true, Retry: retry,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil || addr != victim.Addr() {
				return conn, err
			}
			return killOnWrite{conn, &armed, func() { victim.Close() }}, nil
		}})
	f, ref := columnFile(t, fs, "/columns", rows, 2)

	rng := rand.New(rand.NewSource(22))
	for k := int64(0); k < 8; k++ {
		if k == 1 {
			armed.Store(true)
		}
		sec := columnBlock(rows, k)
		data := make([]byte, sec.Bytes(8))
		rng.Read(data)
		if err := f.WriteSection(ctx, sec, data); err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		ref.embedSection(sec, data)
	}
	if armed.Load() {
		t.Fatal("no request ever went to the victim")
	}
	if n := fs.Metrics().Counter(core.MetricDegradedWrites).Value(); n != 7 {
		t.Errorf("%d degraded writes, want the 7 made after the kill", n)
	}

	reader := newFS(t, c, 1, core.Options{Combine: true, Retry: retry})
	rf, err := reader.Open("/columns")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for k := int64(0); k < 8; k++ {
		sec := columnBlock(rows, k)
		got := make([]byte, sec.Bytes(8))
		if err := rf.ReadSection(ctx, sec, got); err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		if !bytes.Equal(got, ref.extract(sec)) {
			t.Errorf("block %d read back wrong", k)
		}
	}
	all := make([]byte, len(ref.data))
	if err := rf.ReadSection(ctx, stripe.FullSection(ref.dims), all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, ref.data) {
		t.Error("the file differs from the reference")
	}
	if reader.Metrics().Counter(core.MetricFailovers).Value() == 0 {
		t.Error("the reader never failed over: the killed server held no preferred brick")
	}
}
