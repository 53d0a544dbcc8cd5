package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// TestParallelDispatchConcurrentClients runs several goroutine clients
// (the default, overlapped dispatch) against one cluster: every roundtrip must be
// byte-exact, and the per-file counters must sum to exactly the
// per-engine counters (run under -race this also exercises the
// engine's concurrent scatter path).
func TestParallelDispatchConcurrentClients(t *testing.T) {
	const np = 4
	const size = 8 * 4096
	c := startCluster(t, 4)
	ctx := ctxT(t)

	fss := make([]*core.FS, np)
	files := make([]*core.File, np)
	for r := 0; r < np; r++ {
		fs := newFS(t, c, r, core.Options{Combine: true, Stagger: true})
		fss[r] = fs
		f, err := fs.Create(fmt.Sprintf("/par-%d.bin", r), 1, []int64{size},
			core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096, Placement: stripe.RoundRobin{}})
		if err != nil {
			t.Fatal(err)
		}
		files[r] = f
	}
	t.Cleanup(func() {
		for _, f := range files {
			f.Close()
		}
	})

	var wg sync.WaitGroup
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i*7 + r)
			}
			if err := files[r].WriteAt(ctx, data, 0); err != nil {
				errs <- err
				return
			}
			got := make([]byte, size)
			if err := files[r].ReadAt(ctx, got, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("rank %d: roundtrip mismatch", r)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var perFile, perEngine core.Stats
	for r := range files {
		fst, est := files[r].Stats(), fss[r].Stats()
		perFile.Requests += fst.Requests
		perFile.BytesTransferred += fst.BytesTransferred
		perFile.BytesUseful += fst.BytesUseful
		perEngine.Requests += est.Requests
		perEngine.BytesTransferred += est.BytesTransferred
		perEngine.BytesUseful += est.BytesUseful
	}
	if perFile != perEngine {
		t.Fatalf("per-file sum %+v != per-engine sum %+v", perFile, perEngine)
	}
	if perFile.BytesUseful != np*2*size {
		t.Fatalf("useful bytes = %d, want %d", perFile.BytesUseful, np*2*size)
	}
}

// spanServers lists the servers of a trace's server.rpc spans in span
// order — which, the dispatch loop creating each span as it launches the
// request, is launch order, however many exchanges then overlap.
func spanServers(t *testing.T, log *obs.TraceLog) []string {
	t.Helper()
	tr := log.Last()
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	var out []string
	for _, sp := range tr.Root.Children() {
		out = append(out, sp.Server)
	}
	return out
}

// TestParallelStaggerLaunchOrder: with Stagger, the per-server spans of
// a traced access must appear in rotation order starting at rank mod S
// — on the loop's inline branch (MaxInflight 1), on its concurrent
// branch, and between them. A replicated write, which runs the loop in
// its run-everything mode over every replica rank's requests, must
// launch in one and the same order on both branches too, its primary
// copy's requests first and in rotation order.
func TestParallelStaggerLaunchOrder(t *testing.T) {
	const servers = 4
	c := startCluster(t, servers)
	ctx := ctxT(t)
	names := c.ServerNames()

	for rank := 0; rank < servers; rank++ {
		var replicated [][]string
		for _, inflight := range []int{1, 2, 0} {
			fs := newFS(t, c, rank, core.Options{Combine: true, Stagger: true, MaxInflight: inflight})
			log := fs.EnableTracing(4)
			for _, replicas := range []int{1, 2} {
				f, err := fs.Create(fmt.Sprintf("/stag-%d-%d-%d.bin", rank, inflight, replicas), 1, []int64{8 * 4096},
					core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096, Placement: stripe.RoundRobin{}, Replicas: replicas})
				if err != nil {
					t.Fatal(err)
				}
				if err := f.WriteAt(ctx, pattern(8*4096), 0); err != nil {
					t.Fatal(err)
				}
				f.Close()

				got := spanServers(t, log)
				if len(got) != replicas*servers {
					t.Fatalf("rank %d, MaxInflight %d, R=%d: got %d server.rpc spans, want %d", rank, inflight, replicas, len(got), replicas*servers)
				}
				for i, srv := range got[:servers] {
					if want := names[(rank+i)%servers]; srv != want {
						t.Fatalf("rank %d, MaxInflight %d, R=%d: launch %d hit %s, want %s", rank, inflight, replicas, i, srv, want)
					}
				}
				if replicas > 1 {
					replicated = append(replicated, got)
				}
			}
		}
		for _, got := range replicated[1:] {
			if !reflect.DeepEqual(got, replicated[0]) {
				t.Fatalf("rank %d: replicated write launched %v on one branch of the loop, %v on the other", rank, replicated[0], got)
			}
		}
	}
}

// TestParallelSequentialByteIdentical is the equivalence quickcheck of
// the dispatch loop's two branches: for random sections of a 2-D file,
// writes issued one per server at once and reads issued one at a time
// (and vice versa) must observe exactly the same bytes as an in-memory
// reference array — on a plain file, where the loop stops at the first
// error, and on a replicated one, whose writes run it in its
// run-everything mode.
func TestParallelSequentialByteIdentical(t *testing.T) {
	const n = 64
	c := startCluster(t, 4)
	ctx := ctxT(t)
	seqFS := newFS(t, c, 0, core.Options{Combine: true, Stagger: true, MaxInflight: 1})
	parFS := newFS(t, c, 1, core.Options{Combine: true, Stagger: true})
	mk := newFS(t, c, 2, core.Options{Combine: true})

	for _, replicas := range []int{1, 2} {
		path := fmt.Sprintf("/equiv-r%d", replicas)
		f0, err := mk.Create(path, 4, []int64{n, n}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}, Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		f0.Close()
		seqF, err := seqFS.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer seqF.Close()
		parF, err := parFS.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer parF.Close()

		ref := &refFile{dims: []int64{n, n}, elem: 4, data: make([]byte, n*n*4)}
		rng := rand.New(rand.NewSource(42))
		for iter := 0; iter < 25; iter++ {
			wsec := randSection(rng, ref.dims)
			data := make([]byte, wsec.Bytes(4))
			rng.Read(data)
			writer, reader := parF, seqF
			if iter%2 == 1 {
				writer, reader = seqF, parF
			}
			if err := writer.WriteSection(ctx, wsec, data); err != nil {
				t.Fatal(err)
			}
			ref.embedSection(wsec, data)

			rsec := randSection(rng, ref.dims)
			got := make([]byte, rsec.Bytes(4))
			if err := reader.ReadSection(ctx, rsec, got); err != nil {
				t.Fatal(err)
			}
			if want := ref.extract(rsec); !bytes.Equal(got, want) {
				t.Fatalf("R=%d iter %d: section %v read mismatch (wrote %v, overlapped=%v)",
					replicas, iter, rsec, wsec, iter%2 == 0)
			}
		}
	}
}

// serverRequests sums requests_total over the cluster's I/O servers.
func serverRequests(c *cluster.Cluster) (n int64) {
	for _, srv := range c.IOServers {
		n += srv.Metrics().Counter(server.MetricRequests).Value()
	}
	return n
}

// TestParallelDispatchCancellation: a cancelled context must fail the
// access with the context's error — no request of it is even launched,
// and an access that skipped a request never reports success — on both
// branches of the loop and in both its modes; and the engine must stay
// usable for the next call.
func TestParallelDispatchCancellation(t *testing.T) {
	c := startCluster(t, 4)
	for _, inflight := range []int{1, 0} {
		for _, replicas := range []int{1, 2} {
			fs := newFS(t, c, 0, core.Options{Combine: true, MaxInflight: inflight})
			f, err := fs.Create(fmt.Sprintf("/cancel-%d-%d.bin", inflight, replicas), 1, []int64{8 * 4096},
				core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096, Placement: stripe.RoundRobin{}, Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			dead, cancel := context.WithCancel(context.Background())
			cancel()
			before := serverRequests(c)
			if err := f.WriteAt(dead, pattern(8*4096), 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("MaxInflight %d, R=%d: write with cancelled context = %v, want context.Canceled", inflight, replicas, err)
			}
			if err := f.ReadAt(dead, make([]byte, 8*4096), 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("MaxInflight %d, R=%d: read with cancelled context = %v, want context.Canceled", inflight, replicas, err)
			}
			if replicas == 1 {
				// Fail-fast: nothing launches under a dead context. (A
				// replicated write launches everything by design.)
				if got := serverRequests(c) - before; got != 0 {
					t.Fatalf("MaxInflight %d: %d requests reached the servers under a cancelled context", inflight, got)
				}
			}

			ctx := ctxT(t)
			data := pattern(8 * 4096)
			if err := f.WriteAt(ctx, data, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if err := f.ReadAt(ctx, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("roundtrip after cancellation mismatch")
			}
		}
	}
}

// TestParallelDispatchFirstError: the first error ends the access. With
// only the first server of the sweep gone and one request in flight at
// a time, the rest of the sweep is never launched — and the access
// still reports the error, not success; with every server gone, an
// overlapped access reports an error (the first one observed) rather
// than succeed or hang.
func TestParallelDispatchFirstError(t *testing.T) {
	c := startCluster(t, 4)
	ctx := ctxT(t)
	quick := server.RetryPolicy{MaxRetries: -1}
	seqFS := newFS(t, c, 0, core.Options{Combine: true, Stagger: true, MaxInflight: 1, Retry: quick})
	parFS := newFS(t, c, 0, core.Options{Combine: true, Stagger: true, Retry: quick})

	f, err := seqFS.Create("/err.bin", 1, []int64{8 * 4096},
		core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096, Placement: stripe.RoundRobin{}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt(ctx, pattern(8*4096), 0); err != nil {
		t.Fatal(err)
	}
	pf, err := parFS.Open("/err.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()

	// Rank 0's staggered sweep starts at server 0.
	if err := c.IOServers[0].Close(); err != nil {
		t.Fatal(err)
	}
	before := serverRequests(c)
	if err := f.ReadAt(ctx, make([]byte, 8*4096), 0); err == nil {
		t.Fatal("read with its first server gone succeeded")
	}
	if got := serverRequests(c) - before; got != 0 {
		t.Fatalf("%d requests launched after the sweep's first one failed, want 0", got)
	}
	if err := pf.ReadAt(ctx, make([]byte, 8*4096), 0); err == nil {
		t.Fatal("overlapped read with one server gone succeeded")
	}

	c.Close() // servers down: every in-flight exchange now fails
	if err := pf.ReadAt(ctx, make([]byte, 8*4096), 0); err == nil {
		t.Fatal("read against closed cluster succeeded")
	}
}
