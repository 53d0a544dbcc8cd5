package dpfs_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpfs"
	"dpfs/internal/cache"
	"dpfs/internal/cluster"
)

// cacheOpts is the cached-client configuration the e2e tests use: data
// cache, metadata cache and readahead all on.
func cacheOpts() dpfs.Options {
	return dpfs.Options{
		Combine: true, Stagger: true,
		CacheBytes: 64 << 20, MetaTTL: time.Minute, Readahead: 2,
	}
}

// TestCachedEqualsUncachedQuickcheck drives a seeded random op
// sequence — interleaved section writes and reads — against two files
// of identical geometry, one through a cached client and one through
// an uncached client, at each of the three file levels. Every read
// must return byte-identical data in both worlds: the cache may only
// change performance, never contents.
func TestCachedEqualsUncachedQuickcheck(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cachedCli, err := dpfs.Connect(c.MetaSrv.Addr(), 0, cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cachedCli.Close()
	plainCli, err := dpfs.Connect(c.MetaSrv.Addr(), 1, dpfs.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer plainCli.Close()

	const n = 128 // array edge, elemSize 1
	levels := []struct {
		name string
		hint dpfs.Hint
	}{
		{"linear", dpfs.Hint{Level: dpfs.Linear, BrickBytes: 1024}},
		{"multidim", dpfs.Hint{Level: dpfs.Multidim, Tile: []int64{32, 32}}},
		{"array", dpfs.Hint{Level: dpfs.Array,
			Pattern: []dpfs.Dist{dpfs.Star, dpfs.Block}, Grid: []int64{1, 4}}},
	}
	for _, lv := range levels {
		t.Run(lv.name, func(t *testing.T) {
			dims := []int64{n, n}
			fc, err := cachedCli.Create("/qc-"+lv.name+"-c", 1, dims, lv.hint)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			fu, err := plainCli.Create("/qc-"+lv.name+"-u", 1, dims, lv.hint)
			if err != nil {
				t.Fatal(err)
			}
			defer fu.Close()

			rng := rand.New(rand.NewSource(42))
			for op := 0; op < 60; op++ {
				// A random in-bounds section; small enough that reads
				// frequently revisit previously cached bricks.
				r0, c0 := rng.Int63n(n), rng.Int63n(n)
				rc, cc := 1+rng.Int63n(n-r0), 1+rng.Int63n(n-c0)
				sec := dpfs.NewSection([]int64{r0, c0}, []int64{rc, cc})
				if rng.Intn(3) == 0 { // write
					data := make([]byte, rc*cc)
					for i := range data {
						data[i] = byte(rng.Int())
					}
					if err := fc.WriteSection(ctx, sec, data); err != nil {
						t.Fatalf("op %d cached write: %v", op, err)
					}
					if err := fu.WriteSection(ctx, sec, data); err != nil {
						t.Fatalf("op %d uncached write: %v", op, err)
					}
					continue
				}
				gc := make([]byte, rc*cc)
				gu := make([]byte, rc*cc)
				if err := fc.ReadSection(ctx, sec, gc); err != nil {
					t.Fatalf("op %d cached read: %v", op, err)
				}
				if err := fu.ReadSection(ctx, sec, gu); err != nil {
					t.Fatalf("op %d uncached read: %v", op, err)
				}
				if !bytes.Equal(gc, gu) {
					t.Fatalf("op %d (%s sec %v): cached read diverges from uncached", op, lv.name, sec)
				}
			}

			// The cached client must actually have exercised the cache.
			snap := cachedCli.Engine().Metrics().Snapshot()
			if snap.Counters[cache.MetricDataHits] == 0 {
				t.Fatal("cache_data_hits_total = 0: the quickcheck never hit the cache")
			}
		})
	}
}

// TestStaleGenerationE2E pins the metadata-dependent retry hazard this
// PR closes: client A holds an open handle while client B removes and
// recreates the path. A's cached distribution now addresses dead
// subfiles — the servers must reject its generation loudly instead of
// serving zeros, and a fresh open (after invalidation) must see B's
// bytes.
func TestStaleGenerationE2E(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	a, err := dpfs.Connect(c.MetaSrv.Addr(), 0, cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := dpfs.Connect(c.MetaSrv.Addr(), 1, dpfs.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const size = 8 * 1024
	hint := dpfs.Hint{Level: dpfs.Linear, BrickBytes: 1024}
	old := bytes.Repeat([]byte{0xAA}, size)
	fa, err := a.Create("/stale.dat", 1, []int64{size}, hint)
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.WriteAt(ctx, old, 0); err != nil {
		t.Fatal(err)
	}

	// B swaps the file out from under A's handle.
	if err := b.Remove(ctx, "/stale.dat"); err != nil {
		t.Fatal(err)
	}
	fb, err := b.Create("/stale.dat", 1, []int64{size}, hint)
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0x55}, size)
	if err := fb.WriteAt(ctx, fresh, 0); err != nil {
		t.Fatal(err)
	}
	fb.Close()

	// A's data cache may still answer some bricks locally, but any
	// brick that travels must be rejected: the handle's generation is
	// dead on every server. Invalidate A's caches first so the read is
	// forced onto the wire.
	a.Engine().InvalidateMeta("/stale.dat")
	got := make([]byte, size)
	err = fa.ReadAt(ctx, got, 0)
	if err == nil || !strings.Contains(err.Error(), "stale generation") {
		t.Fatalf("stale handle read error = %v, want stale generation", err)
	}
	fa.Close()

	// Reopening resolves the current generation and sees B's bytes.
	fa2, err := a.Open("/stale.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer fa2.Close()
	if err := fa2.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("reopened handle does not see the recreated file's bytes")
	}
}

// TestReadaheadE2E reads a linear file brick by brick in order and
// checks both correctness and that the sequential detector actually
// prefetched: later reads hit bricks the readahead already pulled in.
func TestReadaheadE2E(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cli, err := dpfs.Connect(c.MetaSrv.Addr(), 0, cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const brick = 4096
	const bricks = 16
	const size = brick * bricks
	f, err := cli.Create("/ra.dat", 1, []int64{size}, dpfs.Hint{Level: dpfs.Linear, BrickBytes: brick})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}

	for b := 0; b < bricks; b++ {
		got := make([]byte, brick)
		if err := f.ReadAt(ctx, got, int64(b*brick)); err != nil {
			t.Fatalf("brick %d: %v", b, err)
		}
		if !bytes.Equal(got, data[b*brick:(b+1)*brick]) {
			t.Fatalf("brick %d: sequential read diverges", b)
		}
		// The prefetch is asynchronous; a real scan has think time
		// between bricks, and without it this loop outruns the
		// readahead and every read misses.
		time.Sleep(2 * time.Millisecond)
	}

	snap := cli.Engine().Metrics().Snapshot()
	if snap.Counters[cache.MetricPrefetch] == 0 {
		t.Fatal("cache_prefetch_total = 0: sequential scan never triggered readahead")
	}
	if snap.Counters[cache.MetricDataHits] == 0 {
		t.Fatal("cache_data_hits_total = 0: prefetched bricks never served a read")
	}
}
