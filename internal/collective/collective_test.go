package collective

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/stripe"
)

func startCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(n), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// openRankFiles creates the file and opens one handle per rank.
func openRankFiles(t *testing.T, c *cluster.Cluster, np int, path string, hint core.Hint, dims []int64) []*core.File {
	t.Helper()
	admin, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	f, err := admin.Create(path, 8, dims, hint)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	files := make([]*core.File, np)
	for r := 0; r < np; r++ {
		fs, err := c.NewFS(r, core.Options{Combine: true, Stagger: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		files[r], err = fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestCollectiveWriteReadRoundtrip: NP ranks collectively write
// interleaved row slices ((CYCLIC, *)-style, the worst case for
// independent I/O), then collectively read them back.
func TestCollectiveWriteReadRoundtrip(t *testing.T) {
	const np = 4
	const n = 64
	c := startCluster(t, 4)
	ctx := ctxT(t)
	files := openRankFiles(t, c, np, "/coll", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}}, []int64{n, n})

	g, err := NewGroup(np)
	if err != nil {
		t.Fatal(err)
	}

	// Rank r writes rows r, r+np, r+2np, ... one collective call per
	// row round; every rank's data byte is its rank+round marker.
	write := func(round int) {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for r := 0; r < np; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				row := int64(round*np + rank)
				sec := stripe.NewSection([]int64{row, 0}, []int64{1, n})
				data := bytes.Repeat([]byte{byte(row)}, n*8)
				errs <- g.WriteAll(ctx, rank, files[rank], sec, data)
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < n/np; round++ {
		write(round)
	}

	// Independent verification read of the full array.
	full := stripe.FullSection([]int64{n, n})
	buf := make([]byte, full.Bytes(8))
	if err := files[0].ReadSection(ctx, full, buf); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		for i := 0; i < n*8; i++ {
			if buf[row*n*8+i] != byte(row) {
				t.Fatalf("row %d byte %d = %d, want %d", row, i, buf[row*n*8+i], row)
			}
		}
	}

	// Collective read: each rank reads a different interleaved stripe
	// and must see the written markers.
	var wg sync.WaitGroup
	errs := make(chan error, np)
	got := make([][]byte, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			row := int64(rank * np) // some row written by round 0..n
			sec := stripe.NewSection([]int64{row, 0}, []int64{1, n})
			got[rank] = make([]byte, n*8)
			errs <- g.ReadAll(ctx, rank, files[rank], sec, got[rank])
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < np; r++ {
		want := bytes.Repeat([]byte{byte(r * np)}, n*8)
		if !bytes.Equal(got[r], want) {
			t.Fatalf("rank %d collective read mismatch", r)
		}
	}
}

// TestCollectiveReducesRequests: an interleaved (CYCLIC) row pattern
// needs far fewer server requests collectively than independently.
func TestCollectiveReducesRequests(t *testing.T) {
	const np = 4
	const n = 64
	c := startCluster(t, 4)
	ctx := ctxT(t)
	files := openRankFiles(t, c, np, "/reqs", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{16, 16}}, []int64{n, n})

	secFor := func(rank, round int) stripe.Section {
		return stripe.NewSection([]int64{int64(round*np + rank), 0}, []int64{1, n})
	}

	// Independent: each rank writes its interleaved rows directly.
	before := requests(files)
	for round := 0; round < 4; round++ {
		for r := 0; r < np; r++ {
			sec := secFor(r, round)
			if err := files[r].WriteSection(ctx, sec, make([]byte, n*8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	independent := requests(files) - before

	// Collective: same traffic through the group.
	g, _ := NewGroup(np)
	before = requests(files)
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for r := 0; r < np; r++ {
			wg.Add(1)
			go func(rank, round int) {
				defer wg.Done()
				errs <- g.WriteAll(ctx, rank, files[rank], secFor(rank, round), make([]byte, n*8))
			}(r, round)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	collective := requests(files) - before

	if collective >= independent {
		t.Fatalf("collective used %d requests, independent %d; collective should be fewer", collective, independent)
	}
}

// requests sums the server requests issued through the ranks' handles,
// the aggregators' included.
func requests(files []*core.File) int64 {
	var n int64
	for _, f := range files {
		n += f.Stats().Requests
	}
	return n
}

// TestCollectiveOverlappingWrites: overlapping regions resolve without
// corruption (some writer wins per byte).
func TestCollectiveOverlappingWrites(t *testing.T) {
	const np = 2
	c := startCluster(t, 2)
	ctx := ctxT(t)
	files := openRankFiles(t, c, np, "/olap", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{4, 4}}, []int64{8, 8})

	g, _ := NewGroup(np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// Both ranks write the same full array.
			sec := stripe.FullSection([]int64{8, 8})
			data := bytes.Repeat([]byte{byte(rank + 1)}, 8*8*8)
			if err := g.WriteAll(ctx, rank, files[rank], sec, data); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()

	buf := make([]byte, 8*8*8)
	if err := files[0].ReadSection(ctx, stripe.FullSection([]int64{8, 8}), buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 1 && b != 2 {
			t.Fatalf("byte %d = %d, want 1 or 2", i, b)
		}
	}
}

// TestGroupErrors covers argument validation.
func TestGroupErrors(t *testing.T) {
	if _, err := NewGroup(0); err == nil {
		t.Fatal("zero-size group accepted")
	}
	c := startCluster(t, 2)
	ctx := ctxT(t)
	files := openRankFiles(t, c, 1, "/e", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{4, 4}}, []int64{8, 8})
	g, _ := NewGroup(1)

	sec := stripe.FullSection([]int64{8, 8})
	if err := g.WriteAll(ctx, 5, files[0], sec, make([]byte, 8*8*8)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := g.WriteAll(ctx, 0, nil, sec, nil); err == nil {
		t.Fatal("nil file accepted")
	}
	if err := g.WriteAll(ctx, 0, files[0], sec, make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}
	// Single-rank group degenerates to independent I/O.
	if err := g.WriteAll(ctx, 0, files[0], sec, make([]byte, 8*8*8)); err != nil {
		t.Fatal(err)
	}
}

// TestGroupContextCancel: a rank waiting on a collective that never
// completes unblocks on context cancellation.
func TestGroupContextCancel(t *testing.T) {
	c := startCluster(t, 2)
	files := openRankFiles(t, c, 2, "/cancel", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{4, 4}}, []int64{8, 8})
	g, _ := NewGroup(2)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	sec := stripe.FullSection([]int64{8, 8})
	// Only rank 0 enters; rank 1 never arrives.
	err := g.WriteAll(ctx, 0, files[0], sec, make([]byte, 8*8*8))
	if err == nil {
		t.Fatal("expected context error")
	}
}

// TestCollectiveArrayLevel works on array-level (chunked) files too.
func TestCollectiveArrayLevel(t *testing.T) {
	const np = 4
	c := startCluster(t, 4)
	ctx := ctxT(t)
	hint := core.Hint{Level: stripe.LevelArray,
		Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistStar}, Grid: []int64{np, 1}}
	files := openRankFiles(t, c, np, "/arr", hint, []int64{32, 32})

	g, _ := NewGroup(np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sec := stripe.NewSection([]int64{int64(rank) * 8, 0}, []int64{8, 32})
			data := bytes.Repeat([]byte{byte(rank + 10)}, 8*32*8)
			if err := g.WriteAll(ctx, rank, files[rank], sec, data); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()

	buf := make([]byte, 8*32*8)
	for r := 0; r < np; r++ {
		sec := stripe.NewSection([]int64{int64(r) * 8, 0}, []int64{8, 32})
		if err := files[0].ReadSection(ctx, sec, buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf {
			if b != byte(r+10) {
				t.Fatalf("rank %d chunk byte %d = %d", r, i, b)
			}
		}
	}
}
