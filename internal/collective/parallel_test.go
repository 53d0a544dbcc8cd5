package collective

import (
	"bytes"
	"sync"
	"testing"

	"dpfs/internal/core"
	"dpfs/internal/stripe"
)

// TestCollectiveParallelDispatch runs the two-phase collective path on
// rank engines that dispatch their shipping phase in parallel: the
// interleaved-row exchange must still produce the exact array.
func TestCollectiveParallelDispatch(t *testing.T) {
	const np = 4
	const n = 32
	c := startCluster(t, 4)
	ctx := ctxT(t)

	admin, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	f0, err := admin.Create("/coll-par", 8, []int64{n, n},
		core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	f0.Close()

	files := make([]*core.File, np)
	for r := 0; r < np; r++ {
		fs, err := c.NewFS(r, core.Options{Combine: true, Stagger: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		files[r], err = fs.Open("/coll-par")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func(f *core.File) func() { return func() { f.Close() } }(files[r]))
	}

	g, err := NewGroup(np)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < n/np; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for r := 0; r < np; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				row := int64(round*np + rank)
				sec := stripe.NewSection([]int64{row, 0}, []int64{1, n})
				errs <- g.WriteAll(ctx, rank, files[rank], sec, bytes.Repeat([]byte{byte(row)}, n*8))
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
}
