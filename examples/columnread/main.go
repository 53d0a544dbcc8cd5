// Columnread: the worked example of Figs. 5 and 6. The same 2-d array
// is stored twice — once with linear striping, once with
// multidimensional striping — and read back column-wise, the
// (*, BLOCK) pattern of matrix codes. The program prints the brick and
// byte traffic of both layouts, reproducing the paper's argument: a
// column read of a linear file touches every brick and discards most
// of each, while the multidimensional file touches only the tiles the
// column intersects. The linear file is read twice: in whole bricks,
// the paper's access unit (what an engine with a data cache fetches),
// and the way an engine without one reads it — the servers sieve each
// brick, so only the columns travel, though every brick is still
// visited. The last row writes the same columns back: a write is the
// sieved read run backwards, the servers scattering the pieces into
// each brick.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/netsim"
)

const (
	n    = 1024 // array edge (elements, float64)
	tile = 128  // multidim tile edge
	np   = 8    // processes, each with its block of columns
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("columnread: ")

	dir, err := os.MkdirTemp("", "dpfs-columnread")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Four class-1 servers so the timings mean something.
	clu, err := cluster.Start(cluster.Config{
		Servers: cluster.UniformClass(4, netsim.Class1()),
		Dir:     dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()
	ctx := context.Background()

	fs, err := clu.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()
	client := dpfs.Wrap(fs)

	dims := []int64{n, n}
	full := dpfs.FullSection(dims)
	data := make([]byte, full.Bytes(8))
	for i := range data {
		data[i] = byte(i)
	}

	// The same array, two layouts, same brick byte size.
	layouts := []struct {
		path string
		hint dpfs.Hint
	}{
		{"/linear.dat", dpfs.Hint{Level: dpfs.Linear, BrickBytes: tile * tile * 8}},
		{"/multidim.dat", dpfs.Hint{Level: dpfs.Multidim, Tile: []int64{tile, tile}}},
	}
	for _, l := range layouts {
		f, err := client.Create(l.path, 8, dims, l.hint)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.WriteSection(ctx, full, data); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	fmt.Printf("array: %dx%d float64 (%d MiB), brick %d KiB, %d processes on (*, BLOCK) column blocks\n\n",
		n, n, (n*n*8)>>20, (tile*tile*8)>>10, np)
	fmt.Printf("%-14s %10s %12s %12s %10s %10s\n",
		"layout", "requests", "moved KiB", "useful KiB", "waste", "elapsed")

	for _, row := range []struct {
		label string
		path  string
		cache int64 // a (cold) data cache makes the engine fetch whole bricks
		write bool
	}{
		{"linear, whole", "/linear.dat", n * n * 8, false},
		{"linear, sieved", "/linear.dat", 0, false},
		{"multidim", "/multidim.dat", 0, false},
		{"linear, write", "/linear.dat", 0, true},
	} {
		reqs, moved, useful, elapsed := moveColumns(ctx, clu, row.path, row.cache, row.write)
		fmt.Printf("%-14s %10d %12d %12d %9.1fx %10v\n",
			row.label, reqs, moved>>10, useful>>10,
			float64(moved)/float64(useful), elapsed.Round(time.Millisecond))
	}

	fmt.Println("\nmultidimensional striping touches only the tiles the columns cross;")
	fmt.Println("linear striping fetches every brick of the file and, in the paper's whole-brick")
	fmt.Println("unit, discards most of it; sieved at the servers only the columns travel, but")
	fmt.Println("every brick is still visited, in one sweep per server across its neighbouring")
	fmt.Println("slots. Written back, the columns travel the same way: the pieces alone,")
	fmt.Println("scattered at the servers, one extent per server request.")
}

// moveColumns has np goroutines each read, or write, its (*, BLOCK)
// column slice, and sums their handles' traffic.
func moveColumns(ctx context.Context, clu *cluster.Cluster, path string, cacheBytes int64, write bool) (reqs, moved, useful int64, elapsed time.Duration) {
	start := time.Now()
	stats := make([]dpfs.Stats, np)
	done := make(chan error, np)
	for r := 0; r < np; r++ {
		go func(rank int) {
			var err error
			stats[rank], err = moveSlice(ctx, clu, rank, path, cacheBytes, write)
			done <- err
		}(r)
	}
	for i := 0; i < np; i++ {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
	elapsed = time.Since(start)
	for _, st := range stats {
		reqs += st.Requests
		moved += st.BytesTransferred
		useful += st.BytesUseful
	}
	return reqs, moved, useful, elapsed
}

// moveSlice has rank read, or write, its column slice through an engine
// of its own, and returns the handle's traffic.
func moveSlice(ctx context.Context, clu *cluster.Cluster, rank int, path string, cacheBytes int64, write bool) (dpfs.Stats, error) {
	fs, err := clu.NewFS(rank, core.Options{Combine: true, Stagger: true, CacheBytes: cacheBytes})
	if err != nil {
		return dpfs.Stats{}, err
	}
	defer fs.Close()
	f, err := fs.Open(path)
	if err != nil {
		return dpfs.Stats{}, err
	}
	defer f.Close()
	w := int64(n / np)
	sec := dpfs.NewSection([]int64{0, int64(rank) * w}, []int64{n, w})
	buf := make([]byte, sec.Bytes(8))
	if write {
		err = f.WriteSection(ctx, sec, buf)
	} else {
		err = f.ReadSection(ctx, sec, buf)
	}
	return f.Stats(), err
}
