// Collectiveio: the paper's future-work layer in action (Sec. 10:
// "use DPFS as a low level system to service a high level interface
// such as MPI-I/O"). NP ranks hold interleaved rows of a matrix — a
// (CYCLIC, *) distribution, the worst case for independent I/O because
// every rank's rows fragment across every tile. The program writes the
// matrix twice, independently and through the two-phase collective
// layer, and prints the request counts and timings side by side.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/collective"
	"dpfs/internal/core"
	"dpfs/internal/netsim"
	"dpfs/internal/stripe"
)

const (
	np   = 8
	n    = 512
	tile = 64
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("collectiveio: ")

	dir, err := os.MkdirTemp("", "dpfs-coll")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	clu, err := cluster.Start(cluster.Config{
		Servers: cluster.UniformClass(4, netsim.Class1()),
		Dir:     dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()
	ctx := context.Background()

	// One file per mode, same geometry.
	admin, err := clu.NewFS(0, core.Options{Combine: true})
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	for _, path := range []string{"/indep", "/coll"} {
		f, err := admin.Create(path, 8, []int64{n, n},
			core.Hint{Level: stripe.LevelMultidim, Tile: []int64{tile, tile}})
		if err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	// Per-rank handles.
	files := map[string][]*core.File{}
	for _, path := range []string{"/indep", "/coll"} {
		files[path] = make([]*core.File, np)
		for r := 0; r < np; r++ {
			fs, err := clu.NewFS(r, core.Options{Combine: true, Stagger: true})
			if err != nil {
				log.Fatal(err)
			}
			defer fs.Close()
			files[path][r], err = fs.Open(path)
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Printf("%d ranks each writing %d interleaved rows of a %dx%d float64 matrix (tile %dx%d)\n\n",
		np, n/np, n, n, tile, tile)
	fmt.Printf("%-22s %10s %12s %10s\n", "mode", "requests", "elapsed", "MB/s")

	rowBytes := int64(n * 8)
	secFor := func(rank, round int) stripe.Section {
		return stripe.NewSection([]int64{int64(round*np + rank), 0}, []int64{1, n})
	}
	rounds := n / np

	runMode := func(label, path string, coll bool) {
		g, err := collective.NewGroup(np)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for r := 0; r < np; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				row := make([]byte, rowBytes)
				for i := range row {
					row[i] = byte(rank)
				}
				for round := 0; round < rounds; round++ {
					sec := secFor(rank, round)
					var err error
					if coll {
						err = g.WriteAll(ctx, rank, files[path][rank], sec, row)
					} else {
						err = files[path][rank].WriteSection(ctx, sec, row)
					}
					if err != nil {
						log.Fatal(err)
					}
				}
			}(r)
		}
		wg.Wait()
		elapsed := time.Since(start)
		// Each mode's handles are its own: they count its every request,
		// the aggregators' included.
		var requests, useful int64
		for _, f := range files[path] {
			st := f.Stats()
			requests += st.Requests
			useful += st.BytesUseful
		}
		mbps := float64(useful) / (1 << 20) / elapsed.Seconds()
		fmt.Printf("%-22s %10d %12v %10.1f\n", label, requests, elapsed.Round(time.Millisecond), mbps)
	}

	runMode("independent", "/indep", false)
	runMode("collective (2-phase)", "/coll", true)

	// Both files end up identical.
	a := make([]byte, n*n*8)
	b := make([]byte, n*n*8)
	full := stripe.FullSection([]int64{n, n})
	if err := files["/indep"][0].ReadSection(ctx, full, a); err != nil {
		log.Fatal(err)
	}
	if err := files["/coll"][0].ReadSection(ctx, full, b); err != nil {
		log.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			log.Fatalf("independent and collective results differ at byte %d", i)
		}
	}
	fmt.Println("\nverified: both modes produced identical file contents")
	fmt.Println("the collective layer merges every round's", np, "single-row requests into")
	fmt.Println("brick-aligned transfers issued by one aggregator per server stripe.")
}
