// Heterogeneous: the Fig. 13 story as a runnable program. Storage is
// half class 1 (fast LAN disks) and half class 3 (slower metro-network
// disks); the same file is placed once with round-robin and once with
// the greedy algorithm of Fig. 8, and the program reports the brick
// split and the measured write/read bandwidth of both placements.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/netsim"
	"dpfs/internal/stripe"
)

// Scale matches cmd/dpfs-bench's Fig. 13 defaults: small enough that
// the simulated device costs (netsim), not the host's real disk,
// dominate the measurement.
const (
	n    = 512 // array edge
	tile = 64
	np   = 8
	io   = 8
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("heterogeneous: ")

	dir, err := os.MkdirTemp("", "dpfs-het")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	clu, err := cluster.Start(cluster.Config{
		Servers:       cluster.Mixed(io), // half class 1, half class 3
		Dir:           dir,
		RefBrickBytes: tile * tile * 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()
	ctx := context.Background()

	fmt.Printf("storage: %d servers, half %s half %s\n", io, netsim.Class1().Name, netsim.Class3().Name)
	perfParams := make([]netsim.Params, io)
	for i, spec := range cluster.Mixed(io) {
		perfParams[i] = spec.Class
	}
	perf := netsim.NormalizedPerf(perfParams, tile*tile*8)
	fmt.Printf("normalized performance numbers: %v\n\n", perf)

	placements := []struct {
		name string
		p    dpfs.Placement
	}{
		{"round-robin", dpfs.RoundRobin{}},
		{"greedy", dpfs.Greedy{Perf: perf}},
	}

	fmt.Printf("%-12s %22s %14s %14s\n", "placement", "bricks fast/slow", "write MB/s", "read MB/s")
	for _, pl := range placements {
		fast, slow, wr, rd := runPlacement(ctx, clu, pl.name, pl.p)
		fmt.Printf("%-12s %15d / %4d %14.1f %14.1f\n", pl.name, fast, slow, wr, rd)
	}
	fmt.Println("\nthe greedy algorithm hands the fast servers ~3x the bricks, so neither")
	fmt.Println("class finishes long before the other and bandwidth rises (paper Fig. 13).")
}

func runPlacement(ctx context.Context, clu *cluster.Cluster, name string, placement dpfs.Placement) (fast, slow int, writeMBps, readMBps float64) {
	path := "/het-" + name
	admin, err := clu.NewFS(0, core.Options{Combine: true})
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()

	f, err := admin.Create(path, 8, []int64{n, n}, dpfs.Hint{
		Level:     dpfs.Multidim,
		Tile:      []int64{tile, tile},
		Placement: placement,
		Servers:   clu.ServerNames(),
	})
	if err != nil {
		log.Fatal(err)
	}
	// Count the brick split from the catalog's own records.
	_, rs, err := admin.Catalog().LookupReplicated(path)
	if err != nil {
		log.Fatal(err)
	}
	lists := stripe.BrickLists(rs.Primary(), io)
	for s, l := range lists {
		if s < io/2 {
			fast += len(l)
		} else {
			slow += len(l)
		}
	}
	f.Close()

	// One warm-up pass (subfile creation, connection dialing), then
	// the median of three measured passes.
	access(ctx, clu, path, true)
	writeMBps = median3(func() float64 { return access(ctx, clu, path, true) })
	readMBps = median3(func() float64 { return access(ctx, clu, path, false) })
	return fast, slow, writeMBps, readMBps
}

func median3(f func() float64) float64 {
	a, b, c := f(), f(), f()
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return b
	case (b <= a && a <= c) || (c <= a && a <= b):
		return a
	}
	return c
}

// access runs np ranks each writing or reading its (BLOCK, *) slab and
// returns the aggregate bandwidth.
func access(ctx context.Context, clu *cluster.Cluster, path string, write bool) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	var total int64
	var mu sync.Mutex
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fs, err := clu.NewFS(rank, core.Options{Combine: true, Stagger: true})
			if err != nil {
				log.Fatal(err)
			}
			defer fs.Close()
			f, err := fs.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			h := int64(n / np)
			sec := dpfs.NewSection([]int64{int64(rank) * h, 0}, []int64{h, n})
			buf := make([]byte, sec.Bytes(8))
			if write {
				err = f.WriteSection(ctx, sec, buf)
			} else {
				err = f.ReadSection(ctx, sec, buf)
			}
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			total += int64(len(buf))
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	return float64(total) / (1 << 20) / time.Since(start).Seconds()
}
