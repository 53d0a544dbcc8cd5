// Checkpoint: the paper's motivating workload for array-level striping
// (Sec. 3.3). A simulated time-stepping application with NP processes
// periodically dumps its (BLOCK, *) distributed state, then restarts
// from the latest checkpoint. Because each process writes and reads
// its chunk as a whole, the file is created at the array level: one
// brick per chunk, one request per process per checkpoint.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"sync"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
)

const (
	np    = 8   // compute processes
	side  = 512 // square grid edge
	steps = 3   // checkpoints to take
	rowsP = side / np
)

// process is one rank of the simulated application: it owns a
// (BLOCK, *) horizontal slab of a diffusion grid.
type process struct {
	rank int
	grid []float64 // rowsP x side
}

func (p *process) step() {
	// A toy relaxation so state actually changes between checkpoints.
	for i := range p.grid {
		p.grid[i] = p.grid[i]*0.5 + math.Sin(float64(i+p.rank))*0.5
	}
}

func (p *process) section() dpfs.Section {
	return dpfs.NewSection([]int64{int64(p.rank) * rowsP, 0}, []int64{rowsP, side})
}

func (p *process) bytes() []byte {
	out := make([]byte, len(p.grid)*8)
	for i, v := range p.grid {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func (p *process) restore(b []byte) {
	for i := range p.grid {
		p.grid[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("checkpoint: ")

	dir, err := os.MkdirTemp("", "dpfs-checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	clu, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()
	ctx := context.Background()

	// Rank 0 creates the checkpoint file with an array-level hint:
	// the (BLOCK, *) pattern over np processes makes each rank's slab
	// one whole brick.
	admin, err := clu.NewFS(0, core.Options{Combine: true})
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	client := dpfs.Wrap(admin)
	if err := client.Mkdir("/ckpt"); err != nil {
		log.Fatal(err)
	}
	f, err := client.Create("/ckpt/state", 8, []int64{side, side}, dpfs.Hint{
		Level:   dpfs.Array,
		Pattern: []dpfs.Dist{dpfs.Block, dpfs.Star},
		Grid:    []int64{np, 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint file: %d bricks (one per rank), level %s\n",
		f.Geometry().NumBricks(), f.Geometry().Level)
	f.Close()

	// Launch the ranks.
	procs := make([]*process, np)
	for r := range procs {
		procs[r] = &process{rank: r, grid: make([]float64, rowsP*side)}
	}

	dump := func(step int) {
		stats := make([]dpfs.Stats, np) // each rank's handle's traffic
		var wg sync.WaitGroup
		for _, p := range procs {
			wg.Add(1)
			go func(p *process) {
				defer wg.Done()
				fs, err := clu.NewFS(p.rank, core.Options{Combine: true, Stagger: true})
				if err != nil {
					log.Fatal(err)
				}
				defer fs.Close()
				f, err := fs.Open("/ckpt/state")
				if err != nil {
					log.Fatal(err)
				}
				defer f.Close()
				if err := f.WriteSection(ctx, p.section(), p.bytes()); err != nil {
					log.Fatal(err)
				}
				stats[p.rank] = f.Stats()
			}(p)
		}
		wg.Wait()
		var requests, useful int64
		for _, st := range stats {
			requests += st.Requests
			useful += st.BytesUseful
		}
		fmt.Printf("step %d: dumped %d MiB in %d requests (%.1f req/rank)\n",
			step, useful>>20, requests, float64(requests)/np)
	}

	for s := 1; s <= steps; s++ {
		for _, p := range procs {
			p.step()
		}
		dump(s)
	}

	// Simulate a crash: throw all in-memory state away, then restart
	// from the checkpoint and verify it matches the last dump.
	saved := make([][]float64, np)
	for r, p := range procs {
		saved[r] = append([]float64(nil), p.grid...)
		p.grid = make([]float64, rowsP*side)
	}
	fmt.Println("simulated crash; restoring from DPFS")

	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *process) {
			defer wg.Done()
			fs, err := clu.NewFS(p.rank, core.Options{Combine: true, Stagger: true})
			if err != nil {
				log.Fatal(err)
			}
			defer fs.Close()
			f, err := fs.Open("/ckpt/state")
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, p.section().Bytes(8))
			if err := f.ReadSection(ctx, p.section(), buf); err != nil {
				log.Fatal(err)
			}
			p.restore(buf)
		}(p)
	}
	wg.Wait()

	for r, p := range procs {
		for i := range p.grid {
			if p.grid[i] != saved[r][i] {
				log.Fatalf("rank %d: restored state differs at %d", r, i)
			}
		}
	}
	fmt.Println("restore verified: all ranks recovered their exact state")
}
