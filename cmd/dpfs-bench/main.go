// Command dpfs-bench regenerates the paper's evaluation figures
// (Figs. 11-14 of Section 8) and the ablation studies listed in
// DESIGN.md, printing one table row per bar. The testbed is built
// in-process: real TCP servers shaped by the netsim storage classes.
//
// Usage:
//
//	dpfs-bench -fig 11          # one figure
//	dpfs-bench -fig 0           # all four figures
//	dpfs-bench -n 1024          # larger array (paper: 32768)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dpfs/internal/bench"
	"dpfs/internal/obs"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (11-14; 0 = all)")
	ablation := flag.String("ablation", "", "run an ablation instead: stagger, shape, servers, sieve, collective, parallel, cache, replica, meta, or all")
	n := flag.Int64("n", 512, "array edge in elements (paper: 32768)")
	tile := flag.Int64("tile", 0, "multidim tile edge (default n/8; paper: 256)")
	reps := flag.Int("reps", 3, "repetitions per bar (median reported)")
	dir := flag.String("dir", "", "scratch directory (default: a temp dir)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("dpfs-bench", obs.Build().String())
		return
	}

	scratch := *dir
	if scratch == "" {
		var err error
		scratch, err = os.MkdirTemp("", "dpfs-bench")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(scratch)
	}
	cfg := bench.Config{N: *n, Tile: *tile, Dir: scratch, Reps: *reps}
	ctx := context.Background()

	emit := func(ms []bench.Measurement) {
		for _, m := range ms {
			if *csvOut {
				fmt.Printf("%s,%s,%s,%.3f,%d,%d,%.3f,%.3f,%d,%d,%d\n",
					m.Figure, m.Class, m.Label, m.MBps, m.Elapsed.Microseconds(),
					m.Requests, m.MovedMB, m.UsefulMB,
					m.Lat50.Microseconds(), m.Lat95.Microseconds(), m.Lat99.Microseconds())
			} else {
				fmt.Println(m)
			}
		}
		fmt.Println()
	}
	if *csvOut {
		fmt.Println("figure,class,variant,mbps,elapsed_us,requests,moved_mb,useful_mb,p50_us,p95_us,p99_us")
	}

	if *ablation != "" {
		names := []string{*ablation}
		if *ablation == "all" {
			names = bench.AblationNames()
		}
		for _, name := range names {
			fmt.Printf("== Ablation: %s ==\n", name)
			ms, err := bench.Ablation(ctx, cfg, name)
			if err != nil {
				fatal(err)
			}
			emit(ms)
		}
		return
	}

	figs := []int{11, 12, 13, 14}
	if *fig != 0 {
		figs = []int{*fig}
	}
	for _, f := range figs {
		fmt.Printf("== Figure %d ==\n", f)
		ms, err := bench.Figure(ctx, cfg, f)
		if err != nil {
			fatal(err)
		}
		emit(ms)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpfs-bench:", err)
	os.Exit(1)
}
