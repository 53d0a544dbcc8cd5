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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dpfs/internal/bench"
	"dpfs/internal/fault"
	"dpfs/internal/obs"
	"dpfs/internal/server"
)

// jsonRow is one measurement in -json output (BENCH_dispatch.json and
// friends).
type jsonRow struct {
	Figure    string  `json:"figure"`
	Class     string  `json:"class"`
	Variant   string  `json:"variant"`
	MBps      float64 `json:"mbps"`
	ElapsedUS int64   `json:"elapsed_us"`
	Requests  int64   `json:"requests"`
	MovedMB   float64 `json:"moved_mb"`
	UsefulMB  float64 `json:"useful_mb"`
	P50US     int64   `json:"p50_us"`
	P95US     int64   `json:"p95_us"`
	P99US     int64   `json:"p99_us"`
}

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (11-14; 0 = all)")
	ablation := flag.String("ablation", "", "run an ablation instead: stagger, shape, servers, sieve, collective, parallel, cache, replica, meta, or all")
	n := flag.Int64("n", 512, "array edge in elements (paper: 32768)")
	tile := flag.Int64("tile", 0, "multidim tile edge (default n/8; paper: 256)")
	reps := flag.Int("reps", 3, "repetitions per bar (median reported)")
	dir := flag.String("dir", "", "scratch directory (default: a temp dir)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit a JSON array instead of aligned text")
	faultSpec := flag.String("fault-spec", "", "fault schedule for measured traffic, e.g. 'drop:prob=0.02;delay:prob=0.05,ms=2' (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault rules (deterministic per seed)")
	cacheMB := flag.Int64("cache-mb", 0, "client data-cache budget in MiB for measured engines (0 = cache off)")
	metaTTL := flag.Duration("meta-ttl", 0, "client metadata-cache TTL for measured engines (0 = cache off)")
	readahead := flag.Int("readahead", 0, "sequential readahead depth in bricks (needs -cache-mb)")
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
	cfg := bench.Config{N: *n, Tile: *tile, Dir: scratch, Reps: *reps,
		CacheBytes: *cacheMB << 20, MetaTTL: *metaTTL, Readahead: *readahead}
	if *faultSpec != "" {
		inj, err := fault.Parse(*faultSpec, *faultSeed)
		if err != nil {
			fatal(err)
		}
		cfg.Fault = inj
		// A fault run needs headroom to retry through its own schedule.
		cfg.Retry = server.RetryPolicy{MaxRetries: 8,
			BackoffBase: time.Millisecond, BackoffMax: 50 * time.Millisecond}
	}
	ctxAbl := context.Background()

	var rows []jsonRow
	emit := func(ms []bench.Measurement) {
		for _, m := range ms {
			switch {
			case *jsonOut:
				rows = append(rows, jsonRow{
					Figure: m.Figure, Class: m.Class, Variant: m.Label,
					MBps: m.MBps, ElapsedUS: m.Elapsed.Microseconds(),
					Requests: m.Requests, MovedMB: m.MovedMB, UsefulMB: m.UsefulMB,
					P50US: m.Lat50.Microseconds(), P95US: m.Lat95.Microseconds(), P99US: m.Lat99.Microseconds(),
				})
			case *csvOut:
				fmt.Printf("%s,%s,%s,%.3f,%d,%d,%.3f,%.3f,%d,%d,%d\n",
					m.Figure, m.Class, m.Label, m.MBps, m.Elapsed.Microseconds(),
					m.Requests, m.MovedMB, m.UsefulMB,
					m.Lat50.Microseconds(), m.Lat95.Microseconds(), m.Lat99.Microseconds())
			default:
				fmt.Println(m)
			}
		}
	}
	banner := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}
	flush := func() {
		if !*jsonOut {
			return
		}
		out, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
	if *csvOut && !*jsonOut {
		fmt.Println("figure,class,variant,mbps,elapsed_us,requests,moved_mb,useful_mb,p50_us,p95_us,p99_us")
	}

	if *ablation != "" {
		names := []string{*ablation}
		if *ablation == "all" {
			names = bench.AblationNames()
		}
		for _, name := range names {
			banner("== Ablation: %s ==\n", name)
			ms, err := bench.Ablation(ctxAbl, cfg, name)
			if err != nil {
				fatal(err)
			}
			emit(ms)
			banner("\n")
		}
		flush()
		return
	}

	figs := []int{11, 12, 13, 14}
	if *fig != 0 {
		figs = []int{*fig}
	}
	ctx := context.Background()
	for _, f := range figs {
		banner("== Figure %d ==\n", f)
		ms, err := bench.Figure(ctx, cfg, f)
		if err != nil {
			fatal(err)
		}
		emit(ms)
		banner("\n")
	}
	flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpfs-bench:", err)
	os.Exit(1)
}
