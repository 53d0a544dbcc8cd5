// Command dpfs-sh is the DPFS user interface of Section 7: an
// interactive shell with UNIX-like commands (ls, pwd, cd, mkdir,
// rmdir, rm, stat, df, cp, cat, stats) over a DPFS deployment,
// including data transfer between sequential files and DPFS (cp with
// local: paths). The stats command prints the session's own traffic
// counters and request-latency percentiles; trace and events expose
// the session's distributed traces and cluster event log.
//
// Usage:
//
//	dpfs-sh -meta 127.0.0.1:7700            # interactive
//	dpfs-sh -meta 127.0.0.1:7700 -c "ls /"  # one command
//	dpfs-sh -meta 127.0.0.1:7700 -trace     # record distributed traces
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dpfs"
	"dpfs/internal/obs"
	"dpfs/internal/shell"
)

// traceCap is the session's trace-ring capacity under -trace.
const traceCap = 256

func main() {
	metaAddr := flag.String("meta", "127.0.0.1:7700", "metadata server address, or one catalog replica group's addresses separated by commas")
	command := flag.String("c", "", "run one command and exit")
	rank := flag.Int("rank", 0, "compute rank (drives staggered scheduling)")
	cacheMB := flag.Int64("cache-mb", 0, "client data-cache budget in MiB (0 = cache off)")
	metaTTL := flag.Duration("meta-ttl", 0, "client metadata-cache TTL (0 = cache off)")
	readahead := flag.Int("readahead", 0, "sequential readahead depth in bricks (needs -cache-mb)")
	replicas := flag.Int("replicas", 0, "replication factor for files this shell creates (0 = engine default of 1)")
	trace := flag.Bool("trace", false, "record distributed request traces (see the trace command)")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of traced requests that propagate trace context to the servers")
	slowMS := flag.Int64("slow-request-ms", 0, "log requests slower than this to the event log with their full trace (0 = off)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("dpfs-sh", obs.Build().String())
		return
	}

	client, err := dpfs.Connect(*metaAddr, *rank, dpfs.Options{Combine: true, Stagger: true,
		CacheBytes: *cacheMB << 20, MetaTTL: *metaTTL, Readahead: *readahead,
		TraceSample: *traceSample, SlowRequest: time.Duration(*slowMS) * time.Millisecond})
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	if *trace {
		client.Engine().EnableTracing(traceCap)
	}
	sh := shell.New(client)
	sh.SetReplicas(*replicas)
	ctx := context.Background()

	if *command != "" {
		out, err := sh.Run(ctx, *command)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	fmt.Println("DPFS shell (type 'help' for commands, ctrl-D to exit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Printf("dpfs:%s> ", sh.Cwd())
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		out, err := sh.Run(ctx, scanner.Text())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Print(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpfs-sh:", err)
	os.Exit(1)
}
