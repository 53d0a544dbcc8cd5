// Command dpfs-meta runs the DPFS metadata database server: the role
// POSTGRES plays in the paper (Section 5). It serves SQL over TCP to
// DPFS clients, servers and shells, with durable storage (write-ahead
// log + snapshots) under -dir.
//
// Usage:
//
//	dpfs-meta -addr :7700 -dir /var/lib/dpfs-meta
//
// With -repl-factor N the catalog runs as an N-way replica group in
// this process (DESIGN.md §13): replica 0 serves -addr, the others
// listen on ports picked at first start, and a commit is acknowledged
// only once the -repl-ack quorum holds it durably. Point clients and
// I/O servers at every replica with the printed -meta value (the
// group's comma-separated addresses); they follow the primary across
// failovers by redirect. With -dir each replica records its addresses
// in its directory (replica j ≥ 1 stores in <dir>-r<j>), so a restart
// prints, and serves, the same list. Without -repl-factor the catalog
// is a group of one: the same startup, with no replication.
//
// With -debug-addr the daemon also serves /metrics (Prometheus text),
// /healthz, /debug/vars (JSON), /debug/trace, /debug/events and
// /debug/pprof over HTTP for scraping and debugging.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dpfs/internal/meta"
	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/metarepl"
	"dpfs/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "TCP listen address")
	dir := flag.String("dir", "", "durable storage directory (empty = in-memory)")
	sync := flag.Bool("sync", false, "acknowledge no commit before a write-ahead-log fsync covers it (concurrent commits share fsyncs)")
	replFactor := flag.Int("repl-factor", 1, "run the catalog as an N-way replica group in this process; replica 0 serves -addr, the rest print their addresses at startup")
	replAck := flag.String("repl-ack", "majority", "replication acknowledgement quorum: majority or all")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /metrics, /healthz and /debug/vars (default: disabled)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: in-flight statements get this long to finish on SIGTERM/SIGINT")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("dpfs-meta", obs.Build().String())
		return
	}
	var ack metarepl.Ack
	switch *replAck {
	case "majority":
		ack = metarepl.AckMajority
	case "all":
		ack = metarepl.AckAll
	default:
		fatal(fmt.Errorf("unknown -repl-ack %q (want majority or all)", *replAck))
	}

	g, err := metarepl.StartGroup(metarepl.GroupConfig{
		N: *replFactor, Addr: *addr, DB: metadb.Options{Dir: *dir, Sync: *sync}, Ack: ack,
	})
	if err != nil {
		fatal(err)
	}
	defer g.Close()
	addrs := g.Addrs()

	// Initialize the DPFS schema so freshly-pointed clients find the
	// four tables of Fig. 10 (a no-op on a restarted catalog). On a
	// replica group the commit flows through quorum-acked shipping.
	cli, err := mdbnet.DialGroup(addrs, nil)
	if err != nil {
		fatal(err)
	}
	err = meta.NewCatalog(cli).Init()
	cli.Close()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("dpfs-meta: serving DPFS metadata on %s (dir=%q sync=%v replicas=%d ack=%s)\n",
		addrs[0], *dir, *sync, len(addrs), *replAck)
	for j := 1; j < len(addrs); j++ {
		fmt.Printf("dpfs-meta: replica %d on %s\n", j, addrs[j])
	}
	fmt.Printf("dpfs-meta: clients: -meta '%s'\n", strings.Join(addrs, ","))

	if *debugAddr != "" {
		regs := map[string]*obs.Registry{"db": g.DB(0).Metrics(), "net": g.Server(0).Metrics()}
		for j := range addrs {
			if rep := g.Replica(j); rep != nil {
				regs[fmt.Sprintf("repl%d", j)] = rep.Metrics()
			}
		}
		stopDebug := startDebug(*debugAddr, regs, g.Server(0).Traces(), func() obs.Health {
			epoch, _ := g.DB(0).ReplEpoch()
			return obs.Health{Status: "ok", Detail: map[string]any{
				"addr":     addrs[0],
				"dir":      *dir,
				"sync":     *sync,
				"replicas": len(addrs),
				"primary":  g.Primary(),
				"epoch":    epoch,
				"tables":   len(g.DB(0).TableNames()),
			}}
		})
		defer stopDebug()
	}

	drain(g, *drainTimeout)
}

// startDebug brings up the HTTP debug endpoint and returns its closer.
func startDebug(addr string, regs map[string]*obs.Registry, traces *obs.TraceLog, health func() obs.Health) func() {
	obs.PublishExpvar("dpfs", regs)
	h := obs.NewHandler(obs.HandlerConfig{
		Regs:   regs,
		Health: health,
		Traces: traces,
		Pprof:  true,
	})
	dbg, err := obs.StartDebug(addr, h)
	if err != nil {
		fatal(fmt.Errorf("debug server: %w", err))
	}
	fmt.Printf("dpfs-meta: debug endpoints on http://%s/metrics\n", dbg.Addr())
	return func() { dbg.Close() }
}

// drain waits for a shutdown signal, then gives in-flight statements
// on every replica's SQL server the drain timeout to finish.
func drain(g *metarepl.Group, drainTimeout time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("dpfs-meta: draining (up to %v; signal again to force)\n", drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	go func() {
		<-sig
		cancel()
	}()
	var err error
	for j := range g.Addrs() {
		err = errors.Join(err, g.Server(j).Shutdown(ctx))
	}
	cancel()
	if err != nil {
		g.Close()
		fmt.Fprintln(os.Stderr, "dpfs-meta: forced shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("dpfs-meta: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpfs-meta:", err)
	os.Exit(1)
}
