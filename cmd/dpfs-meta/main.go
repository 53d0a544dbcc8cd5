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
// listen on ephemeral addresses printed at startup, and a commit is
// acknowledged only once the -repl-ack quorum holds it durably. Point
// clients and I/O servers at every replica with the printed -meta
// value (the group's comma-separated addresses); they follow the
// primary across failovers by redirect.
//
// With -debug-addr the daemon also serves /metrics (Prometheus text),
// /healthz, /debug/vars (JSON), /debug/trace, /debug/events and
// /debug/pprof over HTTP for scraping and debugging.
package main

import (
	"context"
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

	dbOpts := metadb.Options{Dir: *dir, Sync: *sync}
	if *replFactor > 1 {
		runGroup(*replFactor, ack, *addr, dbOpts, *debugAddr, *drainTimeout)
		return
	}

	db, err := metadb.Open(dbOpts)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	// Initialize the DPFS schema so freshly-pointed clients find the
	// four tables of Fig. 10.
	cat := meta.NewCatalog(db.Session())
	if err := cat.Init(); err != nil {
		fatal(err)
	}

	srv, err := mdbnet.Listen(db, *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dpfs-meta: serving DPFS metadata on %s (dir=%q sync=%v)\n", srv.Addr(), *dir, *sync)

	if *debugAddr != "" {
		regs := map[string]*obs.Registry{"db": db.Metrics(), "net": srv.Metrics()}
		stopDebug := startDebug(*debugAddr, regs, srv.Traces(), func() obs.Health {
			return obs.Health{Status: "ok", Detail: map[string]any{
				"addr":   srv.Addr(),
				"dir":    *dir,
				"sync":   *sync,
				"tables": len(db.TableNames()),
			}}
		})
		defer stopDebug()
	}

	drain(srv, *drainTimeout)
}

// runGroup runs the catalog as an n-way replica group inside this
// process: shared-nothing databases, one SQL server per replica
// (followers reject with a redirect to the primary), and the metarepl
// shipping stream between them. Replica 0 bootstraps fresh groups; a
// restarted durable group elects its primary instead.
func runGroup(n int, ack metarepl.Ack, addr string, dbOpts metadb.Options, debugAddr string, drainTimeout time.Duration) {
	liss := make([]*mdbnet.ReplListener, n)
	peers := make([]string, n)
	for j := range liss {
		lis, err := mdbnet.ListenRepl("")
		if err != nil {
			fatal(err)
		}
		liss[j] = lis
		peers[j] = lis.Addr()
	}
	dbs := make([]*metadb.DB, n)
	srvs := make([]*mdbnet.Server, n)
	sqlAddrs := make([]string, n)
	for j := 0; j < n; j++ {
		opts := dbOpts
		if opts.Dir != "" && j > 0 {
			opts.Dir = fmt.Sprintf("%s-r%d", dbOpts.Dir, j)
		}
		db, err := metadb.Open(opts)
		if err != nil {
			fatal(err)
		}
		dbs[j] = db
		a := addr
		if j > 0 {
			a = "" // followers pick ephemeral ports, printed below
		}
		srv, err := mdbnet.Listen(db, a)
		if err != nil {
			fatal(err)
		}
		srvs[j] = srv
		sqlAddrs[j] = srv.Addr()
	}
	reps := make([]*metarepl.Replica, n)
	for j := 0; j < n; j++ {
		rep, err := metarepl.New(metarepl.Config{
			Name: "meta", ID: j, Peers: peers, SQLAddrs: sqlAddrs,
			DB: dbs[j], Listener: liss[j], Ack: ack,
		})
		if err != nil {
			fatal(err)
		}
		reps[j] = rep
		srvs[j].SetGate(rep.Gate())
	}
	fresh := false
	if epoch, _ := dbs[0].ReplEpoch(); epoch == 0 {
		fresh = true
		if err := reps[0].Bootstrap(); err != nil {
			fatal(err)
		}
	}
	for _, rep := range reps {
		rep.Start()
	}
	if fresh {
		// The schema commit itself flows through quorum-acked shipping.
		// On a durable restart the schema already exists and the elected
		// primary may not be replica 0, so only fresh groups run Init.
		if err := meta.NewCatalog(dbs[0].Session()).Init(); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("dpfs-meta: serving DPFS metadata on %s as a %d-way replica group (dir=%q sync=%v ack=%s)\n",
		srvs[0].Addr(), n, dbOpts.Dir, dbOpts.Sync, ackName(ack))
	for j := 1; j < n; j++ {
		fmt.Printf("dpfs-meta: replica %d on %s (replication %s)\n", j, sqlAddrs[j], peers[j])
	}
	fmt.Printf("dpfs-meta: clients: -meta '%s'\n", strings.Join(sqlAddrs, ","))

	if debugAddr != "" {
		regs := map[string]*obs.Registry{"db": dbs[0].Metrics(), "net": srvs[0].Metrics()}
		for j, rep := range reps {
			regs[fmt.Sprintf("repl%d", j)] = rep.Metrics()
		}
		stopDebug := startDebug(debugAddr, regs, srvs[0].Traces(), func() obs.Health {
			primary := -1
			for j, rep := range reps {
				if rep.Role() == metarepl.Primary {
					primary = j
				}
			}
			epoch, _ := reps[0].Epoch()
			return obs.Health{Status: "ok", Detail: map[string]any{
				"addr":     srvs[0].Addr(),
				"replicas": n,
				"primary":  primary,
				"epoch":    epoch,
			}}
		})
		defer stopDebug()
	}

	drain(srvs[0], drainTimeout)
	for _, rep := range reps {
		rep.Close()
	}
	for j := 1; j < n; j++ {
		srvs[j].Close()
	}
	for _, db := range dbs {
		db.Close()
	}
}

func ackName(ack metarepl.Ack) string {
	if ack == metarepl.AckAll {
		return "all"
	}
	return "majority"
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
// the drain timeout to finish.
func drain(srv *mdbnet.Server, drainTimeout time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("dpfs-meta: draining (up to %v; signal again to force)\n", drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	go func() {
		<-sig
		cancel()
	}()
	err := srv.Shutdown(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpfs-meta: forced shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("dpfs-meta: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpfs-meta:", err)
	os.Exit(1)
}
