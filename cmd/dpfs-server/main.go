// Command dpfs-server runs one DPFS I/O server (Section 2): it stores
// subfiles under -root, serves brick requests over TCP, and registers
// itself in the metadata database so clients can find it. An optional
// -class attaches the netsim performance model of one of the paper's
// three storage classes, for single-machine experiments.
//
// Usage:
//
//	dpfs-server -addr :7801 -root /data/dpfs -name io0 -meta 127.0.0.1:7700
//	dpfs-server -addr :7802 -root /tmp/s2 -name io1 -meta ... -class class3
//
// With -debug-addr the server also serves /metrics (Prometheus text),
// /healthz, /debug/vars (JSON), /debug/trace, /debug/events,
// /debug/gossip and /debug/pprof over HTTP for scraping and debugging.
// With -gossip the server joins the peer-to-peer health plane on its
// data port (DESIGN.md §14), seeded from the catalog's server table.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpfs"
	"dpfs/internal/fault"
	"dpfs/internal/gossip"
	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address")
	root := flag.String("root", "", "directory for subfile storage (required)")
	name := flag.String("name", "", "server name in the catalog (default: the listen address)")
	metaAddr := flag.String("meta", "", "metadata server address to register with, or one catalog replica group's addresses separated by commas (optional)")
	className := flag.String("class", "", "simulated storage class: class1, class2 or class3 (default: native speed)")
	capacity := flag.Int64("capacity", 1<<30, "advertised capacity in bytes")
	advertise := flag.String("advertise", "", "address to advertise in the catalog (default: the listen address)")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /metrics, /healthz and /debug/vars (default: disabled)")
	faultSpec := flag.String("fault-spec", "", "inject faults on accepted connections, e.g. 'drop:prob=0.01;delay:prob=0.05,ms=2' (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault rules (deterministic per seed)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: in-flight requests get this long to finish on SIGTERM/SIGINT")
	slowMS := flag.Int64("slow-request-ms", 0, "log requests slower than this to the event log (with their trace when traced; 0 = off)")
	gossipOn := flag.Bool("gossip", false, "run the gossip health plane on the data port: membership and health spread peer-to-peer and RPC responses piggyback server-table deltas (DESIGN.md §14)")
	gossipInterval := flag.Duration("gossip-interval", time.Second, "gossip round period")
	gossipFanout := flag.Int("gossip-fanout", 0, "gossip exchange fan-out per round (0 derives it from the registered server count)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("dpfs-server", obs.Build().String())
		return
	}
	if *root == "" {
		fatal(fmt.Errorf("-root is required"))
	}
	var model *netsim.Model
	perf := 1
	if *className != "" {
		params, ok := netsim.ClassByName(*className)
		if !ok {
			fatal(fmt.Errorf("unknown class %q", *className))
		}
		model = netsim.New(params)
		// Normalize against class 1 with the paper's 512 KiB brick.
		perf = netsim.NormalizedPerf([]netsim.Params{netsim.Class1(), params}, 512<<10)[1]
	}

	lisAddr := *addr
	if lisAddr == "" {
		lisAddr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", lisAddr)
	if err != nil {
		fatal(err)
	}
	if *faultSpec != "" {
		inj, err := fault.Parse(*faultSpec, *faultSeed)
		if err != nil {
			fatal(err)
		}
		lis = inj.Listener(lis, *name)
		fmt.Printf("dpfs-server: injecting faults %q (seed %d)\n", *faultSpec, *faultSeed)
	}
	srv, err := server.New(server.Config{
		Root: *root, Model: model, Name: *name,
		SlowRequest: time.Duration(*slowMS) * time.Millisecond,
	}, lis)
	if err != nil {
		fatal(err)
	}
	serverName := *name
	if serverName == "" {
		serverName = srv.Addr()
	}
	adv := *advertise
	if adv == "" {
		adv = srv.Addr()
	}

	registered := false
	var gossipSeeds []string
	if *metaAddr != "" {
		// A replica group's address list gets a failover connection that
		// follows the group's primary.
		client, err := dpfs.Connect(*metaAddr, 0, dpfs.Options{})
		if err != nil {
			fatal(fmt.Errorf("register: %w", err))
		}
		err = client.RegisterServer(dpfs.ServerInfo{
			Name: serverName, Capacity: *capacity, Performance: perf, Addr: adv,
		})
		if err == nil && *gossipOn {
			// The registered server table doubles as the gossip seed
			// list: every already-known peer bootstraps this node's view.
			if infos, serr := client.Servers(); serr == nil {
				for _, si := range infos {
					if si.Addr != adv {
						gossipSeeds = append(gossipSeeds, si.Addr)
					}
				}
			}
		}
		client.Close()
		if err != nil {
			fatal(fmt.Errorf("register: %w", err))
		}
		registered = true
		fmt.Printf("dpfs-server: registered as %q (perf %d) with %s\n", serverName, perf, *metaAddr)
	}
	fmt.Printf("dpfs-server: %q serving %s on %s\n", serverName, *root, srv.Addr())

	var gnode *gossip.Node
	if *gossipOn {
		params := gossip.DefaultParams(len(gossipSeeds) + 1)
		if *gossipFanout > 0 {
			params.L1 = *gossipFanout
			params.L2 = 2 * *gossipFanout
		}
		h := fnv.New64a()
		_, _ = h.Write([]byte(serverName + "|" + adv))
		gnode, err = gossip.NewNode(gossip.Config{
			Self:      gossip.Record{Addr: adv, Name: serverName, State: gossip.StateAlive},
			Seeds:     gossipSeeds,
			Seed:      int64(h.Sum64()),
			Params:    params,
			Transport: &gossip.NetTransport{},
			Metrics:   srv.Metrics(),
			Events:    obs.Events(),
			SelfUpdate: func(rec *gossip.Record) {
				hs := srv.Health()
				rec.DiskErrors = hs.DiskErrors
				rec.CopyPeerErrors = hs.CopyPeerErrors
			},
		})
		if err != nil {
			fatal(fmt.Errorf("gossip: %w", err))
		}
		srv.SetGossip(gnode)
		gctx, gcancel := context.WithCancel(context.Background())
		defer gcancel()
		go gnode.Run(gctx, *gossipInterval)
		fmt.Printf("dpfs-server: gossip on (interval %v, fanout %d, %d seeds)\n",
			*gossipInterval, params.L1, len(gossipSeeds))
	}

	if *debugAddr != "" {
		regs := map[string]*obs.Registry{"server": srv.Metrics()}
		obs.PublishExpvar("dpfs", regs)
		h := obs.NewHandler(obs.HandlerConfig{
			Regs: regs,
			Health: func() obs.Health {
				hs := srv.Health()
				return obs.Health{Status: hs.Status, Detail: map[string]any{
					"name":             serverName,
					"addr":             srv.Addr(),
					"root":             *root,
					"meta":             *metaAddr,
					"registered":       registered,
					"disk_errors":      hs.DiskErrors,
					"copy_peer_errors": hs.CopyPeerErrors,
				}}
			},
			Traces: srv.Traces(),
			Pprof:  true,
			Gossip: gossipView(gnode),
		})
		dbg, err := obs.StartDebug(*debugAddr, h)
		if err != nil {
			fatal(fmt.Errorf("debug server: %w", err))
		}
		defer dbg.Close()
		fmt.Printf("dpfs-server: debug endpoints on http://%s/metrics\n", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("dpfs-server: draining (up to %v; signal again to force)\n", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sig
		cancel()
	}()
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpfs-server: forced shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("dpfs-server: drained")
}

// gossipView adapts a gossip node into the /debug/gossip callback
// (nil node -> nil callback, so the endpoint reports gossip off).
func gossipView(n *gossip.Node) func() any {
	if n == nil {
		return nil
	}
	return func() any {
		return map[string]any{
			"enabled": true,
			"self":    n.Self(),
			"rounds":  n.Rounds(),
			"version": n.Version(),
			"members": n.Snapshot(),
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpfs-server:", err)
	os.Exit(1)
}
