// Package cluster assembles a complete DPFS deployment in one process:
// a metadata database served over TCP (the paper's POSTGRES at
// Northwestern), any number of DPFS I/O servers with optional
// heterogeneous performance models (the paper's three workstation
// classes), and client factories for compute-node goroutines (the
// paper's SP2 ranks). Tests, examples and every benchmark build their
// testbed through this package; the same building blocks run as
// separate processes through cmd/dpfs-meta and cmd/dpfs-server.
package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dpfs/internal/core"
	"dpfs/internal/gossip"
	"dpfs/internal/meta"
	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/metarepl"
	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/repair"
	"dpfs/internal/server"
)

// ServerSpec describes one I/O server to launch.
type ServerSpec struct {
	// Name registers the server in DPFS-SERVER; empty names are
	// generated ("io0", "io1", ...).
	Name string
	// Class, when non-zero, attaches a netsim performance model.
	Class netsim.Params
	// Capacity advertised in the catalog (bytes); defaults to 1 GiB.
	Capacity int64
}

// Config configures a cluster.
type Config struct {
	// Servers lists the I/O servers to start.
	Servers []ServerSpec
	// Dir is the working directory for server roots and the metadata
	// database; it must exist.
	Dir string
	// DurableMeta stores the metadata database on disk (Dir/meta, and
	// replica j ≥ 1 of a group in Dir/meta-r<j>) instead of in memory.
	DurableMeta bool
	// RefBrickBytes calibrates the normalized performance numbers
	// (DPFS-SERVER.performance): the per-brick cost of each class is
	// normalized against the fastest. Defaults to 512 KiB, the
	// 256x256 float64 tile of Section 8.
	RefBrickBytes int64
	// MetaSync makes every catalog commit wait for a WAL fsync
	// (metadb.Options.Sync; needs DurableMeta).
	MetaSync bool
	// MetaSyncDelay models the metadata device's per-fsync cost
	// (metadb.Options.SyncDelay); benchmarks use it for a
	// deterministic disk model.
	MetaSyncDelay time.Duration
	// MetaReplicas runs the catalog as an R-way replica group
	// (internal/metarepl): replica 0 bootstraps as primary, the rest
	// follow as warm standbys, and clients fail over by redirect. 0 or
	// 1 runs one unreplicated catalog.
	MetaReplicas int
	// MetaReplAck selects the replication acknowledgement quorum
	// (majority by default).
	MetaReplAck metarepl.Ack
	// MetaHeartbeat and MetaElectionTimeout tune replication failover
	// timing; zero uses the metarepl defaults.
	MetaHeartbeat       time.Duration
	MetaElectionTimeout time.Duration
	// MetaEvents receives the replica group's promotion/step-down/
	// resync events (default: the process-wide obs.Events log).
	MetaEvents *obs.EventLog
	// Gossip starts a gossip node inside every I/O server (DESIGN.md
	// §14): membership and health spread peer-to-peer over the
	// servers' existing listeners, RPC responses piggyback
	// server-table deltas to clients, and repair runs gain the gossip
	// second witness automatically.
	Gossip bool
	// GossipInterval is the gossip round period (default 50ms — tuned
	// for in-process tests; production deployments use seconds).
	GossipInterval time.Duration
	// GossipSeed seeds each node's deterministic peer selection
	// (node i derives its own seed from it), so chaos sweeps replay.
	GossipSeed int64
	// GossipDial overrides how gossip exchanges dial peers (fault
	// injection). Nil uses plain TCP.
	GossipDial func(ctx context.Context, addr string) (net.Conn, error)
	// GossipEvents receives the nodes' membership events (default:
	// the process-wide obs.Events log).
	GossipEvents *obs.EventLog
}

// Cluster is a running DPFS deployment.
type Cluster struct {
	// DB and MetaSrv are the catalog's database and SQL server (replica
	// 0's when replicated).
	DB      *metadb.DB
	MetaSrv *mdbnet.Server
	// Meta is the catalog: a replica group of Config.MetaReplicas, or of
	// one.
	Meta      *metarepl.Group
	IOServers []*server.Server
	Specs     []ServerSpec
	// GossipNodes holds each I/O server's gossip node, index-aligned
	// with IOServers (nil unless Config.Gossip).
	GossipNodes []*gossip.Node

	cfg Config

	mu    sync.Mutex // guards conns, gossipCancels and the DB/MetaSrv swap
	conns []*mdbnet.Client

	gossipCancels []context.CancelFunc // per-node Run cancels
}

// Start launches the metadata server and all I/O servers, registers
// the servers in the catalog, and returns the running cluster.
func Start(cfg Config) (*Cluster, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("cluster: need at least one I/O server")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: Config.Dir is required")
	}
	ref := cfg.RefBrickBytes
	if ref == 0 {
		ref = 512 << 10
	}

	var metaDir string
	if cfg.DurableMeta {
		metaDir = filepath.Join(cfg.Dir, "meta")
	}
	g, err := metarepl.StartGroup(metarepl.GroupConfig{
		N:               cfg.MetaReplicas,
		DB:              metadb.Options{Dir: metaDir, Sync: cfg.MetaSync, SyncDelay: cfg.MetaSyncDelay},
		Ack:             cfg.MetaReplAck,
		Heartbeat:       cfg.MetaHeartbeat,
		ElectionTimeout: cfg.MetaElectionTimeout,
		Events:          cfg.MetaEvents,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, Meta: g, DB: g.DB(0), MetaSrv: g.Server(0)}

	// Normalize performance numbers across the spec classes.
	classes := make([]netsim.Params, len(cfg.Servers))
	for i, s := range cfg.Servers {
		classes[i] = s.Class
	}
	perf := netsim.NormalizedPerf(classes, ref)

	cat, err := c.NewCatalog()
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := cat.Init(); err != nil {
		c.Close()
		return nil, err
	}

	for i, spec := range cfg.Servers {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("io%d", i)
		}
		root := filepath.Join(cfg.Dir, "srv-"+name)
		if err := os.MkdirAll(root, 0o755); err != nil {
			c.Close()
			return nil, err
		}
		var model *netsim.Model
		if spec.Class != (netsim.Params{}) {
			model = netsim.New(spec.Class)
		}
		srv, err := server.Listen(server.Config{Root: root, Model: model, Name: name}, "")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.IOServers = append(c.IOServers, srv)
		cap := spec.Capacity
		if cap == 0 {
			cap = 1 << 30
		}
		if err := cat.RegisterServer(meta.ServerInfo{
			Name: name, Capacity: cap, Performance: perf[i], Addr: srv.Addr(),
		}); err != nil {
			c.Close()
			return nil, err
		}
		spec.Name = name
		c.Specs = append(c.Specs, spec)
	}
	if cfg.Gossip {
		if err := c.startGossip(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startGossip builds and starts one gossip node per I/O server: every
// node seeds its view with every other server's address, attaches to
// its server (delta piggybacking, OpGossip serving) and runs
// jittered rounds until the cluster closes or the server is killed.
func (c *Cluster) startGossip() error {
	addrs := make([]string, len(c.IOServers))
	for i, srv := range c.IOServers {
		addrs[i] = srv.Addr()
	}
	interval := c.cfg.GossipInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	events := c.cfg.GossipEvents
	c.gossipCancels = make([]context.CancelFunc, len(c.IOServers))
	for i, srv := range c.IOServers {
		seeds := make([]string, 0, len(addrs)-1)
		for j, a := range addrs {
			if j != i {
				seeds = append(seeds, a)
			}
		}
		node, err := gossip.NewNode(gossip.Config{
			Self:      gossip.Record{Addr: addrs[i], Name: c.Specs[i].Name, State: gossip.StateAlive},
			Seeds:     seeds,
			Seed:      c.cfg.GossipSeed + int64(i)*7919,
			Params:    gossip.DefaultParams(len(addrs)),
			Transport: &gossip.NetTransport{Dial: c.cfg.GossipDial},
			Metrics:   srv.Metrics(),
			Events:    events,
		})
		if err != nil {
			return err
		}
		srv.SetGossip(node)
		ctx, cancel := context.WithCancel(context.Background())
		c.gossipCancels[i] = cancel
		go node.Run(ctx, interval)
		c.GossipNodes = append(c.GossipNodes, node)
	}
	return nil
}

// KillServer stops I/O server i like a crash: its gossip node stops
// announcing (the rest of the mesh must detect the silence) and the
// listener closes. Tests that only close the listener keep the old
// c.IOServers[i].Close() path.
func (c *Cluster) KillServer(i int) error {
	c.mu.Lock()
	if c.gossipCancels != nil && c.gossipCancels[i] != nil {
		c.gossipCancels[i]()
		c.gossipCancels[i] = nil
	}
	c.mu.Unlock()
	return c.IOServers[i].Close()
}

// NewCatalog opens a fresh connection to the catalog through the
// network metadata server (one database session per connection, as the
// paper's clients each connect to POSTGRES). On a replicated cluster
// the connection follows the group's primary across failovers.
func (c *Cluster) NewCatalog() (*meta.Catalog, error) {
	return c.dialCatalog(nil)
}

// dialCatalog is NewCatalog with a custom transport dialer (fault
// injectors wrap it in chaos tests); nil uses the default TCP dialer.
// The connection is tracked for Close.
func (c *Cluster) dialCatalog(dial mdbnet.DialFunc) (*meta.Catalog, error) {
	cli, err := mdbnet.DialGroup(c.Meta.Addrs(), dial)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.conns = append(c.conns, cli)
	c.mu.Unlock()
	return meta.NewCatalog(cli), nil
}

// NewFS builds a compute-node client with its own catalog connection.
func (c *Cluster) NewFS(rank int, opts core.Options) (*core.FS, error) {
	cat, err := c.NewCatalog()
	if err != nil {
		return nil, err
	}
	return core.NewFS(cat, rank, opts), nil
}

// NewFSMetaDial is NewFS with a custom transport dialer for the
// catalog connection (chaos tests inject faults through it).
func (c *Cluster) NewFSMetaDial(rank int, opts core.Options, dial mdbnet.DialFunc) (*core.FS, error) {
	cat, err := c.dialCatalog(dial)
	if err != nil {
		return nil, err
	}
	return core.NewFS(cat, rank, opts), nil
}

// Repair runs one online-repair pass over the cluster's catalog:
// servers are probed, their health recorded, and under-replicated
// bricks re-replicated onto healthy servers (see internal/repair).
// With gossip enabled, the run automatically consults the mesh (via
// the first still-running node) as the second witness for dead
// escalation, unless the caller supplied its own gossip view.
func (c *Cluster) Repair(ctx context.Context, opts repair.Options) (*repair.Report, error) {
	cat, err := c.NewCatalog()
	if err != nil {
		return nil, err
	}
	if opts.Gossip == nil {
		if n := c.liveGossipNode(); n != nil {
			opts.Gossip = n
		}
	}
	r := repair.New(cat, opts)
	defer r.Close()
	return r.Run(ctx)
}

// liveGossipNode returns a gossip node whose server has not been
// killed (nil when gossip is off or every node is stopped).
func (c *Cluster) liveGossipNode() *gossip.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gossipCancels == nil {
		return nil
	}
	for i, n := range c.GossipNodes {
		if c.gossipCancels[i] != nil {
			return n
		}
	}
	return nil
}

// StopMeta closes the catalog's network server, severing every client
// connection to it. The database (and its WAL) stays intact: this
// models a metadata server crash that RestartMeta recovers from.
func (c *Cluster) StopMeta() error {
	c.mu.Lock()
	srv := c.MetaSrv
	c.mu.Unlock()
	return srv.Close()
}

// RestartMeta brings the catalog's SQL server back on its previous
// address, on the same database, so surviving clients (which redial
// broken connections lazily) reconnect to the same endpoint. A replica
// group restarts replica by replica (RestartMetaReplica) instead.
func (c *Cluster) RestartMeta() error {
	if c.cfg.MetaReplicas > 1 {
		return fmt.Errorf("cluster: the catalog is a replica group; restart it with RestartMetaReplica")
	}
	return c.RestartMetaReplica(0)
}

// KillMetaReplica kills replica j entirely (metarepl.Group.Kill),
// modelling a metadata server machine crash.
func (c *Cluster) KillMetaReplica(j int) error { return c.Meta.Kill(j) }

// RestartMetaReplica brings replica j back on its previous addresses
// (metarepl.Group.Restart): a killed replica rejoins as a follower, a
// stopped SQL server comes back on its database.
func (c *Cluster) RestartMetaReplica(j int) error {
	if err := c.Meta.Restart(j); err != nil {
		return err
	}
	if j == 0 {
		c.mu.Lock()
		c.DB, c.MetaSrv = c.Meta.DB(0), c.Meta.Server(0)
		c.mu.Unlock()
	}
	return nil
}

// MetaPrimary returns the catalog group's current primary replica ID,
// or -1 while the group has none (mid-election).
func (c *Cluster) MetaPrimary() int { return c.Meta.Primary() }

// ServerNames returns the registered I/O server names in launch
// order.
func (c *Cluster) ServerNames() []string {
	out := make([]string, len(c.Specs))
	for i, s := range c.Specs {
		out[i] = s.Name
	}
	return out
}

// Close shuts everything down: catalog connections, I/O servers, the
// replica group, the metadata servers and the databases.
func (c *Cluster) Close() error {
	var firstErr error
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, cli := range conns {
		if err := cli.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.mu.Lock()
	cancels := c.gossipCancels
	c.gossipCancels = nil
	c.mu.Unlock()
	for _, cancel := range cancels {
		if cancel != nil {
			cancel()
		}
	}
	for _, srv := range c.IOServers {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.Meta.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Uniform returns n identical unshaped server specs (full native
// speed), for correctness tests.
func Uniform(n int) []ServerSpec {
	out := make([]ServerSpec, n)
	return out
}

// UniformClass returns n servers of one storage class.
func UniformClass(n int, class netsim.Params) []ServerSpec {
	out := make([]ServerSpec, n)
	for i := range out {
		out[i].Class = class
	}
	return out
}

// Mixed returns the Fig. 13/14 testbed: half the servers class 1, half
// class 3.
func Mixed(n int) []ServerSpec {
	out := make([]ServerSpec, n)
	for i := range out {
		if i < n/2 {
			out[i].Class = netsim.Class1()
		} else {
			out[i].Class = netsim.Class3()
		}
	}
	return out
}
