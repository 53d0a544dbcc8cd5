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
	// DurableMeta stores the metadata database on disk (Dir/meta)
	// instead of in memory.
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
	DB        *metadb.DB
	MetaSrv   *mdbnet.Server
	IOServers []*server.Server
	Specs     []ServerSpec
	// GossipNodes holds each I/O server's gossip node, index-aligned
	// with IOServers (nil unless Config.Gossip).
	GossipNodes []*gossip.Node

	// Replica-group state, indexed by replica. ReplDBs and ReplSrvs
	// always hold the catalog (one entry when unreplicated; DB and
	// MetaSrv alias entry 0); Replicas is populated only with
	// Config.MetaReplicas > 1. Entries go nil while a replica is killed
	// (KillMetaReplica).
	Replicas []*metarepl.Replica
	ReplDBs  []*metadb.DB
	ReplSrvs []*mdbnet.Server

	cfg       Config
	replPeers []string // replication-stream addresses
	replSQL   []string // client SQL addresses

	mu      sync.Mutex // guards clients and server/replica slice swaps
	clients []*mdbnet.Client
	groups  []*mdbnet.GroupClient

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

	replicas := cfg.MetaReplicas
	if replicas < 1 {
		replicas = 1
	}
	c := &Cluster{cfg: cfg}
	if err := c.startMeta(replicas); err != nil {
		c.Close()
		return nil, err
	}

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
// its server (delta piggybacking, 0xDB connection serving) and runs
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
		srv := srv
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
			SelfUpdate: func(rec *gossip.Record) {
				rec.Gen = srv.GenHighWater()
			},
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

// metaDBOptions builds replica j's database options. A durable
// unreplicated catalog lives in Dir/meta, replica j of a group in
// Dir/meta-r<j>.
func (c *Cluster) metaDBOptions(j, replicas int) metadb.Options {
	opts := metadb.Options{
		Sync:      c.cfg.MetaSync,
		SyncDelay: c.cfg.MetaSyncDelay,
	}
	if c.cfg.DurableMeta {
		opts.Dir = filepath.Join(c.cfg.Dir, "meta")
		if replicas > 1 {
			opts.Dir = filepath.Join(c.cfg.Dir, fmt.Sprintf("meta-r%d", j))
		}
	}
	return opts
}

// replConfig builds replica j's replication configuration.
func (c *Cluster) replConfig(j int, db *metadb.DB, lis *mdbnet.ReplListener) metarepl.Config {
	return metarepl.Config{
		Name:            "meta",
		ID:              j,
		Peers:           c.replPeers,
		SQLAddrs:        c.replSQL,
		DB:              db,
		Listener:        lis,
		Ack:             c.cfg.MetaReplAck,
		Heartbeat:       c.cfg.MetaHeartbeat,
		ElectionTimeout: c.cfg.MetaElectionTimeout,
		Events:          c.cfg.MetaEvents,
	}
}

// startMeta launches the catalog: one database and SQL server when
// unreplicated, a full metarepl replica group otherwise.
func (c *Cluster) startMeta(replicas int) error {
	var (
		dbs  []*metadb.DB
		srvs []*mdbnet.Server
		liss []*mdbnet.ReplListener
	)
	// fail releases everything this call created that the cluster does
	// not yet own.
	fail := func(err error) error {
		for _, l := range liss {
			l.Close()
		}
		for _, s := range srvs {
			s.Close()
		}
		for _, d := range dbs {
			d.Close()
		}
		return err
	}
	if replicas > 1 {
		// Replication listeners are bound first so every replica knows
		// the full peer list before any of them starts.
		for j := 0; j < replicas; j++ {
			lis, err := mdbnet.ListenRepl("")
			if err != nil {
				return fail(err)
			}
			liss = append(liss, lis)
			c.replPeers = append(c.replPeers, lis.Addr())
		}
	}
	for j := 0; j < replicas; j++ {
		db, err := metadb.Open(c.metaDBOptions(j, replicas))
		if err != nil {
			return fail(err)
		}
		dbs = append(dbs, db)
		srv, err := mdbnet.Listen(db, "")
		if err != nil {
			return fail(err)
		}
		srvs = append(srvs, srv)
		c.replSQL = append(c.replSQL, srv.Addr())
	}
	c.DB, c.MetaSrv = dbs[0], srvs[0]
	c.ReplDBs, c.ReplSrvs = dbs, srvs
	if replicas == 1 {
		return nil
	}

	c.Replicas = make([]*metarepl.Replica, replicas)
	for j := 0; j < replicas; j++ {
		rep, err := metarepl.New(c.replConfig(j, dbs[j], liss[j]))
		if err != nil {
			// Replicas 0..j-1 own their listeners and are closed by
			// Cluster.Close; the rest are still this call's to release.
			for _, l := range liss[j:] {
				l.Close()
			}
			return err
		}
		c.Replicas[j] = rep
		srvs[j].SetGate(rep.Gate())
	}
	// A fresh group gets replica 0 as the first primary; a group
	// restarted on durable state already has an epoch and lets an
	// election decide.
	if epoch, _ := dbs[0].ReplEpoch(); epoch == 0 {
		if err := c.Replicas[0].Bootstrap(); err != nil {
			return err
		}
	}
	for _, rep := range c.Replicas {
		rep.Start()
	}
	return nil
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
	c.mu.Lock()
	addrs := append([]string(nil), c.replSQL...)
	c.mu.Unlock()
	if len(addrs) == 1 {
		var (
			cli *mdbnet.Client
			err error
		)
		if dial == nil {
			cli, err = mdbnet.Dial(addrs[0])
		} else {
			cli, err = mdbnet.DialWith(addrs[0], dial)
		}
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.clients = append(c.clients, cli)
		c.mu.Unlock()
		return meta.NewCatalog(cli), nil
	}
	g, err := mdbnet.DialGroup(addrs, dial)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.groups = append(c.groups, g)
	c.mu.Unlock()
	return meta.NewCatalog(g), nil
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
// address so surviving clients (which redial broken connections
// lazily) reconnect to the same endpoint. A replica group's servers
// answer only while their replica's gate admits them, so a replicated
// catalog restarts replica by replica (RestartMetaReplica) instead.
func (c *Cluster) RestartMeta() error {
	if c.cfg.MetaReplicas > 1 {
		return fmt.Errorf("cluster: the catalog is a replica group; restart it with RestartMetaReplica")
	}
	c.mu.Lock()
	old, db := c.MetaSrv, c.DB
	c.mu.Unlock()
	srv, err := mdbnet.Listen(db, old.Addr())
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.MetaSrv = srv
	c.ReplSrvs[0] = srv
	c.mu.Unlock()
	return nil
}

// KillMetaReplica kills replica j entirely: SQL server, replication
// core and database all go down, modeling a metadata server machine
// crash. The SQL server goes first, so no client commits on a replica
// whose core has stopped shipping. With in-memory databases the
// replica's state dies with it (a restart resyncs by snapshot); durable
// replicas recover their own WAL. The cluster slot goes nil until
// RestartMetaReplica.
func (c *Cluster) KillMetaReplica(j int) error {
	c.mu.Lock()
	rep := c.Replicas[j]
	srv := c.ReplSrvs[j]
	db := c.ReplDBs[j]
	c.Replicas[j] = nil
	c.ReplSrvs[j] = nil
	c.ReplDBs[j] = nil
	c.mu.Unlock()
	var firstErr error
	if srv != nil {
		firstErr = srv.Close()
	}
	if rep != nil {
		if err := rep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if db != nil {
		if err := db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// RestartMetaReplica brings a killed replica back on its previous
// replication and SQL addresses. It rejoins as a follower (the durable
// epoch, or a snapshot resync for in-memory state, catches it up);
// elections decide whether it ever leads again.
func (c *Cluster) RestartMetaReplica(j int) error {
	c.mu.Lock()
	replicas := len(c.replPeers)
	c.mu.Unlock()
	if replicas < 2 {
		return fmt.Errorf("cluster: the catalog is not replicated")
	}
	db, err := metadb.Open(c.metaDBOptions(j, replicas))
	if err != nil {
		return err
	}
	lis, err := mdbnet.ListenRepl(c.replPeers[j])
	if err != nil {
		db.Close()
		return err
	}
	srv, err := mdbnet.Listen(db, c.replSQL[j])
	if err != nil {
		lis.Close()
		db.Close()
		return err
	}
	rep, err := metarepl.New(c.replConfig(j, db, lis))
	if err != nil {
		srv.Close()
		lis.Close()
		db.Close()
		return err
	}
	srv.SetGate(rep.Gate())
	rep.Start()
	c.mu.Lock()
	c.Replicas[j] = rep
	c.ReplSrvs[j] = srv
	c.ReplDBs[j] = db
	if j == 0 {
		c.DB = db
		c.MetaSrv = srv
	}
	c.mu.Unlock()
	return nil
}

// MetaPrimary returns the catalog group's current primary replica ID,
// or -1 while the group has none (mid-election, or unreplicated).
func (c *Cluster) MetaPrimary() int {
	c.mu.Lock()
	reps := append([]*metarepl.Replica(nil), c.Replicas...)
	c.mu.Unlock()
	for j, rep := range reps {
		if rep != nil && rep.Role() == metarepl.Primary {
			return j
		}
	}
	return -1
}

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
	clients := c.clients
	c.clients = nil
	groups := c.groups
	c.groups = nil
	c.mu.Unlock()
	for _, cli := range clients {
		if err := cli.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, g := range groups {
		if err := g.Close(); err != nil && firstErr == nil {
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
	for _, rep := range c.Replicas {
		if rep == nil {
			continue
		}
		if err := rep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, srv := range c.ReplSrvs {
		if srv == nil {
			continue
		}
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, db := range c.ReplDBs {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
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
