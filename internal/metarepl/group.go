package metarepl

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/obs"
)

// This file is the one bring-up of a catalog: cmd/dpfs-meta and
// internal/cluster both run their catalog as a Group. Each replica has
// one address: its SQL server's port, which hands conns that open with
// REPL to its Replica. A plain catalog is a group of one: its database
// and SQL server, with no Replica and no gate, so its commits take
// metadb's unreplicated path and a conn that opens with REPL is closed.

// GroupConfig describes a catalog replica group run in one process.
type GroupConfig struct {
	// N is the number of replicas; 0 or 1 runs one plain catalog.
	N int
	// Addr is replica 0's address; empty picks a port on first
	// start.
	Addr string
	// DB is every replica's database options. Replica 0 stores in
	// DB.Dir and replica j ≥ 1 in DB.Dir + "-r<j>"; an empty Dir keeps
	// the group in memory. Sync and SyncDelay need a Dir.
	DB metadb.Options
	// Ack, Heartbeat, ElectionTimeout and Events are every replica's
	// Config fields of the same names.
	Ack             Ack
	Heartbeat       time.Duration
	ElectionTimeout time.Duration
	Events          *obs.EventLog
}

// addrsFile records a durable replica's address in its directory, so a
// restart binds the one clients were given. A file from before
// replication moved onto the SQL port holds a second field, the old
// replication address: it is ignored, and the file rewritten without it.
const addrsFile = "addrs"

// Group is a running catalog replica group.
type Group struct {
	cfg   GroupConfig
	addrs []string // one per replica: the list clients dial, and every Replica's Peers

	mu      sync.Mutex // guards members
	members []member
}

// member is one replica. A stopped member is the zero value.
type member struct {
	db  *metadb.DB
	srv *mdbnet.Server
	rep *Replica     // nil in a group of one
	lis net.Listener // bound by bind, handed over to srv by serve
}

// StartGroup brings a catalog up: every replica's database, SQL server
// and, for N > 1, Replica and gate. Then a fresh group bootstraps
// replica 0 as its first primary, and a group restarted on durable
// state elects one; StartGroup returns once the group has a primary.
func StartGroup(cfg GroupConfig) (*Group, error) {
	if cfg.DB.Dir == "" && (cfg.DB.Sync || cfg.DB.SyncDelay != 0) {
		return nil, errors.New("metarepl: a synced catalog needs a durable directory")
	}
	n := max(cfg.N, 1)
	g := &Group{cfg: cfg, addrs: make([]string, n), members: make([]member, n)}
	// Every replica binds before any is built, so each knows all the
	// group's addresses.
	for j := range n {
		if err := g.bind(j); err != nil {
			g.Close()
			return nil, err
		}
	}
	for j := range n {
		if err := g.serve(j); err != nil {
			g.Close()
			return nil, err
		}
	}
	if n == 1 {
		return g, nil
	}
	if epoch, _ := g.members[0].db.ReplEpoch(); epoch == 0 {
		if err := g.members[0].rep.Bootstrap(); err != nil {
			g.Close()
			return nil, err
		}
	}
	for _, m := range g.members {
		m.rep.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Primary() < 0 {
		if time.Now().After(deadline) {
			g.Close()
			return nil, errors.New("metarepl: the restarted group elected no primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return g, nil
}

// dir is replica j's storage directory ("" in memory).
func (g *Group) dir(j int) string {
	if g.cfg.DB.Dir == "" || j == 0 {
		return g.cfg.DB.Dir
	}
	return fmt.Sprintf("%s-r%d", g.cfg.DB.Dir, j)
}

// bind opens replica j's database and binds its listener: on its
// address from an earlier start in this process, else on the one
// recorded in its directory (Addr overriding replica 0's), else on a
// fresh port, which a durable replica then records.
func (g *Group) bind(j int) error {
	m := &g.members[j]
	opts := g.cfg.DB
	opts.Dir = g.dir(j)
	var err error
	if m.db, err = metadb.Open(opts); err != nil {
		return err
	}
	first := g.addrs[j] == ""
	addr := g.addrs[j]
	if first && opts.Dir != "" {
		if data, err := os.ReadFile(filepath.Join(opts.Dir, addrsFile)); err == nil {
			addr, _, _ = strings.Cut(strings.TrimSpace(string(data)), " ")
		}
	}
	if first && j == 0 && g.cfg.Addr != "" {
		addr = g.cfg.Addr
	}
	if m.lis, err = net.Listen("tcp", cmp.Or(addr, "127.0.0.1:0")); err != nil {
		return fmt.Errorf("metarepl: replica %d: listen: %w", j, err)
	}
	if !first {
		return nil
	}
	g.addrs[j] = m.lis.Addr().String()
	if opts.Dir == "" {
		return nil
	}
	tmp := filepath.Join(opts.Dir, addrsFile+".tmp")
	if err := os.WriteFile(tmp, []byte(g.addrs[j]+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(opts.Dir, addrsFile))
}

// serve builds replica j's Replica (in a group of more than one) and
// starts its SQL server.
func (g *Group) serve(j int) error {
	m := &g.members[j]
	if len(g.addrs) > 1 {
		rep, err := New(Config{
			Name:            "meta",
			ID:              j,
			Peers:           g.addrs,
			DB:              m.db,
			Ack:             g.cfg.Ack,
			Heartbeat:       g.cfg.Heartbeat,
			ElectionTimeout: g.cfg.ElectionTimeout,
			Events:          g.cfg.Events,
		})
		if err != nil {
			return err
		}
		m.rep = rep
	}
	m.srv, m.lis = m.server(m.lis), nil
	return nil
}

// server starts the member's SQL server on lis: behind its Replica's
// gate and handing replication conns to it, or plain in a group of
// one.
func (m *member) server(lis net.Listener) *mdbnet.Server {
	if m.rep == nil {
		return mdbnet.NewServer(m.db, lis, nil, nil)
	}
	return mdbnet.NewServer(m.db, lis, m.rep.Gate(), m.rep)
}

// Addrs returns the group's addresses, one per replica: the list every
// client and I/O server is given.
func (g *Group) Addrs() []string { return slices.Clone(g.addrs) }

// DB returns replica j's database (nil while it is killed).
func (g *Group) DB(j int) *metadb.DB {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[j].db
}

// Server returns replica j's SQL server (nil while it is killed).
func (g *Group) Server(j int) *mdbnet.Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[j].srv
}

// Replica returns replica j's replication core (nil while it is killed,
// and always in a group of one).
func (g *Group) Replica(j int) *Replica {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[j].rep
}

// Primary returns the replica holding the primary lease, or -1 while
// none does (mid-election). A group of one is its own primary.
func (g *Group) Primary() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for j, m := range g.members {
		if m.db != nil && (m.rep == nil || m.rep.Role() == Primary) {
			return j
		}
	}
	return -1
}

// Kill stops replica j entirely, modelling a crash of its machine: the
// SQL server first, so no client commits on a replica whose core has
// stopped shipping, then the replication core with the streams its
// server handed over, and the database. In memory its state dies with
// it; a durable replica keeps its WAL.
func (g *Group) Kill(j int) error {
	g.mu.Lock()
	m := g.members[j]
	g.members[j] = member{}
	g.mu.Unlock()
	return m.close()
}

// close releases whatever the member holds, in Kill's order.
func (m member) close() error {
	var errs []error
	if m.srv != nil {
		errs = append(errs, m.srv.Close())
	}
	if m.lis != nil {
		errs = append(errs, m.lis.Close())
	}
	if m.rep != nil {
		errs = append(errs, m.rep.Close())
	}
	if m.db != nil {
		errs = append(errs, m.db.Close())
	}
	return errors.Join(errs...)
}

// Restart brings replica j back on its address. A killed replica
// reopens its database (its WAL, or a snapshot resync when in memory)
// and rejoins as a follower; elections decide whether it leads again.
// A replica whose SQL server alone was closed keeps its database and
// Replica and gets a new server.
func (g *Group) Restart(j int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := &g.members[j]
	if m.db != nil {
		m.srv.Close()
		lis, err := net.Listen("tcp", g.addrs[j])
		if err != nil {
			return err
		}
		m.srv = m.server(lis)
		return nil
	}
	err := g.bind(j)
	if err == nil {
		err = g.serve(j)
	}
	if err != nil {
		err = errors.Join(err, m.close())
		*m = member{}
		return err
	}
	if m.rep != nil {
		m.rep.Start()
	}
	return nil
}

// Close stops every replica.
func (g *Group) Close() error {
	var errs []error
	for j := range g.members {
		errs = append(errs, g.Kill(j))
	}
	return errors.Join(errs...)
}
