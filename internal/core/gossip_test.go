package core_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/gossip"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// stateDelta encodes a delta placing every named server in the given
// state at the given incarnation, with its real registered address.
func stateDelta(t *testing.T, fs *core.FS, names []string, inc int64, state string) []byte {
	t.Helper()
	recs := make([]gossip.Record, len(names))
	for i, n := range names {
		si, err := fs.Catalog().Server(n)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = gossip.Record{Name: n, Addr: si.Addr, Inc: inc, State: state}
	}
	return gossip.EncodeDelta(recs)
}

// TestGossipDeadHintFailover pins the TTL-bypass behaviour of
// DESIGN.md §14: once a delta marks a server dead, reads of a
// replicated file skip that server entirely and go straight to its
// backup replicas — no RPC timeout, no waiting out the metadata cache.
func TestGossipDeadHintFailover(t *testing.T) {
	c := startCluster(t, 3)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx := ctxT(t)

	f, err := fs.Create("/hint.bin", 1, []int64{1 << 15},
		core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1 << 15)
	if err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1<<15)
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if v := fs.Metrics().Counter(core.MetricDeadHintSkips).Value(); v != 0 {
		t.Fatalf("unhinted read skipped %d exchanges", v)
	}

	// Every server hinted dead: the preferred replicas are skipped, and
	// because failover targets are still tried (hints steer, they do
	// not amputate), the read completes off the rank-1 copies.
	fs.ApplyDelta(stateDelta(t, fs, c.ServerNames(), 1, gossip.StateDead))
	if hints := fs.DeadHints(); len(hints) != len(c.ServerNames()) {
		t.Fatalf("dead hints = %v, want all %d servers", hints, len(c.ServerNames()))
	}
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read with all servers hinted dead: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong data")
	}
	if v := fs.Metrics().Counter(core.MetricDeadHintSkips).Value(); v == 0 {
		t.Fatal("hinted read did not skip any preferred exchange")
	}
	if v := fs.Metrics().Counter(core.MetricFailovers).Value(); v == 0 {
		t.Fatal("hinted read recorded no failover")
	}
	if evs := fs.Events().ByType(obs.EventGossipSuspect); len(evs) == 0 {
		t.Fatal("dead hints emitted no gossip_suspect event")
	}

	// Refutation at a higher incarnation clears the hints and reads go
	// direct again.
	fs.ApplyDelta(stateDelta(t, fs, c.ServerNames(), 2, gossip.StateAlive))
	if hints := fs.DeadHints(); len(hints) != 0 {
		t.Fatalf("hints survived refutation: %v", hints)
	}
	skipsBefore := fs.Metrics().Counter(core.MetricDeadHintSkips).Value()
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if v := fs.Metrics().Counter(core.MetricDeadHintSkips).Value(); v != skipsBefore {
		t.Fatal("refuted hints still skipped exchanges")
	}
}

// TestApplyDeltaRobustness pins the best-effort contract from the
// client side: garbage deltas are ignored without side effects, and a
// stale dead record cannot override a newer alive incarnation.
func TestApplyDeltaRobustness(t *testing.T) {
	c := startCluster(t, 2)
	fs := newFS(t, c, 0, core.Options{})
	names := c.ServerNames()

	dead := stateDelta(t, fs, names, 1, gossip.StateDead)
	for _, junk := range [][]byte{
		nil,
		{},
		[]byte("not a delta"),
		dead[:5],
		append(append([]byte(nil), dead...), 0xFF),
	} {
		fs.ApplyDelta(junk)
	}
	if hints := fs.DeadHints(); len(hints) != 0 {
		t.Fatalf("garbage deltas installed hints: %v", hints)
	}
	if v := fs.Metrics().Counter(core.MetricDeadHints).Value(); v != 0 {
		t.Fatalf("garbage deltas counted %d dead hints", v)
	}

	// Alive at incarnation 5, then a stale dead at incarnation 3: the
	// older record must not re-kill the server.
	fs.ApplyDelta(stateDelta(t, fs, names[:1], 5, gossip.StateAlive))
	fs.ApplyDelta(stateDelta(t, fs, names[:1], 3, gossip.StateDead))
	if hints := fs.DeadHints(); len(hints) != 0 {
		t.Fatalf("stale dead record installed hints: %v", hints)
	}

	// A genuinely newer dead record does take effect, once.
	fs.ApplyDelta(stateDelta(t, fs, names[:1], 6, gossip.StateDead))
	fs.ApplyDelta(stateDelta(t, fs, names[:1], 6, gossip.StateDead))
	if hints := fs.DeadHints(); len(hints) != 1 || hints[0] != names[0] {
		t.Fatalf("dead hints = %v, want [%s]", hints, names[0])
	}
	if v := fs.Metrics().Counter(core.MetricDeadHints).Value(); v != 1 {
		t.Fatalf("duplicate dead record double-counted: %d", v)
	}
}

// TestServerMovedWithoutGossip: a server that restarts at a new address
// and re-registers under its name stays reachable to a long-lived
// engine with no gossip to tell it. The read that fails at the old
// address re-reads the server's catalog row, adopts the new address
// and retries there once.
func TestServerMovedWithoutGossip(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(1), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := newFS(t, c, 0, core.Options{})
	ctx := ctxT(t)

	f, err := fs.Create("/moved.bin", 1, []int64{1 << 15}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1 << 15)
	if err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}

	// The server stops and comes back on the same root (cluster.Start
	// keeps server NAME under DIR/srv-NAME) at a new port.
	name := c.ServerNames()[0]
	if err := c.IOServers[0].Close(); err != nil {
		t.Fatal(err)
	}
	moved, err := server.Listen(server.Config{Root: filepath.Join(dir, "srv-"+name), Name: name}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	si, err := cat.Server(name)
	if err != nil {
		t.Fatal(err)
	}
	si.Addr = moved.Addr()
	if err := cat.RegisterServer(si); err != nil {
		t.Fatal(err)
	}

	clear(got)
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read after the server moved: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after the server moved returned wrong data")
	}
}
