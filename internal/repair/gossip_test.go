package repair_test

import (
	"sync"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/gossip"
	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/repair"
)

// fakeGossip is a hand-driven GossipView: tests set exactly the health
// records the prober should see.
type fakeGossip struct {
	mu       sync.Mutex
	recs     map[string]gossip.Record // keyed by addr
	injected []gossip.Record
}

func newFakeGossip() *fakeGossip {
	return &fakeGossip{recs: make(map[string]gossip.Record)}
}

func (f *fakeGossip) set(rec gossip.Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recs[rec.Addr] = rec
}

func (f *fakeGossip) Snapshot() []gossip.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]gossip.Record, 0, len(f.recs))
	for _, r := range f.recs {
		out = append(out, r)
	}
	return out
}

func (f *fakeGossip) Lookup(addr string) (gossip.Record, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.recs[addr]
	return r, ok
}

func (f *fakeGossip) Inject(rec gossip.Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recs[rec.Addr] = rec
	f.injected = append(f.injected, rec)
}

func (f *fakeGossip) injectedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.injected)
}

// TestTwoWitnessEscalation pins the two-witness rule: with a gossip
// source configured, a server the central probe cannot reach is held
// at suspect — however many probes miss — until the gossip plane
// corroborates with enough distinct observers. Once it does, the next
// probe escalates to dead and feeds the death back into the mesh.
func TestTwoWitnessEscalation(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.IOServers[1].Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	deadName, deadAddr := c.Specs[1].Name, c.IOServers[1].Addr()

	fg := newFakeGossip()
	// Gossip still believes the server is alive: only one witness (the
	// central probe) sees the failure.
	fg.set(gossip.Record{Addr: deadAddr, Name: deadName, Inc: 1, State: gossip.StateAlive})

	reg := obs.NewRegistry()
	r := repair.New(cat, repair.Options{
		PingTimeout: 500 * time.Millisecond,
		Gossip:      fg,
		Witnesses:   2,
		Metrics:     reg,
	})
	defer r.Close()

	state := func() string {
		t.Helper()
		hs, err := cat.ServerHealth()
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if h.Name == deadName {
				return h.State
			}
		}
		return ""
	}

	ctx := ctxT(t)
	for i := 0; i < 3; i++ {
		if _, err := r.Probe(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := state(); st != meta.StateSuspect {
		t.Fatalf("state after 3 uncorroborated probes = %q, want held at suspect", st)
	}
	if v := reg.Counter(repair.MetricDeadHolds).Value(); v == 0 {
		t.Fatal("withheld escalations were not counted")
	}
	if fg.injectedCount() != 0 {
		t.Fatal("prober injected a death gossip never confirmed")
	}

	// One gossip observer is still not enough for Witnesses=2.
	fg.set(gossip.Record{Addr: deadAddr, Name: deadName, Inc: 1,
		State: gossip.StateSuspect, Observers: []string{"10.0.0.1:1"}})
	if _, err := r.Probe(ctx); err != nil {
		t.Fatal(err)
	}
	if st := state(); st != meta.StateSuspect {
		t.Fatalf("state with one observer = %q, want suspect", st)
	}

	// Two distinct observers corroborate: the next probe may bury it.
	fg.set(gossip.Record{Addr: deadAddr, Name: deadName, Inc: 1,
		State: gossip.StateSuspect, Observers: []string{"10.0.0.1:1", "10.0.0.2:1"}})
	if _, err := r.Probe(ctx); err != nil {
		t.Fatal(err)
	}
	if st := state(); st != meta.StateDead {
		t.Fatalf("state with two observers = %q, want dead", st)
	}
	if fg.injectedCount() == 0 {
		t.Fatal("confirmed death was not injected back into the mesh")
	}
	if got := fg.injected[len(fg.injected)-1]; got.State != gossip.StateDead || got.Addr != deadAddr {
		t.Fatalf("injected record = %+v, want dead %s", got, deadAddr)
	}
}

// TestProbeMetaUnreachableFallback pins the meta-outage path: when the
// catalog cannot be reached, Probe answers from the gossip snapshot
// (emitting meta_unreachable) instead of erroring, and PlanOffline
// produces an aliveness plan that never declares a merely-partitioned
// server dead.
func TestProbeMetaUnreachableFallback(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}

	fg := newFakeGossip()
	fg.set(gossip.Record{Addr: c.IOServers[0].Addr(), Name: c.Specs[0].Name, State: gossip.StateAlive})
	fg.set(gossip.Record{Addr: c.IOServers[1].Addr(), Name: c.Specs[1].Name, State: gossip.StateDead})

	events := obs.NewEventLog(64)
	r := repair.New(cat, repair.Options{
		PingTimeout: 500 * time.Millisecond,
		Gossip:      fg,
		Events:      events,
	})
	defer r.Close()

	if err := c.StopMeta(); err != nil {
		t.Fatal(err)
	}
	alive, err := r.Probe(ctxT(t))
	if err != nil {
		t.Fatalf("probe with meta down: %v", err)
	}
	if !alive[c.Specs[0].Name] || alive[c.Specs[1].Name] {
		t.Fatalf("gossip-fallback alive = %v, want %s up and %s down", alive, c.Specs[0].Name, c.Specs[1].Name)
	}
	if evs := events.ByType(obs.EventMetaUnreachable); len(evs) == 0 {
		t.Fatal("meta outage emitted no meta_unreachable event")
	}

	// Offline plan: io1's record says dead but the server actually
	// answers pings (a partition healed, gossip not yet refuted) — the
	// two-witness plan keeps it alive. A server that is BOTH
	// gossip-dead and unreachable plans as down.
	plan, err := r.PlanOffline(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Alive[c.Specs[0].Name] || !plan.Alive[c.Specs[1].Name] {
		t.Fatalf("offline plan = %v, want both alive (io1 still answers pings)", plan.Alive)
	}
	if err := c.IOServers[1].Close(); err != nil {
		t.Fatal(err)
	}
	plan, err = r.PlanOffline(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Alive[c.Specs[0].Name] || plan.Alive[c.Specs[1].Name] {
		t.Fatalf("offline plan after kill = %v, want only %s alive", plan.Alive, c.Specs[0].Name)
	}
}
