package gossip

import (
	"context"
	"fmt"
	"testing"

	"dpfs/internal/obs"
)

// buildNet builds n nodes on a MemNet bootstrapped as a ring (each
// node seeds only its successor), the worst-case sparse topology
// from the Brahms paper's TestLargeNetwork.
func buildNet(t testing.TB, n int, params Params) (*MemNet, []*Node) {
	t.Helper()
	net := NewMemNet()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("10.0.0.%d:7800", i)
		next := fmt.Sprintf("10.0.0.%d:7800", (i+1)%n)
		node, err := NewNode(Config{
			Self:      Record{Addr: addr, Name: fmt.Sprintf("io%d", i)},
			Seeds:     []string{next},
			Seed:      int64(1000 + i),
			Params:    params,
			Transport: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Add(node)
		nodes = append(nodes, node)
	}
	return net, nodes
}

// stepAll runs one synchronous gossip round across every node in a
// fixed order — fully deterministic given the per-node seeds.
func stepAll(nodes []*Node) {
	for _, n := range nodes {
		n.Step(context.Background())
	}
}

// TestLargeNetworkConvergence is the acceptance gate from ISSUE 10 /
// ROADMAP item 2: 100+ simulated servers bootstrapped as a ring must
// converge to full membership knowledge within bounded rounds.
func TestLargeNetworkConvergence(t *testing.T) {
	const n = 120
	const maxRounds = 30
	_, nodes := buildNet(t, n, DefaultParams(n))

	full := -1
	for round := 1; round <= maxRounds; round++ {
		stepAll(nodes)
		complete := 0
		for _, node := range nodes {
			if len(node.Snapshot()) == n {
				complete++
			}
		}
		if complete == n {
			full = round
			break
		}
	}
	if full < 0 {
		t.Fatalf("membership did not converge to %d nodes in %d rounds", n, maxRounds)
	}
	t.Logf("%d nodes converged to full membership in %d rounds", n, full)

	// Every node's view must stay usable: non-empty and fanout-sized.
	p := DefaultParams(n)
	for i, node := range nodes {
		v := node.ViewIDs()
		if len(v) == 0 {
			t.Fatalf("node %d has an empty view after convergence", i)
		}
		if len(v) > 2*p.L1 {
			t.Fatalf("node %d view grew past the fanout bound: %d members", i, len(v))
		}
	}
}

// TestFailureDetectionAndRefutation kills one node, requires every
// survivor to learn the suspicion (with multiple distinct observers)
// within bounded rounds, then heals the partition and requires the
// refutation — an incarnation bump — to clear the suspicion
// everywhere.
func TestFailureDetectionAndRefutation(t *testing.T) {
	const n = 60
	net, nodes := buildNet(t, n, DefaultParams(n))
	for i := 0; i < 15; i++ {
		stepAll(nodes)
	}

	victim := nodes[7].Self()
	net.SetFail(func(from, to string) bool { return to == victim || from == victim })

	live := func() []*Node {
		out := make([]*Node, 0, n-1)
		for _, node := range nodes {
			if node.Self() != victim {
				out = append(out, node)
			}
		}
		return out
	}()

	detected := -1
	for round := 1; round <= 30; round++ {
		stepAll(live)
		know := 0
		for _, node := range live {
			if rec, ok := node.Lookup(victim); ok && rec.State == StateSuspect {
				know++
			}
		}
		if know == len(live) {
			detected = round
			break
		}
	}
	if detected < 0 {
		t.Fatalf("suspicion of %s did not reach all %d survivors in 30 rounds", victim, len(live))
	}
	t.Logf("all %d survivors suspect the victim after %d rounds", len(live), detected)

	// The observer sets must show independent witnesses, not one
	// rumor echoed around: the two-witness escalation in repair
	// depends on this.
	multi := 0
	for _, node := range live {
		if len(node.SuspectedBy(victim)) >= 2 {
			multi++
		}
	}
	if multi < len(live)/2 {
		t.Fatalf("only %d/%d survivors saw >=2 distinct observers", multi, len(live))
	}

	// Heal: the victim refutes by bumping its incarnation, and the
	// refutation must out-gossip the suspicion.
	net.SetFail(nil)
	cleared := -1
	for round := 1; round <= 40; round++ {
		stepAll(nodes)
		clean := 0
		for _, node := range live {
			if rec, ok := node.Lookup(victim); ok && rec.State == StateAlive && rec.Inc > 0 {
				clean++
			}
		}
		if clean == len(live) {
			cleared = round
			break
		}
	}
	if cleared < 0 {
		t.Fatalf("refutation did not clear the suspicion in 40 rounds")
	}
	t.Logf("refutation cleared the suspicion after %d rounds", cleared)
	if rec, _ := nodes[7].Lookup(victim); rec.Inc == 0 {
		t.Fatal("victim never bumped its incarnation")
	}
}

// TestMergeRules pins the record-merge lattice: incarnation wins,
// severity breaks ties, observer sets union.
func TestMergeRules(t *testing.T) {
	net := NewMemNet()
	node, err := NewNode(Config{
		Self:      Record{Addr: "a:1", Name: "a"},
		Seed:      1,
		Transport: net,
	})
	if err != nil {
		t.Fatal(err)
	}

	peer := "b:1"
	node.Inject(Record{Addr: peer, Name: "b", Inc: 3, State: StateAlive})
	if rec, _ := node.Lookup(peer); rec.State != StateAlive {
		t.Fatalf("seed record = %+v", rec)
	}

	// Lower incarnation loses outright.
	node.Inject(Record{Addr: peer, Inc: 2, State: StateDead})
	if rec, _ := node.Lookup(peer); rec.State != StateAlive {
		t.Fatalf("stale incarnation overrode: %+v", rec)
	}

	// Same incarnation: suspect beats alive; observers accumulate.
	node.Inject(Record{Addr: peer, Name: "b", Inc: 3, State: StateSuspect, Observers: []string{"w1"}})
	node.Inject(Record{Addr: peer, Name: "b", Inc: 3, State: StateSuspect, Observers: []string{"w2"}})
	rec, _ := node.Lookup(peer)
	if rec.State != StateSuspect || len(rec.Observers) != 2 {
		t.Fatalf("observer union = %+v", rec)
	}
	if got := node.SuspectedBy(peer); len(got) != 2 {
		t.Fatalf("SuspectedBy = %v", got)
	}

	// Same incarnation: alive does not beat suspect.
	node.Inject(Record{Addr: peer, Inc: 3, State: StateAlive})
	if rec, _ := node.Lookup(peer); rec.State != StateSuspect {
		t.Fatalf("alive overrode suspect at equal incarnation: %+v", rec)
	}

	// Higher incarnation beats suspect.
	node.Inject(Record{Addr: peer, Name: "b", Inc: 4, State: StateAlive})
	rec, _ = node.Lookup(peer)
	if rec.State != StateAlive || rec.Inc != 4 {
		t.Fatalf("refutation did not land: %+v", rec)
	}

	// Dead wins at equal incarnation and evicts from the view.
	node.Inject(Record{Addr: peer, Inc: 4, State: StateDead})
	if rec, _ := node.Lookup(peer); rec.State != StateDead {
		t.Fatalf("dead did not win: %+v", rec)
	}
	for _, id := range node.ViewIDs() {
		if id == peer {
			t.Fatal("dead member still in the view")
		}
	}
}

// TestSelfRefutation pins the SWIM self-defense rule: merging a
// suspicion about ourselves bumps our incarnation past it.
func TestSelfRefutation(t *testing.T) {
	reg := obs.NewRegistry()
	node, err := NewNode(Config{
		Self:      Record{Addr: "a:1", Name: "a"},
		Seed:      1,
		Transport: NewMemNet(),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Inject(Record{Addr: "a:1", Inc: 0, State: StateSuspect, Observers: []string{"b:1"}})
	rec, _ := node.Lookup("a:1")
	if rec.State != StateAlive || rec.Inc != 1 {
		t.Fatalf("no refutation: %+v", rec)
	}
	if got := reg.Counter(MetricRefutations).Value(); got != 1 {
		t.Fatalf("refutations counter = %d", got)
	}
	// A suspicion at the new incarnation is refuted again.
	node.Inject(Record{Addr: "a:1", Inc: 5, State: StateDead})
	if rec, _ := node.Lookup("a:1"); rec.State != StateAlive || rec.Inc != 6 {
		t.Fatalf("no re-refutation: %+v", rec)
	}
}

// TestUpdateSelfDraining pins that a draining transition bumps the
// incarnation, so the announcement beats circulating alive records.
func TestUpdateSelfDraining(t *testing.T) {
	node, err := NewNode(Config{
		Self:      Record{Addr: "a:1", Name: "a"},
		Seed:      1,
		Transport: NewMemNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	v0 := node.Version()
	node.UpdateSelf(func(r *Record) { r.DiskErrors = 42 })
	if rec, _ := node.Lookup("a:1"); rec.DiskErrors != 42 || rec.Inc != 0 {
		t.Fatalf("counter update = %+v", rec)
	}
	if node.Version() == v0 {
		t.Fatal("version did not advance on self update")
	}
	node.UpdateSelf(func(r *Record) { r.State = StateDraining })
	rec, _ := node.Lookup("a:1")
	if rec.State != StateDraining || rec.Inc != 1 {
		t.Fatalf("draining transition = %+v", rec)
	}
}

// TestGossipEvents pins that suspicion and membership discovery
// reach the cluster event log.
func TestGossipEvents(t *testing.T) {
	events := obs.NewEventLog(64)
	net := NewMemNet()
	node, err := NewNode(Config{
		Self:      Record{Addr: "a:1", Name: "a"},
		Seeds:     []string{"gone:1"},
		Seed:      1,
		Transport: net,
		Events:    events,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Add(node)
	node.Step(context.Background()) // exchanges with gone:1 fail
	if got := events.ByType(obs.EventGossipSuspect); len(got) == 0 {
		t.Fatal("no gossip_suspect event after failed exchange")
	}
	node.Inject(Record{Addr: "new:1", Name: "new", State: StateAlive})
	if got := events.ByType(obs.EventGossipMemberJoin); len(got) == 0 {
		t.Fatal("no gossip_member_join event for discovered member")
	}
}

// TestSamplerUniformity sanity-checks the min-wise sampler: offered
// many IDs, the sample holds distinct survivors and invalidation
// evicts.
func TestSamplerUniformity(t *testing.T) {
	node, err := NewNode(Config{
		Self:      Record{Addr: "a:1"},
		Seed:      7,
		Transport: NewMemNet(),
		Params:    Params{Alpha: 0.45, Beta: 0.45, Gamma: 0.1, L1: 4, L2: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		node.sampler.update(fmt.Sprintf("s%d:1", i))
	}
	got := node.sampler.sample()
	if len(got) == 0 {
		t.Fatal("empty sample after 200 offers")
	}
	seen := make(map[string]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %s in sample", id)
		}
		seen[id] = true
	}
	victim := got[0]
	node.sampler.invalidate(victim)
	for _, id := range node.sampler.sample() {
		if id == victim {
			t.Fatal("invalidated id survived in the sample")
		}
	}
}
