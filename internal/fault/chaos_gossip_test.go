// Gossip chaos: the health plane (DESIGN.md §14) rides the same
// seeded storm as the data path. The gossip exchanges themselves dial
// through the injector — dropped pushes turn into spurious suspicions
// that refutation must clear — while a mid-workload crash has to be
// detected by the mesh alone, and the kill-meta sim takes the
// metadata service away at the worst moment to prove the repair
// prober keeps assessing liveness from the gossip snapshot.
package fault_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/fault"
	"dpfs/internal/gossip"
	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/repair"
	"dpfs/internal/stripe"
)

// startGossipChaosCluster launches io unshaped servers with a gossip
// node inside each one. Gossip exchanges dial through the injector, so
// the membership traffic suffers the same storm as the data traffic.
func startGossipChaosCluster(t *testing.T, io int, inj *fault.Injector, gossipSeed int64, events *obs.EventLog) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{
		Servers: cluster.Uniform(io), Dir: t.TempDir(),
		Gossip:         true,
		GossipInterval: 20 * time.Millisecond,
		GossipSeed:     gossipSeed,
		GossipDial:     inj.DialContext,
		GossipEvents:   events,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i, srv := range c.IOServers {
		inj.SetLabel(srv.Addr(), c.Specs[i].Name)
	}
	return c
}

// waitGossip polls cond until it holds or the deadline passes.
func waitGossip(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runGossipChaosWorkload is the replica-failover workload on a
// gossip-enabled cluster with a true crash: KillServer stops the
// victim's gossip node along with its listener, so the surviving mesh
// must detect the silence on its own (no central probe involved)
// before the degraded round runs. Every byte is still checked against
// the fault-free truth, and the returned registry carries the clients'
// piggybacked-delta counters.
func runGossipChaosWorkload(t *testing.T, c *cluster.Cluster, inj *fault.Injector, np int, parallel, cached bool) *obs.Registry {
	t.Helper()
	ctx := context.Background()
	reg := obs.NewRegistry()
	opts := chaosOptions(inj, parallel, cached)

	const path = "/chaos-gossip.dat"
	fs0, err := c.NewFS(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs0.SetMetrics(reg)
	f0, err := fs0.Create(path, 1, []int64{chaosN, chaosN}, core.Hint{
		Level: stripe.LevelMultidim, Tile: []int64{chaosTile, chaosTile},
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f0.Close()
	fs0.Close()

	roundData := func(rank, round, n int) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rank*31 + i + round*101)
		}
		return buf
	}

	const chunks = 8
	chunkRows := int64(chaosN) / chunks
	writePhase := func(round int) {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for p := 0; p < np; p++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				fs, err := c.NewFS(rank, opts)
				if err != nil {
					errs <- err
					return
				}
				defer fs.Close()
				fs.SetMetrics(reg)
				f, err := fs.Open(path)
				if err != nil {
					errs <- err
					return
				}
				defer f.Close()
				sec := colSection(np, rank)
				data := roundData(rank, round, int(sec.Bytes(1)))
				rowBytes := sec.Count[1]
				for i := int64(0); i < chunks; i++ {
					sub := stripe.NewSection(
						[]int64{i * chunkRows, sec.Start[1]},
						[]int64{chunkRows, sec.Count[1]})
					chunk := data[i*chunkRows*rowBytes : (i+1)*chunkRows*rowBytes]
					if err := f.WriteSection(ctx, sub, chunk); err != nil {
						errs <- fmt.Errorf("rank %d round %d write chunk %d: %w", rank, round, i, err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	readPhase := func(round int) {
		for p := 0; p < np; p++ {
			fs, err := c.NewFS(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			fs.SetMetrics(reg)
			f, err := fs.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sec := colSection(np, p)
			want := roundData(p, round, int(sec.Bytes(1)))
			got := make([]byte, sec.Bytes(1))
			if err := f.ReadSection(ctx, sec, got); err != nil {
				t.Fatalf("rank %d round %d faulty read: %v", p, round, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rank %d round %d: faulty read diverges from fault-free truth", p, round)
			}
			f.Close()
			fs.Close()
		}
	}

	writePhase(0)
	readPhase(0)

	// Crash the last server: its gossip node stops announcing with the
	// listener, and the surviving mesh must converge on the suspicion
	// (the dead node can never refute) before the degraded round.
	victim := len(c.IOServers) - 1
	deadAddr := c.IOServers[victim].Addr()
	if err := c.KillServer(victim); err != nil {
		t.Fatal(err)
	}
	waitGossip(t, 30*time.Second, func() bool {
		rec, ok := c.GossipNodes[0].Lookup(deadAddr)
		return ok && (rec.State == gossip.StateSuspect || rec.State == gossip.StateDead)
	}, "the surviving mesh to suspect the killed server")

	writePhase(1)
	readPhase(1)

	// Fault-free verification with the server still dead.
	cleanFS, err := c.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanFS.Close()
	f, err := cleanFS.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for p := 0; p < np; p++ {
		sec := colSection(np, p)
		got := make([]byte, sec.Bytes(1))
		if err := f.ReadSection(ctx, sec, got); err != nil {
			t.Fatal(err)
		}
		if want := roundData(p, 1, len(got)); !bytes.Equal(got, want) {
			t.Fatalf("rank %d: stored bytes diverge from fault-free truth", p)
		}
	}
	return reg
}

// TestChaosGossip runs the gossip mode once under the standard storm:
// gossip exchanges and data traffic share the fault schedule, a server
// crashes mid-workload, the surviving mesh detects it, and the clients
// demonstrably consumed piggybacked health deltas along the way.
func TestChaosGossip(t *testing.T) {
	inj := fault.New(13, chaosRules()...)
	events := obs.NewEventLog(512)
	c := startGossipChaosCluster(t, 4, inj, 13, events)
	reg := runGossipChaosWorkload(t, c, inj, 4, true, false)
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
	if got := reg.Counter(core.MetricDeltasApplied).Value(); got == 0 {
		t.Fatal("gossip_deltas_applied = 0, want > 0 (every fresh conn's first response carries the table)")
	}
	if got := reg.Counter(core.MetricFailovers).Value(); got == 0 {
		t.Fatal("client_failovers = 0, want > 0 with a dead preferred replica")
	}
	if got := events.ByType(obs.EventGossipSuspect); len(got) == 0 {
		t.Fatal("no gossip_suspect event after a server crash")
	}
	t.Logf("faults=%v deltas_applied=%d failovers=%d suspect_events=%d", inj.Counts(),
		reg.Counter(core.MetricDeltasApplied).Value(),
		reg.Counter(core.MetricFailovers).Value(),
		len(events.ByType(obs.EventGossipSuspect)))
}

// TestGossipKillMetaMidStorm is the ISSUE 10 acceptance sim: with the
// storm running, the metadata service goes away and THEN a server is
// killed. The surviving mesh must detect the crash on its own
// (suspect with two distinct observers), the repair prober must keep
// planning from the gossip snapshot (meta_unreachable fallback,
// offline plan naming exactly the dead server), and once the catalog
// returns, the two-witness rule must bury the crashed server while
// refusing to bury one that only the prober cannot reach.
func TestGossipKillMetaMidStorm(t *testing.T) {
	const np = 4
	inj := fault.New(14, chaosRules()...)
	events := obs.NewEventLog(1024)
	c := startGossipChaosCluster(t, 4, inj, 14, events)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	opts := core.Options{Combine: true, Stagger: true, Dial: inj.DialContext, Retry: chaosRetry()}
	addrs := make([]string, len(c.IOServers))
	for i, srv := range c.IOServers {
		addrs[i] = srv.Addr()
	}

	// An R=2 file written under the storm while everything is healthy.
	const path = "/chaos-gossip-meta.dat"
	fs0, err := c.NewFS(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs0.SetMetrics(reg)
	f0, err := fs0.Create(path, 1, []int64{chaosN, chaosN}, core.Hint{
		Level: stripe.LevelMultidim, Tile: []int64{chaosTile, chaosTile},
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < np; p++ {
		sec := colSection(np, p)
		if err := f0.WriteSection(ctx, sec, rankBytes(p, int(sec.Bytes(1)))); err != nil {
			t.Fatalf("rank %d write: %v", p, err)
		}
	}
	f0.Close()
	fs0.Close()

	// The prober's catalog connection is opened while the metadata
	// service is still up — the outage below severs it.
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	r := repair.New(cat, repair.Options{
		Gossip: c.GossipNodes[0], Witnesses: 2,
		Metrics: reg, Events: events,
		PingTimeout: time.Second,
	})
	defer r.Close()

	// Meta outage first, server crash second: the crash happens while
	// nothing central can observe it.
	if err := c.StopMeta(); err != nil {
		t.Fatal(err)
	}
	if err := c.KillServer(3); err != nil {
		t.Fatal(err)
	}

	// The mesh alone must converge on the suspicion, with at least two
	// distinct observers (the corroboration the two-witness rule needs).
	waitGossip(t, 30*time.Second, func() bool {
		rec, ok := c.GossipNodes[0].Lookup(addrs[3])
		return ok && rec.State == gossip.StateSuspect && len(rec.Observers) >= 2
	}, "two distinct gossip observers to suspect the killed server")

	// Probe answers from the gossip snapshot while the catalog is
	// unreachable. Transient storm-born suspicions of live servers are
	// refuted within rounds, so poll until the map names exactly io3.
	waitGossip(t, 30*time.Second, func() bool {
		alive, err := r.Probe(ctx)
		if err != nil {
			return false
		}
		return alive["io0"] && alive["io1"] && alive["io2"] && !alive["io3"]
	}, "the gossip-fallback probe to name io3 down and the rest up")
	if got := events.ByType(obs.EventMetaUnreachable); len(got) == 0 {
		t.Fatal("no meta_unreachable event from the fallback probe")
	}

	// The offline plan pings directly and cross-checks gossip: only the
	// server failing BOTH witnesses counts as down, so a live server the
	// mesh momentarily suspects is not planned into a repair.
	rep, err := r.PlanOffline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"io0", "io1", "io2"} {
		if !rep.Alive[name] {
			t.Fatalf("offline plan buried live server %s: %v", name, rep.Alive)
		}
	}
	if rep.Alive["io3"] {
		t.Fatalf("offline plan missed the killed server: %v", rep.Alive)
	}

	// The catalog returns; now a prober partitioned from io1 (every one
	// of its dials to io1 dropped) probes repeatedly. io1 must be held
	// at suspect — gossip says alive, so the dead escalation is withheld
	// — while io3, probe-failed AND gossip-corroborated, is buried and
	// the verdict injected back into the mesh.
	if err := c.RestartMeta(); err != nil {
		t.Fatal(err)
	}
	probeInj := fault.New(15, fault.Rule{Kind: fault.KindDrop, Prob: 1, Label: "io1"})
	for i := range addrs {
		probeInj.SetLabel(addrs[i], c.Specs[i].Name)
	}
	cat2, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	r2 := repair.New(cat2, repair.Options{
		Dial:   probeInj.DialContext,
		Gossip: c.GossipNodes[0], Witnesses: 2,
		Metrics: reg2, Events: events,
		PingTimeout: 500 * time.Millisecond,
	})
	defer r2.Close()
	for i := 0; i < 3; i++ {
		if _, err := r2.Probe(ctx); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if got := reg2.Counter(repair.MetricDeadHolds).Value(); got == 0 {
		t.Fatal("repair_dead_holds = 0, want > 0 (io1 is only partitioned from the prober)")
	}
	health, err := cat2.ServerHealth()
	if err != nil {
		t.Fatal(err)
	}
	states := make(map[string]string, len(health))
	for _, h := range health {
		states[h.Name] = h.State
	}
	if states["io1"] != meta.StateSuspect {
		t.Fatalf("io1 state = %q, want suspect (held by the two-witness rule)", states["io1"])
	}
	if states["io3"] != meta.StateDead {
		t.Fatalf("io3 state = %q, want dead (probe-failed and gossip-corroborated)", states["io3"])
	}
	if rec, ok := c.GossipNodes[0].Lookup(addrs[3]); !ok || rec.State != gossip.StateDead {
		t.Fatalf("confirmed death was not injected back into the mesh: %+v", rec)
	}

	// The injected verdict reaches clients as a piggybacked delta: a
	// fresh engine's first response carries the table, dead hint
	// included.
	hintFS, err := c.NewFS(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	hintFS.SetMetrics(reg)
	hf, err := hintFS.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sec0 := colSection(np, 0)
	if err := hf.ReadSection(ctx, sec0, make([]byte, sec0.Bytes(1))); err != nil {
		t.Fatal(err)
	}
	hf.Close()
	hints := hintFS.DeadHints()
	hintFS.Close()
	if len(hints) != 1 || hints[0] != "io3" {
		t.Fatalf("client dead hints = %v, want [io3]", hints)
	}

	// A clean repair run rebuilds the lost replicas (the two-witness
	// state survives: io1 pings fine and returns to alive, io3 stays
	// dead), and the file reads back byte-identical without the dead
	// server.
	report, err := c.Repair(ctx, repair.Options{Metrics: reg2, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if report.Repaired == 0 {
		t.Fatalf("repair rebuilt nothing: %+v", report)
	}
	if !report.Alive["io1"] || report.Alive["io3"] {
		t.Fatalf("repair-run liveness = %v, want io1 up and io3 down", report.Alive)
	}
	cleanFS, err := c.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanFS.Close()
	f, err := cleanFS.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for p := 0; p < np; p++ {
		sec := colSection(np, p)
		got := make([]byte, sec.Bytes(1))
		if err := f.ReadSection(ctx, sec, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rankBytes(p, len(got))) {
			t.Fatalf("rank %d: repaired bytes diverge from fault-free truth", p)
		}
	}
	t.Logf("dead_holds=%d repaired=%d suspect_events=%d", reg2.Counter(repair.MetricDeadHolds).Value(),
		report.Repaired, len(events.ByType(obs.EventGossipSuspect)))
}
