package dpfs_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/obs"
	"dpfs/internal/server"
)

// TestChaosEventLog kills one of four servers under a replicated
// workload and asserts the client's recovery machinery narrates
// itself into the cluster event log: retry exhaustion on the
// unreplicated file, breaker open on the dead server, failover on the
// replicated read, degraded commit on the replicated write — all
// queryable through /debug/events.
func TestChaosEventLog(t *testing.T) {
	const size = 8 * 4096
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	events := obs.NewEventLog(256)
	client, err := dpfs.Connect(c.MetaSrv.Addr(), 0, dpfs.Options{
		Combine: true, Stagger: true,
		Events: events,
		Retry: server.RetryPolicy{MaxRetries: 2, RequestTimeout: 2 * time.Second,
			BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
			BreakerThreshold: 4, BreakerCooldown: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Two files striped over all four servers: one unreplicated (reads
	// must exhaust retries once a server dies), one with R=2 (reads
	// fail over, writes degrade).
	single, err := client.Create("/events-r1", 1, []int64{size},
		dpfs.Hint{Level: dpfs.Linear, BrickBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	mirrored, err := client.Create("/events-r2", 1, []int64{size},
		dpfs.Hint{Level: dpfs.Linear, BrickBytes: 4096, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mirrored.Close()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, f := range []*dpfs.File{single, mirrored} {
		if err := f.WriteAt(ctx, data, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Kill one server. Round-robin placement put bricks of both files
	// on it.
	if err := c.IOServers[len(c.IOServers)-1].Close(); err != nil {
		t.Fatal(err)
	}

	// Unreplicated read: no failover target, so the client must burn
	// its retries and report exhaustion (3 failed attempts, under the
	// breaker threshold of 4). A second read pushes the consecutive
	// failure count past the threshold and opens the breaker.
	for i := 0; i < 2; i++ {
		if err := single.ReadAt(ctx, make([]byte, size), 0); err == nil {
			t.Fatal("read of unreplicated file with a dead server unexpectedly succeeded")
		}
	}
	// Replicated read: every brick is still readable via the survivor.
	if err := mirrored.ReadAt(ctx, make([]byte, size), 0); err != nil {
		t.Fatalf("replicated read did not fail over: %v", err)
	}
	// Replicated write: commits one replica short.
	if err := mirrored.WriteAt(ctx, data, 0); err != nil {
		t.Fatalf("replicated write did not degrade: %v", err)
	}

	for _, typ := range []string{obs.EventRetryExhausted, obs.EventBreakerOpen,
		obs.EventFailover, obs.EventDegradedWrite} {
		if got := events.ByType(typ); len(got) == 0 {
			t.Errorf("no %q event recorded; log:\n%v", typ, events.Events())
		}
	}

	// The same log through the debug endpoint, filtered server-side.
	h := obs.NewHandler(obs.HandlerConfig{Events: events})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, typ := range []string{obs.EventFailover, obs.EventDegradedWrite} {
		resp, err := http.Get(srv.URL + "/debug/events?type=" + typ)
		if err != nil {
			t.Fatal(err)
		}
		var got []obs.Event
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/debug/events?type=%s: bad JSON: %v", typ, err)
		}
		if len(got) == 0 {
			t.Fatalf("/debug/events?type=%s returned no events", typ)
		}
		for _, e := range got {
			if e.Type != typ {
				t.Fatalf("/debug/events?type=%s returned %+v", typ, e)
			}
		}
	}
}

// TestGossipEventLog is TestChaosEventLog for the health plane: a
// gossip-enabled cluster narrates membership convergence into the
// event log, and a killed server produces gossip_suspect from the
// surviving mesh — both event types queryable alongside the
// breaker/failover events through /debug/events.
func TestGossipEventLog(t *testing.T) {
	events := obs.NewEventLog(512)
	c, err := cluster.Start(cluster.Config{
		Servers: cluster.Uniform(4), Dir: t.TempDir(),
		Gossip:         true,
		GossipInterval: 20 * time.Millisecond,
		GossipSeed:     42,
		GossipEvents:   events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitEvent := func(typ, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for len(events.ByType(typ)) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no %q event: %s; log:\n%v", typ, what, events.Events())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Convergence: each node starts knowing only itself and learns the
	// rest as records merge in.
	waitEvent(obs.EventGossipMemberJoin, "the mesh never converged")

	// A crash (listener and gossip node both gone) makes the survivors
	// suspect the silent peer.
	if err := c.KillServer(len(c.IOServers) - 1); err != nil {
		t.Fatal(err)
	}
	waitEvent(obs.EventGossipSuspect, "no survivor suspected the killed server")

	// The same types through the debug endpoint.
	h := obs.NewHandler(obs.HandlerConfig{Events: events})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, typ := range []string{obs.EventGossipMemberJoin, obs.EventGossipSuspect} {
		resp, err := http.Get(srv.URL + "/debug/events?type=" + typ)
		if err != nil {
			t.Fatal(err)
		}
		var got []obs.Event
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/debug/events?type=%s: bad JSON: %v", typ, err)
		}
		if len(got) == 0 {
			t.Fatalf("/debug/events?type=%s returned no events", typ)
		}
	}
}
