package dpfs_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/meta"
	"dpfs/internal/repair"
	"dpfs/internal/server"
)

// TestReplicaFailoverE2E is the replication acceptance run: np=4
// clients over io=4 servers work on R=2 files while one server is
// killed mid-workload. Writes degrade (one replica short), reads fail
// over to the surviving copy, and every byte must match the fault-free
// truth. Then an online repair re-replicates the lost copies onto the
// survivors, and a fresh client — with the dead server still down —
// must read everything back from a fully R=2 catalog without a single
// failover.
func TestReplicaFailoverE2E(t *testing.T) {
	for _, mode := range []struct {
		name        string
		maxInflight int
		cached      bool
	}{
		{"sequential", 1, false},
		{"parallel", 0, false},
		{"cached", 0, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			runReplicaFailoverE2E(t, mode.maxInflight, mode.cached)
		})
	}
}

func runReplicaFailoverE2E(t *testing.T, maxInflight int, cached bool) {
	const (
		np     = 4
		size   = 16 * 4096
		rounds = 3
	)
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	opts := dpfs.Options{
		Combine: true, Stagger: true, MaxInflight: maxInflight,
		Retry: server.RetryPolicy{MaxRetries: 2, RequestTimeout: 5 * time.Second,
			BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond},
	}
	if cached {
		opts.CacheBytes = 64 << 20
		opts.MetaTTL = time.Minute
		opts.Readahead = 2
	}
	clients := make([]*dpfs.Client, np)
	for r := 0; r < np; r++ {
		clients[r], err = dpfs.Connect(c.MetaSrv.Addr(), r, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer clients[r].Close()
	}

	pattern := func(r, round int) []byte {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*13 + r*7 + round*101)
		}
		return data
	}
	filePath := func(r int) string { return fmt.Sprintf("/replica-chaos-%d", r) }

	files := make([]*dpfs.File, np)
	for r := 0; r < np; r++ {
		files[r], err = clients[r].Create(filePath(r), 1, []int64{size},
			dpfs.Hint{Level: dpfs.Linear, BrickBytes: 4096, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer files[r].Close()
	}

	runRound := func(round int) {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for r := 0; r < np; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				data := pattern(r, round)
				if err := files[r].WriteAt(ctx, data, 0); err != nil {
					errs <- fmt.Errorf("client %d round %d write: %w", r, round, err)
					return
				}
				got := make([]byte, size)
				if err := files[r].ReadAt(ctx, got, 0); err != nil {
					errs <- fmt.Errorf("client %d round %d read: %w", r, round, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("client %d round %d: roundtrip mismatch", r, round)
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// Round 0 healthy; the remaining rounds run degraded with one of
	// the four servers dead.
	runRound(0)
	deadIdx := len(c.IOServers) - 1
	deadName := c.Specs[deadIdx].Name
	if err := c.IOServers[deadIdx].Close(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round < rounds; round++ {
		runRound(round)
	}

	// A fresh cold-cache client must see the final bytes with the dead
	// server still down — every brick it once held is read from the
	// surviving replica.
	clean, err := dpfs.Connect(c.MetaSrv.Addr(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < np; r++ {
		f, err := clean.Open(filePath(r))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if err := f.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("degraded verification read of file %d: %v", r, err)
		}
		if !bytes.Equal(got, pattern(r, rounds-1)) {
			t.Fatalf("file %d: degraded bytes diverge from fault-free truth", r)
		}
		f.Close()
	}

	var failovers, degraded int64
	count := func(cl *dpfs.Client) {
		snap := cl.Engine().Metrics().Snapshot()
		failovers += snap.Counters[core.MetricFailovers]
		degraded += snap.Counters[core.MetricDegradedWrites]
	}
	for r := 0; r < np; r++ {
		count(clients[r])
	}
	count(clean)
	clean.Close()
	if failovers == 0 {
		t.Fatal("client_failovers = 0, want > 0 with a dead preferred replica")
	}
	if degraded == 0 {
		t.Fatal("client_degraded_writes = 0, want > 0 with a dead replica target")
	}
	t.Logf("dead=%s failovers=%d degraded_writes=%d", deadName, failovers, degraded)

	// Online repair: every file must come back to two live copies.
	rep, err := c.Repair(ctx, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("repair failed for %d files: %+v", rep.Failed, rep.Files)
	}
	if rep.Repaired != np {
		t.Fatalf("repair fixed %d files, want %d", rep.Repaired, np)
	}
	if rep.Alive[deadName] {
		t.Fatalf("repair probe thinks dead server %s is alive", deadName)
	}

	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < np; r++ {
		fi, rs, err := cat.LookupReplicated(filePath(r))
		if err != nil {
			t.Fatal(err)
		}
		for b, reps := range rs.Servers {
			if len(reps) != 2 {
				t.Fatalf("file %d brick %d: %d replicas after repair, want 2", r, b, len(reps))
			}
			for _, s := range reps {
				if fi.Servers[s] == deadName {
					t.Fatalf("file %d brick %d: replica still on dead server %s", r, b, deadName)
				}
			}
		}
	}
	hs, err := cat.ServerHealth()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, h := range hs {
		states[h.Name] = h.State
	}
	if st := states[deadName]; st == meta.StateAlive || st == "" {
		t.Fatalf("dead server %s marked %q in catalog, want suspect/dead", deadName, st)
	}

	// A fresh client over the repaired catalog reads everything without
	// touching the still-dead server: zero failovers.
	fresh, err := dpfs.Connect(c.MetaSrv.Addr(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for r := 0; r < np; r++ {
		f, err := fresh.Open(filePath(r))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if err := f.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("post-repair read of file %d: %v", r, err)
		}
		if !bytes.Equal(got, pattern(r, rounds-1)) {
			t.Fatalf("file %d: post-repair bytes diverge from fault-free truth", r)
		}
		f.Close()
	}
	snap := fresh.Engine().Metrics().Snapshot()
	if got := snap.Counters[core.MetricFailovers]; got != 0 {
		t.Fatalf("post-repair reads took %d failovers, want 0 (dead server still in replica sets?)", got)
	}
}
