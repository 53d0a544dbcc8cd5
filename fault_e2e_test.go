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
	"dpfs/internal/fault"
	"dpfs/internal/server"
)

// TestChaosE2E runs the full public-API stack — Connect through the
// network metadata server, np=4 clients over io=4 servers — under a
// seeded fault schedule of connection drops, latency spikes and torn
// frames, one request at a time, overlapped, and cached. Every
// roundtrip must be byte-exact
// and a fault-free verification pass must see the same bytes: the
// chaos has to be invisible above the client library, exactly what
// DPFS's idle-workstation substrate (Section 1) demands.
func TestChaosE2E(t *testing.T) {
	for _, mode := range []struct {
		name        string
		maxInflight int
		cached      bool
		seed        int64
	}{
		{"sequential", 1, false, 11},
		{"parallel", 0, false, 12},
		{"cached", 0, true, 13},
	} {
		t.Run(mode.name, func(t *testing.T) {
			runChaosE2E(t, mode.maxInflight, mode.cached, mode.seed)
		})
	}
}

func runChaosE2E(t *testing.T, maxInflight int, cached bool, seed int64) {
	const (
		np     = 4
		size   = 16 * 4096
		rounds = 3
	)
	// The flag-form spec, so this also exercises the -fault-spec path
	// end to end. The nth rules guarantee a failed send on every conn
	// that lives that long (see chaosRules in internal/fault for why the
	// pair); the prob rules add seed-dependent background noise.
	inj, err := fault.Parse("partial:nth=18; drop:nth=19; drop:prob=0.02; delay:prob=0.05,ms=2", seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, srv := range c.IOServers {
		inj.SetLabel(srv.Addr(), c.Specs[i].Name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	opts := dpfs.Options{
		Combine: true, Stagger: true, MaxInflight: maxInflight,
		Dial: inj.DialContext,
		Retry: server.RetryPolicy{MaxRetries: 8, RequestTimeout: 5 * time.Second,
			BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond},
	}
	if cached {
		// Caching must be invisible under the same storm: hits, fills,
		// write invalidations and readahead all race the fault schedule.
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

	pattern := func(r int) []byte {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*13 + r*7)
		}
		return data
	}

	var wg sync.WaitGroup
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := clients[r].Create(fmt.Sprintf("/chaos-e2e-%d", r), 1, []int64{size},
				dpfs.Hint{Level: dpfs.Linear, BrickBytes: 4096})
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			data := pattern(r)
			for round := 0; round < rounds; round++ {
				if err := f.WriteAt(ctx, data, 0); err != nil {
					errs <- fmt.Errorf("client %d round %d write: %w", r, round, err)
					return
				}
				got := make([]byte, size)
				if err := f.ReadAt(ctx, got, 0); err != nil {
					errs <- fmt.Errorf("client %d round %d read: %w", r, round, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("client %d round %d: faulty roundtrip mismatch", r, round)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The storm must actually have hit, and the recovery machinery must
	// have been what absorbed it.
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
	var retries, evictions int64
	for r := 0; r < np; r++ {
		snap := clients[r].Engine().Metrics().Snapshot()
		retries += snap.Counters[server.MetricClientRetries]
		evictions += snap.Counters[server.MetricConnEvictions]
	}
	if retries == 0 {
		t.Fatal("summed client_retries = 0, want > 0 under the storm")
	}
	t.Logf("faults=%v retries=%d evictions=%d", inj.Counts(), retries, evictions)

	// Fault-free verification: a clean client must read back exactly
	// what the chaos-era writers claim they wrote.
	clean, err := dpfs.Connect(c.MetaSrv.Addr(), 0, dpfs.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	for r := 0; r < np; r++ {
		f, err := clean.Open(fmt.Sprintf("/chaos-e2e-%d", r))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if err := f.ReadAt(ctx, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(r)) {
			t.Fatalf("file %d: stored bytes diverge from fault-free truth", r)
		}
		f.Close()
	}
}
