// Chaos tests: the full client/server stack runs under a seeded fault
// schedule — connection drops, latency spikes, torn frames — and must
// produce byte-identical results to a fault-free run. This is the
// harness the paper's setting demands: DPFS aggregates idle
// workstation storage, where flaky links are the common case, and the
// client's retry/eviction machinery has to make that invisible.
package fault_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/collective"
	"dpfs/internal/core"
	"dpfs/internal/fault"
	"dpfs/internal/metarepl"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

const (
	chaosN    = 256 // array edge (bytes; elemSize 1)
	chaosTile = 64  // multidim tile edge -> 16 bricks
)

// chaosRetry absorbs the storm: with drop prob 0.02 and 8 retries the
// chance of one request exhausting its budget is ~2e-14.
func chaosRetry() server.RetryPolicy {
	return server.RetryPolicy{
		MaxRetries:     8,
		RequestTimeout: 5 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	}
}

// chaosRules is the standard storm: probabilistic drops and latency
// spikes everywhere, plus deterministic nth-op faults that guarantee
// the schedule fires (and with it, client retries) on every run. A
// muxed conn's ops are the pieces of each vectored send (through the
// injector's wrapper every piece is a Write: REQ, DATA header, each
// segment) and the demux reader's buffered reads, one per response —
// and that read is posted while the conn is idle, where a fault evicts
// the conn but fails no request. A send always has its tag registered,
// so the pair below pins the retry: if a conn's 18th op is a send it is
// torn (it is, in this workload's usual send-send-send-read rhythm); if
// not it was the reader's, two reads are not posted back to back while
// responses fit the reader's buffer, so the 19th is a send and the drop
// lands on it. The nth values must exceed the conn ops of
// any single exchange: a retry runs on a fresh conn whose op counter
// restarts, so an nth within one exchange's span would re-fire
// identically on every attempt and no retry budget could ever escape it.
func chaosRules() []fault.Rule {
	return []fault.Rule{
		{Kind: fault.KindPartial, Nth: 18},
		{Kind: fault.KindDrop, Nth: 19},
		{Kind: fault.KindDrop, Prob: 0.02},
		{Kind: fault.KindDelay, Prob: 0.05, Delay: 2 * time.Millisecond},
	}
}

// startChaosCluster launches io unshaped servers and registers their
// catalog names with the injector, so per-server rules can match.
func startChaosCluster(t *testing.T, io int, inj *fault.Injector) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(io), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i, srv := range c.IOServers {
		inj.SetLabel(srv.Addr(), c.Specs[i].Name)
	}
	return c
}

// chaosOptions are the storm engines' options: the paper's one request
// at a time, or (parallel) the engine's default of one per server;
// cached turns the client caches on.
func chaosOptions(inj *fault.Injector, parallel, cached bool) core.Options {
	opts := core.Options{
		Combine: true, Stagger: true,
		Dial: inj.DialContext, Retry: chaosRetry(),
	}
	if !parallel {
		opts.MaxInflight = 1
	}
	if cached {
		// The client caches must be invisible under the storm: fills
		// race retries, write invalidations race prefetches, and the
		// workloads' byte-equality assertions must hold unchanged.
		opts.CacheBytes = 64 << 20
		opts.MetaTTL = time.Minute
		opts.Readahead = 2
	}
	return opts
}

// colSection is rank r's (*, BLOCK) slice of the chaosN x chaosN array.
func colSection(np, rank int) stripe.Section {
	w := int64(chaosN) / int64(np)
	return stripe.NewSection([]int64{0, int64(rank) * w}, []int64{chaosN, w})
}

// rankBytes is the deterministic payload rank r contributes.
func rankBytes(rank, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rank*31 + i)
	}
	return buf
}

// runChaosWorkload writes the array under faults (np ranks, column
// sections, concurrently), reads it back under the same fault schedule,
// and asserts both phases are byte-identical to the fault-free truth.
// It returns the engines' shared registry for counter assertions.
func runChaosWorkload(t *testing.T, c *cluster.Cluster, inj *fault.Injector, np int, parallel, cached bool) *obs.Registry {
	t.Helper()
	ctx := context.Background()
	reg := obs.NewRegistry()
	opts := chaosOptions(inj, parallel, cached)

	path := fmt.Sprintf("/chaos-%v.dat", parallel)
	fs0, err := c.NewFS(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs0.SetMetrics(reg)
	f0, err := fs0.Create(path, 1, []int64{chaosN, chaosN}, core.Hint{
		Level: stripe.LevelMultidim, Tile: []int64{chaosTile, chaosTile},
	})
	if err != nil {
		t.Fatal(err)
	}
	f0.Close()
	fs0.Close()

	// Faulty write phase: every rank through its own engine, at once,
	// in row chunks. Chunking keeps each rank's connections busy
	// across many exchanges, so its op counter walks through the
	// deterministic nth-fault schedule.
	const chunks = 8
	chunkRows := int64(chaosN) / chunks
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
			data := rankBytes(rank, int(sec.Bytes(1)))
			rowBytes := sec.Count[1]
			for i := int64(0); i < chunks; i++ {
				sub := stripe.NewSection(
					[]int64{i * chunkRows, sec.Start[1]},
					[]int64{chunkRows, sec.Count[1]})
				chunk := data[i*chunkRows*rowBytes : (i+1)*chunkRows*rowBytes]
				if err := f.WriteSection(ctx, sub, chunk); err != nil {
					errs <- fmt.Errorf("rank %d write chunk %d: %w", rank, i, err)
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

	// Faulty read phase: fresh engines, same schedule still running,
	// chunked the same way.
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
		want := rankBytes(p, int(sec.Bytes(1)))
		rowBytes := sec.Count[1]
		for i := int64(0); i < chunks; i++ {
			sub := stripe.NewSection(
				[]int64{i * chunkRows, sec.Start[1]},
				[]int64{chunkRows, sec.Count[1]})
			got := make([]byte, chunkRows*rowBytes)
			if err := f.ReadSection(ctx, sub, got); err != nil {
				t.Fatalf("rank %d faulty read chunk %d: %v", p, i, err)
			}
			if !bytes.Equal(got, want[i*chunkRows*rowBytes:(i+1)*chunkRows*rowBytes]) {
				t.Fatalf("rank %d chunk %d: faulty read diverges from fault-free truth", p, i)
			}
		}
		f.Close()
		fs.Close()
	}

	// Fault-free read pass: what landed on the servers must match too
	// (no torn frame half-applied, no retry double-applied).
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
		if want := rankBytes(p, len(got)); !bytes.Equal(got, want) {
			t.Fatalf("rank %d: stored bytes diverge from fault-free truth", p)
		}
	}
	return reg
}

// TestChaosSequential runs the storm against the paper's issue order,
// one request at a time.
func TestChaosSequential(t *testing.T) {
	inj := fault.New(1, chaosRules()...)
	c := startChaosCluster(t, 4, inj)
	reg := runChaosWorkload(t, c, inj, 4, false, false)
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
	if got := reg.Counter(server.MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0 under the storm")
	}
	if got := reg.Counter(server.MetricConnEvictions).Value(); got == 0 {
		t.Fatal("conn_evictions = 0, want > 0 (a dropped conn must be noticed)")
	}
	t.Logf("faults injected: %v; retries=%d evictions=%d", inj.Counts(),
		reg.Counter(server.MetricClientRetries).Value(),
		reg.Counter(server.MetricConnEvictions).Value())
}

// TestChaosParallelDispatch runs the same storm with each access's
// per-server exchanges in flight concurrently. A conn fault fails every
// tag multiplexed on the conn at once, and the retry ladder re-issues
// them on fresh conns.
func TestChaosParallelDispatch(t *testing.T) {
	inj := fault.New(2, chaosRules()...)
	c := startChaosCluster(t, 4, inj)
	reg := runChaosWorkload(t, c, inj, 4, true, false)
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
	if got := reg.Counter(server.MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0 under the storm")
	}
	if got := reg.Counter(server.MetricConnEvictions).Value(); got == 0 {
		t.Fatal("conn_evictions = 0, want > 0 (a dropped muxed conn must be noticed)")
	}
	t.Logf("faults injected: %v; retries=%d evictions=%d", inj.Counts(),
		reg.Counter(server.MetricClientRetries).Value(),
		reg.Counter(server.MetricConnEvictions).Value())
}

// TestChaosCached runs the storm with the client caches on (data
// cache, metadata cache, readahead): served-from-cache reads, poisoned
// fills and prefetch traffic must leave every byte-equality assertion
// of the workload intact.
func TestChaosCached(t *testing.T) {
	inj := fault.New(5, chaosRules()...)
	c := startChaosCluster(t, 4, inj)
	reg := runChaosWorkload(t, c, inj, 4, true, true)
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
	if got := reg.Counter(server.MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0 under the storm")
	}
}

// runReplicaChaosWorkload drives an R=2 file through the storm plus a
// mid-workload server kill: one healthy write/read round, then one of
// the io servers dies and a second round runs degraded — writes land
// on one replica short, reads fail over to the surviving copy — with
// every byte still checked against the fault-free truth.
func runReplicaChaosWorkload(t *testing.T, c *cluster.Cluster, inj *fault.Injector, np int, parallel, cached bool) *obs.Registry {
	t.Helper()
	ctx := context.Background()
	reg := obs.NewRegistry()
	opts := chaosOptions(inj, parallel, cached)

	const path = "/chaos-replica.dat"
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
	// Kill one server mid-workload: the second round runs degraded.
	if err := c.IOServers[len(c.IOServers)-1].Close(); err != nil {
		t.Fatal(err)
	}
	writePhase(1)
	readPhase(1)

	// Fault-free verification with the server still dead: a clean
	// client (no storm) reads the final bytes through failover alone.
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

// TestChaosReplicaFailover runs the replica-failover mode once under
// the standard storm: R=2, one of four servers killed mid-workload,
// byte-identical results, and the failover/degraded-write machinery
// demonstrably doing the absorbing.
func TestChaosReplicaFailover(t *testing.T) {
	inj := fault.New(6, chaosRules()...)
	c := startChaosCluster(t, 4, inj)
	reg := runReplicaChaosWorkload(t, c, inj, 4, true, false)
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
	if got := reg.Counter(core.MetricFailovers).Value(); got == 0 {
		t.Fatal("client_failovers = 0, want > 0 with a dead preferred replica")
	}
	if got := reg.Counter(core.MetricDegradedWrites).Value(); got == 0 {
		t.Fatal("client_degraded_writes = 0, want > 0 with a dead replica target")
	}
	t.Logf("faults=%v failovers=%d degraded=%d", inj.Counts(),
		reg.Counter(core.MetricFailovers).Value(),
		reg.Counter(core.MetricDegradedWrites).Value())
}

// TestChaosPerServerRule confines the storm to one server by catalog
// name and asserts the label routing held: only conns to that server
// see faults.
func TestChaosPerServerRule(t *testing.T) {
	inj := fault.New(3,
		fault.Rule{Kind: fault.KindPartial, Nth: 19, Label: "io1"},
		fault.Rule{Kind: fault.KindDrop, Nth: 20, Label: "io1"}, // lands on a send if op 19 was a read; see chaosRules
		fault.Rule{Kind: fault.KindDelay, Prob: 0.2, Delay: time.Millisecond, Label: "io1"},
	)
	c := startChaosCluster(t, 4, inj)
	reg := runChaosWorkload(t, c, inj, 4, false, false)
	if inj.Total() == 0 {
		t.Fatal("the per-server schedule never fired")
	}
	if got := reg.Counter(server.MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0 (io1 fails a send every 19 or 20 ops)")
	}
}

// TestChaosCollective drives the two-phase collective I/O path (one
// aggregator per server region, ranks exchange through shared memory)
// through the same storm.
func TestChaosCollective(t *testing.T) {
	const np = 4
	inj := fault.New(4, chaosRules()...)
	c := startChaosCluster(t, 4, inj)
	ctx := context.Background()
	opts := core.Options{
		Combine: true, Stagger: true,
		Dial: inj.DialContext, Retry: chaosRetry(),
	}

	fs0, err := c.NewFS(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := fs0.Create("/chaos-coll.dat", 1, []int64{chaosN, chaosN}, core.Hint{
		Level: stripe.LevelMultidim, Tile: []int64{chaosTile, chaosTile},
	})
	if err != nil {
		t.Fatal(err)
	}
	f0.Close()
	fs0.Close()

	g, err := collective.NewGroup(np)
	if err != nil {
		t.Fatal(err)
	}
	run := func(write bool) {
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
				f, err := fs.Open("/chaos-coll.dat")
				if err != nil {
					errs <- err
					return
				}
				defer f.Close()
				sec := colSection(np, rank)
				if write {
					err = g.WriteAll(ctx, rank, f, sec, rankBytes(rank, int(sec.Bytes(1))))
				} else {
					got := make([]byte, sec.Bytes(1))
					if err = g.ReadAll(ctx, rank, f, sec, got); err == nil {
						if want := rankBytes(rank, len(got)); !bytes.Equal(got, want) {
							err = fmt.Errorf("rank %d: collective read diverges", rank)
						}
					}
				}
				if err != nil {
					errs <- fmt.Errorf("rank %d: %w", rank, err)
				}
			}(p)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	run(true)
	run(false)
	if inj.Total() == 0 {
		t.Fatal("the fault schedule never fired")
	}
}

// metaChaosRules is the storm for catalog connections: latency spikes
// only. The mdbnet transport deliberately never replays a statement on
// a fresh connection (a COMMIT whose ack was lost must not apply
// twice), so drops and torn frames surface as hard errors to the
// engine — a different failure class the catalog-restart tests cover.
// Delays exercise the same conns and framing under load without
// changing op outcomes.
func metaChaosRules() []fault.Rule {
	return []fault.Rule{
		{Kind: fault.KindDelay, Prob: 0.2, Delay: 2 * time.Millisecond},
		{Kind: fault.KindDelay, Nth: 13, Delay: 5 * time.Millisecond},
	}
}

// runMetaShardChaosWorkload drives per-rank files through the catalog
// with fault storms on BOTH conn kinds: the standard storm on the I/O
// conns (drops, delays, torn frames — absorbed by the retry ladder)
// and the delay storm on the catalog conns. Every rank creates its own
// file so the create/open traffic itself rides the delayed conns, and
// the final audit checks bytes and that the catalog lists exactly the
// ranks' files.
func runMetaShardChaosWorkload(t *testing.T, c *cluster.Cluster, inj, metaInj *fault.Injector, np int) *obs.Registry {
	t.Helper()
	ctx := context.Background()
	reg := obs.NewRegistry()
	metaDial := func(addr string) (net.Conn, error) {
		return metaInj.DialContext(ctx, addr)
	}
	opts := core.Options{
		Combine: true, Stagger: true,
		Dial: inj.DialContext, Retry: chaosRetry(),
	}

	const chunks = 8
	perRank := int64(chaosN * chaosN / np)
	chunkBytes := perRank / chunks
	path := func(rank int) string { return fmt.Sprintf("/chaos-meta-r%d.dat", rank) }
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fs, err := c.NewFSMetaDial(rank, opts, metaDial)
			if err != nil {
				errs <- err
				return
			}
			defer fs.Close()
			fs.SetMetrics(reg)
			f, err := fs.Create(path(rank), 1, []int64{perRank},
				core.Hint{Level: stripe.LevelLinear, BrickBytes: chunkBytes})
			if err != nil {
				errs <- fmt.Errorf("rank %d create: %w", rank, err)
				return
			}
			defer f.Close()
			data := rankBytes(rank, int(perRank))
			for i := int64(0); i < chunks; i++ {
				sub := stripe.NewSection([]int64{i * chunkBytes}, []int64{chunkBytes})
				if err := f.WriteSection(ctx, sub, data[i*chunkBytes:(i+1)*chunkBytes]); err != nil {
					errs <- fmt.Errorf("rank %d write chunk %d: %w", rank, i, err)
					return
				}
			}
			// Faulty read-back through a reopened handle (fresh
			// lookups through the delayed catalog conns).
			f2, err := fs.Open(path(rank))
			if err != nil {
				errs <- fmt.Errorf("rank %d reopen: %w", rank, err)
				return
			}
			defer f2.Close()
			got := make([]byte, perRank)
			if err := f2.ReadSection(ctx, stripe.NewSection([]int64{0}, []int64{perRank}), got); err != nil {
				errs <- fmt.Errorf("rank %d read: %w", rank, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("rank %d: faulty read diverges from fault-free truth", rank)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Fault-free audit: stored bytes and the catalog's file list.
	cleanFS, err := c.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanFS.Close()
	for p := 0; p < np; p++ {
		f, err := cleanFS.Open(path(p))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, perRank)
		err = f.ReadSection(ctx, stripe.NewSection([]int64{0}, []int64{perRank}), got)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rankBytes(p, int(perRank))) {
			t.Fatalf("rank %d: stored bytes diverge from fault-free truth", p)
		}
	}
	files, err := cleanFS.Catalog().Files()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, np)
	for p := range want {
		want[p] = path(p)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("catalog lists %v, want %v", files, want)
	}
	return reg
}

// TestChaosMetaShard runs the metashard mode once: one catalog, delay
// storm on catalog conns, standard storm on I/O conns.
func TestChaosMetaShard(t *testing.T) {
	inj := fault.New(9, chaosRules()...)
	metaInj := fault.New(10, metaChaosRules()...)
	c := startChaosCluster(t, 4, inj)
	reg := runMetaShardChaosWorkload(t, c, inj, metaInj, 4)
	if inj.Total() == 0 {
		t.Fatal("the I/O fault schedule never fired")
	}
	if metaInj.Total() == 0 {
		t.Fatal("the catalog fault schedule never fired")
	}
	if got := reg.Counter(server.MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0 under the storm")
	}
	t.Logf("io faults=%v meta faults=%v retries=%d", inj.Counts(), metaInj.Counts(),
		reg.Counter(server.MetricClientRetries).Value())
}

// startMetaReplChaosCluster is startChaosCluster with the catalog run
// as one 3-way replica group with fast failover timeouts.
func startMetaReplChaosCluster(t *testing.T, io int, inj *fault.Injector) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{
		Servers: cluster.Uniform(io), Dir: t.TempDir(),
		MetaReplicas:        3,
		MetaHeartbeat:       10 * time.Millisecond,
		MetaElectionTimeout: 80 * time.Millisecond,
		MetaEvents:          obs.NewEventLog(128),
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

// runMetaReplChaosWorkload drives per-rank files through a replicated
// catalog with the standard storm on the I/O conns, the delay storm on
// the catalog conns, and the group's primary killed mid-workload. A
// failover aborts in-flight catalog transactions (the group client
// surfaces mdbnet.ErrNotPrimary), so the catalog ops are retried at
// the workload level with lost-ack tolerance, exactly as a real
// MPI-IO launcher would. The audit then checks bytes fault-free and
// that a promotion actually happened.
func runMetaReplChaosWorkload(t *testing.T, c *cluster.Cluster, inj, metaInj *fault.Injector, np int) *obs.Registry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	metaDial := func(addr string) (net.Conn, error) {
		return metaInj.DialContext(ctx, addr)
	}
	opts := core.Options{
		Combine: true, Stagger: true,
		Dial: inj.DialContext, Retry: chaosRetry(),
	}
	retry := func(what string, op func() error) error {
		var err error
		for attempt := 0; attempt < 2000; attempt++ {
			if err = op(); err == nil {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s: gave up: %w", what, err)
			case <-time.After(2 * time.Millisecond):
			}
		}
		return fmt.Errorf("%s: still failing after 2000 attempts: %w", what, err)
	}

	const chunks = 8
	perRank := int64(chaosN * chaosN / np)
	chunkBytes := perRank / chunks
	path := func(rank int) string { return fmt.Sprintf("/chaos-repl-r%d.dat", rank) }
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fs, err := c.NewFSMetaDial(rank, opts, metaDial)
			if err != nil {
				errs <- err
				return
			}
			defer fs.Close()
			fs.SetMetrics(reg)
			// Create with lost-ack tolerance: a commit the old primary
			// acknowledged before dying must not be recreated.
			err = retry(fmt.Sprintf("rank %d create", rank), func() error {
				f, err := fs.Create(path(rank), 1, []int64{perRank},
					core.Hint{Level: stripe.LevelLinear, BrickBytes: chunkBytes})
				if err != nil {
					if f2, err2 := fs.Open(path(rank)); err2 == nil {
						f2.Close()
						return nil
					}
					return err
				}
				return f.Close()
			})
			if err != nil {
				errs <- err
				return
			}
			data := rankBytes(rank, int(perRank))
			for i := int64(0); i < chunks; i++ {
				sub := stripe.NewSection([]int64{i * chunkBytes}, []int64{chunkBytes})
				err := retry(fmt.Sprintf("rank %d chunk %d", rank, i), func() error {
					f, err := fs.Open(path(rank))
					if err != nil {
						return err
					}
					defer f.Close()
					return f.WriteSection(ctx, sub, data[i*chunkBytes:(i+1)*chunkBytes])
				})
				if err != nil {
					errs <- err
					return
				}
			}
			err = retry(fmt.Sprintf("rank %d read", rank), func() error {
				f, err := fs.Open(path(rank))
				if err != nil {
					return err
				}
				defer f.Close()
				got := make([]byte, perRank)
				if err := f.ReadSection(ctx, stripe.NewSection([]int64{0}, []int64{perRank}), got); err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("rank %d: faulty read diverges from fault-free truth", rank)
				}
				return nil
			})
			if err != nil {
				errs <- err
			}
		}(p)
	}

	// Kill the primary mid-workload; the survivors elect and the group
	// clients chase the new primary by redirect. The dead replica comes
	// back as a follower while the workload is still running.
	time.Sleep(20 * time.Millisecond)
	primary := -1
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if primary = c.MetaPrimary(); primary >= 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if primary < 0 {
		t.Fatal("no primary to kill")
	}
	if err := c.KillMetaReplica(primary); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cur := c.MetaPrimary(); cur >= 0 && cur != primary {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no new primary elected after the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.RestartMetaReplica(primary); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Fault-free audit of the stored bytes.
	cleanFS, err := c.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanFS.Close()
	for p := 0; p < np; p++ {
		f, err := cleanFS.Open(path(p))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, perRank)
		err = f.ReadSection(ctx, stripe.NewSection([]int64{0}, []int64{perRank}), got)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rankBytes(p, int(perRank))) {
			t.Fatalf("rank %d: stored bytes diverge from fault-free truth", p)
		}
	}
	promotions := int64(0)
	for j := range c.Meta.Addrs() {
		if rep := c.Meta.Replica(j); rep != nil {
			promotions += rep.Metrics().Counter(metarepl.MetricPromotions).Value()
		}
	}
	if promotions == 0 {
		t.Fatal("metarepl_promotions_total = 0 after a primary kill")
	}
	return reg
}

// TestChaosMetaRepl runs the metarepl mode once: a 3-way replicated
// catalog, its primary killed mid-workload, the delay storm on catalog
// conns and the standard storm on I/O conns.
func TestChaosMetaRepl(t *testing.T) {
	inj := fault.New(11, chaosRules()...)
	metaInj := fault.New(12, metaChaosRules()...)
	c := startMetaReplChaosCluster(t, 4, inj)
	reg := runMetaReplChaosWorkload(t, c, inj, metaInj, 4)
	if inj.Total() == 0 {
		t.Fatal("the I/O fault schedule never fired")
	}
	if metaInj.Total() == 0 {
		t.Fatal("the catalog fault schedule never fired")
	}
	if got := reg.Counter(server.MetricClientRetries).Value(); got == 0 {
		t.Fatal("client_retries = 0, want > 0 under the storm")
	}
	t.Logf("io faults=%v meta faults=%v retries=%d", inj.Counts(), metaInj.Counts(),
		reg.Counter(server.MetricClientRetries).Value())
}

// TestChaosSweep re-runs the sequential workload across many seeds.
// Gated on DPFS_CHAOS_SWEEP (a seed count) because each seed is a full
// cluster launch; `make chaos` runs it at 25.
func TestChaosSweep(t *testing.T) {
	nStr := os.Getenv("DPFS_CHAOS_SWEEP")
	if nStr == "" {
		t.Skip("set DPFS_CHAOS_SWEEP=<seeds> to sweep")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil {
		t.Fatalf("DPFS_CHAOS_SWEEP=%q: %v", nStr, err)
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := fault.New(seed, chaosRules()...)
			c := startChaosCluster(t, 4, inj)
			runChaosWorkload(t, c, inj, 4, seed%2 == 0, seed%3 != 0)
		})
		t.Run(fmt.Sprintf("seed%d-replica", seed), func(t *testing.T) {
			inj := fault.New(seed+1000, chaosRules()...)
			c := startChaosCluster(t, 4, inj)
			runReplicaChaosWorkload(t, c, inj, 4, seed%2 == 0, seed%3 == 0)
		})
		t.Run(fmt.Sprintf("seed%d-metashard", seed), func(t *testing.T) {
			inj := fault.New(seed+2000, chaosRules()...)
			metaInj := fault.New(seed+3000, metaChaosRules()...)
			c := startChaosCluster(t, 4, inj)
			runMetaShardChaosWorkload(t, c, inj, metaInj, 4)
		})
		t.Run(fmt.Sprintf("seed%d-metarepl", seed), func(t *testing.T) {
			inj := fault.New(seed+4000, chaosRules()...)
			metaInj := fault.New(seed+5000, metaChaosRules()...)
			c := startMetaReplChaosCluster(t, 4, inj)
			runMetaReplChaosWorkload(t, c, inj, metaInj, 4)
		})
		t.Run(fmt.Sprintf("seed%d-gossip", seed), func(t *testing.T) {
			inj := fault.New(seed+6000, chaosRules()...)
			c := startGossipChaosCluster(t, 4, inj, seed+7000, obs.NewEventLog(256))
			runGossipChaosWorkload(t, c, inj, 4, seed%2 == 0, seed%3 == 0)
		})
	}
}
