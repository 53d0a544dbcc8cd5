package dpfs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/metadb"
	"dpfs/internal/metarepl"
	"dpfs/internal/obs"
)

// TestMetaReplFailoverSimulation is the deterministic primary-kill
// harness for the replicated catalog (DESIGN.md §13): one catalog as a
// 3-way replica group serves a seeded concurrent create/write/read
// workload while its current primary is killed mid-run, once per
// phase. Clients ride through the failovers (their group connections
// chase the primary by redirect), and at the end the test asserts the
// properties replication must keep:
//
//   - zero lost acknowledged mutations — every file whose create was
//     acknowledged reads back byte-identical through a fresh client,
//     opened by dpfs.Connect on the group's comma-separated replica
//     list;
//   - replica convergence — all three replicas hold byte-identical
//     table contents once shipping settles;
//   - observable failover — metarepl_promotions_total > 0 on the
//     promoted replicas and meta_promotion events served by
//     /debug/events.
func TestMetaReplFailoverSimulation(t *testing.T) {
	const (
		phases    = 2
		replicas  = 3
		np        = 4
		perPhase  = 3 // files per client per phase
		fileBytes = 4096
	)
	events := obs.NewEventLog(512)
	c, err := cluster.Start(cluster.Config{
		Servers:             cluster.Uniform(3),
		Dir:                 t.TempDir(),
		MetaReplicas:        replicas,
		MetaHeartbeat:       10 * time.Millisecond,
		MetaElectionTimeout: 80 * time.Millisecond,
		MetaEvents:          events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	addrs := c.Meta.Addrs()

	clients := make([]*core.FS, np)
	for r := 0; r < np; r++ {
		fs, err := c.NewFS(r, core.Options{Combine: true})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		clients[r] = fs
	}

	path := func(rank, phase, i int) string {
		return fmt.Sprintf("/repl/r%d-ph%d-f%d.dat", rank, phase, i)
	}
	pattern := func(rank, phase, i int) []byte {
		data := make([]byte, fileBytes)
		for j := range data {
			data[j] = byte(j*29 + rank*11 + phase*17 + i*5 + 3)
		}
		return data
	}
	// retry runs op until it succeeds or the deadline passes. Failovers
	// surface as transport errors or aborted transactions that a later
	// attempt (against the newly elected primary) resolves.
	retry := func(what string, op func() error) error {
		var err error
		for attempt := 0; attempt < 2000; attempt++ {
			if err = op(); err == nil {
				return nil
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s: gave up after %v: %w", what, ctx.Err(), err)
			case <-time.After(2 * time.Millisecond):
			}
		}
		return fmt.Errorf("%s: still failing after 2000 attempts: %w", what, err)
	}

	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Mkdir("/repl"); err != nil {
		t.Fatal(err)
	}

	hint := core.Hint{Level: dpfs.Linear, BrickBytes: 1024}
	workload := func(rank, phase int) error {
		for i := 0; i < perPhase; i++ {
			p := path(rank, phase, i)
			data := pattern(rank, phase, i)
			// Create with lost-ack tolerance: a retried create whose
			// earlier attempt committed before the primary died sees
			// "exists" — detect it by opening instead. Once this retry
			// returns nil the create counts as acknowledged and the file
			// must survive every later failover.
			err := retry("create "+p, func() error {
				f, err := clients[rank].Create(p, 1, []int64{fileBytes}, hint)
				if err != nil {
					if f2, err2 := clients[rank].Open(p); err2 == nil {
						f2.Close()
						return nil
					}
					return err
				}
				return f.Close()
			})
			if err != nil {
				return err
			}
			err = retry("write "+p, func() error {
				f, err := clients[rank].Open(p)
				if err != nil {
					return err
				}
				defer f.Close()
				return f.WriteSection(ctx, dpfs.FullSection([]int64{fileBytes}), data)
			})
			if err != nil {
				return err
			}
			err = retry("read "+p, func() error {
				f, err := clients[rank].Open(p)
				if err != nil {
					return err
				}
				defer f.Close()
				buf := make([]byte, fileBytes)
				if err := f.ReadSection(ctx, dpfs.FullSection([]int64{fileBytes}), buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, data) {
					return fmt.Errorf("read %s: bytes differ", p)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	waitPrimary := func() int {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if p := c.MetaPrimary(); p >= 0 {
				return p
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("the catalog group never elected a primary")
		return -1
	}
	// waitConverged waits until every replica is up and has applied
	// everything the primary committed, and returns the primary and the
	// replicas' databases.
	waitConverged := func() (int, []*metadb.DB) {
		p := waitPrimary()
		dbs := make([]*metadb.DB, replicas)
		for j := 0; j < replicas; j++ {
			dbs[j] = c.Meta.DB(j)
			if dbs[j] == nil {
				t.Fatalf("replica %d still down", j)
			}
		}
		wantSeq, _ := dbs[p].ReplState()
		for j := 0; j < replicas; j++ {
			deadline := time.Now().Add(10 * time.Second)
			for {
				seq, _ := dbs[j].ReplState()
				if seq >= wantSeq {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica %d stuck at seq %d, want %d", j, seq, wantSeq)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		return p, dbs
	}

	// Every phase launches the concurrent workload, kills the group's
	// current primary mid-run, lets the survivors elect and the clients
	// chase the new primary, then brings the killed replica back as a
	// follower and lets it catch up before the next phase, so each kill
	// hits a whole group.
	for phase := 0; phase < phases; phase++ {
		var wg sync.WaitGroup
		errs := make(chan error, np)
		for r := 0; r < np; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if err := workload(rank, phase); err != nil {
					errs <- err
				}
			}(r)
		}
		time.Sleep(20 * time.Millisecond) // let the workload hit the primary
		p := waitPrimary()
		if err := c.KillMetaReplica(p); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("phase %d: %v", phase, err)
		}
		// The survivors must have elected a different primary.
		if cur := waitPrimary(); cur == p {
			t.Fatalf("phase %d: killed primary %d still leads", phase, p)
		}
		if err := c.RestartMetaReplica(p); err != nil {
			t.Fatal(err)
		}
		waitConverged()
	}

	// Full sweep through a fresh public client on the group's replica
	// list: every acknowledged create of every phase must read back
	// byte-identical — zero lost mutations.
	fresh, err := dpfs.Connect(strings.Join(addrs, ","), np, dpfs.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for rank := 0; rank < np; rank++ {
		for phase := 0; phase < phases; phase++ {
			for i := 0; i < perPhase; i++ {
				p := path(rank, phase, i)
				f, err := fresh.Open(p)
				if err != nil {
					t.Fatalf("open %s: acknowledged create lost: %v", p, err)
				}
				buf := make([]byte, fileBytes)
				err = f.ReadSection(ctx, dpfs.FullSection([]int64{fileBytes}), buf)
				f.Close()
				if err != nil {
					t.Fatalf("read %s: %v", p, err)
				}
				if !bytes.Equal(buf, pattern(rank, phase, i)) {
					t.Fatalf("%s: contents differ from the written pattern", p)
				}
			}
		}
	}

	// Replica convergence: wait for shipping to settle, then require all
	// three replicas to agree byte-for-byte, table by table. The
	// restarted ex-primaries resynced by snapshot (their in-memory state
	// died with them), so this also proves resync.
	p, dbs := waitConverged()
	for _, table := range dbs[p].TableNames() {
		want, err := dbs[p].Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < replicas; j++ {
			if j == p {
				continue
			}
			got, err := dbs[j].Exec("SELECT * FROM " + table)
			if err != nil {
				t.Fatalf("replica %d table %s: %v", j, table, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("replica %d table %s diverged from primary %d", j, table, p)
			}
		}
	}

	// Observable failover: the promoted replicas counted themselves...
	promotions := int64(0)
	for j := range replicas {
		if rep := c.Meta.Replica(j); rep != nil {
			promotions += rep.Metrics().Counter(metarepl.MetricPromotions).Value()
		}
	}
	if promotions == 0 {
		t.Fatal("metarepl_promotions_total is 0 after two primary kills")
	}
	// ...and narrated the elections into the shared event log, queryable
	// through /debug/events like an operator would during an incident.
	if got := events.ByType(obs.EventMetaPromotion); len(got) == 0 {
		t.Fatalf("no %q events recorded; log:\n%v", obs.EventMetaPromotion, events.Events())
	}
	h := obs.NewHandler(obs.HandlerConfig{Events: events})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/events?type=" + obs.EventMetaPromotion)
	if err != nil {
		t.Fatal(err)
	}
	var got []obs.Event
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/events: bad JSON: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("/debug/events returned no meta_promotion events")
	}
	for _, e := range got {
		if e.Type != obs.EventMetaPromotion {
			t.Fatalf("/debug/events?type=%s returned %+v", obs.EventMetaPromotion, e)
		}
	}
}
