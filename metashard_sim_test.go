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
)

// TestMetaShardSimulation is the deterministic catalog-outage harness:
// an in-process cluster serves a seeded concurrent create/write/read
// workload while its one catalog server is killed and restarted in
// every phase. Clients retry through the outages (their catalog
// connections redial lazily), and at the end the test asserts the two
// properties the catalog must keep: every file reads back
// byte-identical to the deterministic pattern its writer produced, and
// the catalog lists exactly the files created, none lost and none
// doubled by a retried create.
func TestMetaShardSimulation(t *testing.T) {
	const (
		phases    = 3
		np        = 4
		perPhase  = 3 // files per client per phase
		fileBytes = 4096
	)
	c, err := cluster.Start(cluster.Config{
		Servers: cluster.Uniform(3),
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

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
		return fmt.Sprintf("/sim/r%d-ph%d-f%d.dat", rank, phase, i)
	}
	pattern := func(rank, phase, i int) []byte {
		data := make([]byte, fileBytes)
		for j := range data {
			data[j] = byte(j*31 + rank*7 + phase*13 + i*3 + 1)
		}
		return data
	}
	// retry runs op until it succeeds or the deadline passes; outages
	// surface as transport errors that a later attempt (against the
	// restarted catalog) resolves.
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

	// The directory is made once up front so phase workloads only
	// exercise file ops.
	cat, err := c.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Mkdir("/sim"); err != nil {
		t.Fatal(err)
	}

	hint := core.Hint{Level: dpfs.Linear, BrickBytes: 1024}
	workload := func(rank, phase int) error {
		for i := 0; i < perPhase; i++ {
			p := path(rank, phase, i)
			data := pattern(rank, phase, i)
			// Create with lost-ack tolerance: a retried create whose
			// earlier attempt committed before the catalog died sees
			// "exists" — detect it by opening instead.
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
			// Writes are idempotent (same bytes, same extent), so a
			// mid-write catalog outage is retried whole.
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
			// Read back immediately through the same catalog connection.
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

	// Every phase kills the catalog, runs the concurrent phase workload
	// against it, restarts it while clients are still retrying, and
	// waits for every client to finish.
	for phase := 0; phase < phases; phase++ {
		if err := c.StopMeta(); err != nil {
			t.Fatal(err)
		}
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
		time.Sleep(30 * time.Millisecond) // let clients hit the dead catalog
		if err := c.RestartMeta(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("phase %d: %v", phase, err)
		}
	}

	// Full sweep through a fresh client: every file of every phase
	// must read back byte-identical.
	fresh, err := c.NewFS(np, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	created := make(map[string]bool)
	for rank := 0; rank < np; rank++ {
		for phase := 0; phase < phases; phase++ {
			for i := 0; i < perPhase; i++ {
				p := path(rank, phase, i)
				created[p] = true
				f, err := fresh.Open(p)
				if err != nil {
					t.Fatalf("open %s: %v", p, err)
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

	// Catalog audit: the catalog lists exactly the created files.
	files, err := fresh.Catalog().Files()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(created) {
		t.Fatalf("catalog lists %d files, %d were created: %v", len(files), len(created), files)
	}
	for _, p := range files {
		if !created[p] {
			t.Errorf("catalog lists %s, which no client created", p)
		}
	}
}
