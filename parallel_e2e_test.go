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
)

// TestParallelDispatchE2E drives the public API with the default,
// overlapped dispatch: several clients connect through the network metadata server
// and hammer their own files concurrently; every roundtrip must be
// byte-exact. Run under -race this covers the full stack — public
// wrapper, engine fan-out, muxed wire clients, servers.
func TestParallelDispatchE2E(t *testing.T) {
	const np = 4
	const size = 16 * 4096
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	clients := make([]*dpfs.Client, np)
	for r := 0; r < np; r++ {
		clients[r], err = dpfs.Connect(c.MetaSrv.Addr(), r, dpfs.Options{
			Combine: true, Stagger: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[r].Close()
	}

	var wg sync.WaitGroup
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := clients[r].Create(fmt.Sprintf("/e2e-par-%d", r), 1, []int64{size},
				dpfs.Hint{Level: dpfs.Linear, BrickBytes: 4096})
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i*13 + r)
			}
			for round := 0; round < 3; round++ {
				if err := f.WriteAt(ctx, data, 0); err != nil {
					errs <- err
					return
				}
				got := make([]byte, size)
				if err := f.ReadAt(ctx, got, 0); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("client %d round %d: roundtrip mismatch", r, round)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
