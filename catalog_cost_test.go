package dpfs_test

import (
	"context"
	"testing"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/stripe"
)

// TestCatalogCostPerOp pins what each namespace operation of a warmed
// engine asks of the catalog, as exact counts: round trips (the catalog
// server's requests_total) and statements executed (the database's
// queries_total). A change that moves a row says so and why; a drift
// nobody chose fails here.
func TestCatalogCostPerOp(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cold, err := c.NewFS(0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cached, err := c.NewFS(1, core.Options{MetaTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	create := func(fs *core.FS, path string) func() error {
		return func() error {
			f, err := fs.Create(path, 8, []int64{64}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 128})
			if err == nil {
				err = f.Close()
			}
			return err
		}
	}
	// Each engine's first create also looks up the servers' addresses,
	// and the cached engine's loads the server list into its cache.
	if err := create(cold, "/warm0")(); err != nil {
		t.Fatal(err)
	}
	if err := create(cached, "/warm1")(); err != nil {
		t.Fatal(err)
	}

	cat := cold.Catalog()
	for _, tc := range []struct {
		name         string
		trips, stmts int64
		op           func() error
	}{
		{"Mkdir", 2, 4, func() error { return cat.Mkdir("/d") }},
		{"Create, server list cold", 5, 13, create(cold, "/d/f")},
		{"Create, server list cached", 4, 12, create(cached, "/d/g")},
		{"ReadDir", 1, 2, func() error { _, _, err := cat.ReadDir("/d"); return err }},
		{"IsDir", 1, 1, func() error { _, err := cat.IsDir("/d"); return err }},
		{"Rename", 2, 8, func() error { return cold.Rename(ctx, "/d/f", "/d/h") }},
		{"Remove", 2, 7, func() error { return cold.Remove(ctx, "/d/h") }},
		{"Remove, second file", 2, 7, func() error { return cold.Remove(ctx, "/d/g") }},
		{"Rmdir", 2, 5, func() error { return cat.Rmdir("/d") }},
	} {
		trips, stmts := catalogCounters(c)
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gotTrips, gotStmts := catalogCounters(c)
		if gotTrips-trips != tc.trips || gotStmts-stmts != tc.stmts {
			t.Errorf("%s: %d round trips and %d statements, want %d and %d",
				tc.name, gotTrips-trips, gotStmts-stmts, tc.trips, tc.stmts)
		}
	}
}

// catalogCounters reads c's catalog round trips and statements so far.
func catalogCounters(c *cluster.Cluster) (trips, stmts int64) {
	return c.MetaSrv.Metrics().Counter(mdbnet.MetricRequests).Value(),
		c.DB.Metrics().Counter(metadb.MetricQueries).Value()
}
