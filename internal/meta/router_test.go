package meta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
)

// routerOp is one randomized catalog operation: it runs against a
// catalog and returns a comparable result (any shape) plus the error.
type routerOp struct {
	name string
	run  func(r *Catalog) (any, error)
}

// genRouterOp draws one operation from a small path/server vocabulary.
// The pool mixes valid and invalid paths so error paths are exercised
// too.
func genRouterOp(rng *rand.Rand) routerOp {
	dirs := []string{"/d1", "/d2", "/d1/sub", "/missing"}
	files := []string{"/a.dat", "/b.dat", "/d1/c.dat", "/d1/sub/d.dat", "/d2/e.dat", "/missing/f.dat"}
	servers := []string{"io0", "io1", "io2"}
	states := []string{StateAlive, StateSuspect, StateDead}
	dir := func() string { return dirs[rng.Intn(len(dirs))] }
	file := func() string { return files[rng.Intn(len(files))] }
	srv := func() string { return servers[rng.Intn(len(servers))] }

	ops := []func() routerOp{
		func() routerOp {
			p := dir()
			return routerOp{"mkdir " + p, func(r *Catalog) (any, error) { return nil, r.Mkdir(p) }}
		},
		func() routerOp {
			p := dir()
			return routerOp{"rmdir " + p, func(r *Catalog) (any, error) { return nil, r.Rmdir(p) }}
		},
		func() routerOp {
			p := dir()
			return routerOp{"readdir " + p, func(r *Catalog) (any, error) {
				ds, fs, err := r.ReadDir(p)
				return [2][]string{ds, fs}, err
			}}
		},
		func() routerOp {
			p := dir()
			return routerOp{"isdir " + p, func(r *Catalog) (any, error) { return r.IsDir(p) }}
		},
		func() routerOp {
			p := file()
			fi := testFileInfo(p)
			fi.Servers = []string{"io0", "io1"}
			assign := [][]int{{0, 1}, {1, 0}, {0}, {1}}
			return routerOp{"create " + p, func(r *Catalog) (any, error) {
				return nil, r.CreateReplicated(fi, assign)
			}}
		},
		func() routerOp {
			p := file()
			return routerOp{"lookup " + p, func(r *Catalog) (any, error) {
				fi, rs, err := r.LookupReplicated(p)
				return []any{fi, rs}, err
			}}
		},
		func() routerOp {
			p := file()
			return routerOp{"stat " + p, func(r *Catalog) (any, error) { return r.Stat(p) }}
		},
		func() routerOp {
			return routerOp{"files", func(r *Catalog) (any, error) { return r.Files() }}
		},
		func() routerOp {
			p := file()
			return routerOp{"remove " + p, func(r *Catalog) (any, error) { return r.RemoveFile(p) }}
		},
		func() routerOp {
			o, n := file(), file()
			return routerOp{fmt.Sprintf("rename %s %s", o, n), func(r *Catalog) (any, error) {
				srvs, gen, err := r.RenameFile(o, n)
				return []any{srvs, gen}, err
			}}
		},
		func() routerOp {
			p := file()
			return routerOp{"nextgen " + p, func(r *Catalog) (any, error) { return r.NextGeneration(p) }}
		},
		func() routerOp {
			p, sz := file(), rng.Int63n(1<<20)
			return routerOp{"setsize " + p, func(r *Catalog) (any, error) { return nil, r.SetSize(p, sz) }}
		},
		func() routerOp {
			p, perm := file(), rng.Intn(0o1000)
			return routerOp{"setperm " + p, func(r *Catalog) (any, error) { return nil, r.SetPerm(p, perm) }}
		},
		func() routerOp {
			p := file()
			return routerOp{"setowner " + p, func(r *Catalog) (any, error) { return nil, r.SetOwner(p, "u2") }}
		},
		func() routerOp {
			s := srv()
			si := ServerInfo{Name: s, Capacity: 1 << 30, Performance: 1 + rng.Intn(3), Addr: s + ":1"}
			return routerOp{"register " + s, func(r *Catalog) (any, error) { return nil, r.RegisterServer(si) }}
		},
		func() routerOp {
			s := srv()
			return routerOp{"rmserver " + s, func(r *Catalog) (any, error) { return nil, r.RemoveServer(s) }}
		},
		func() routerOp {
			return routerOp{"servers", func(r *Catalog) (any, error) { return r.Servers() }}
		},
		func() routerOp {
			s := srv()
			return routerOp{"failure " + s, func(r *Catalog) (any, error) { return nil, r.ReportServerFailure(s) }}
		},
		func() routerOp {
			s := srv()
			return routerOp{"ok " + s, func(r *Catalog) (any, error) { return nil, r.ReportServerOK(s) }}
		},
		func() routerOp {
			s, st := srv(), states[rng.Intn(len(states))]
			return routerOp{"setstate " + s, func(r *Catalog) (any, error) { return nil, r.SetServerState(s, st) }}
		},
		func() routerOp {
			return routerOp{"health", func(r *Catalog) (any, error) { return r.ServerHealth() }}
		},
		func() routerOp {
			return routerOp{"usage", func(r *Catalog) (any, error) { return r.Usage() }}
		},
		func() routerOp {
			return routerOp{"usedbytes", func(r *Catalog) (any, error) { return r.UsedBytes() }}
		},
		func() routerOp {
			s := srv()
			return routerOp{"filesonserver " + s, func(r *Catalog) (any, error) { return r.FilesOnServer(s) }}
		},
	}
	return ops[rng.Intn(len(ops))]()
}

// TestRouterSingleShardEquivalence is the quickcheck of the catalog's
// two transports: a catalog over an in-process session and one served
// over mdbnet must give the same results and the same errors for every
// engine-visible operation, across 500 seeded random sequences.
func TestRouterSingleShardEquivalence(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))

		dbA := metadb.Memory()
		local := NewCatalog(dbA.Session())
		remote, closeRemote := serveCatalog(t)
		if err := local.Init(); err != nil {
			t.Fatal(err)
		}
		if err := remote.Init(); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 30; i++ {
			op := genRouterOp(rng)
			wantRes, wantErr := op.run(local)
			gotRes, gotErr := op.run(remote)
			if errString(wantErr) != errString(gotErr) {
				t.Fatalf("seed %d op %d %s: local err %v, remote err %v", seed, i, op.name, wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("seed %d op %d %s:\nlocal  %#v\nremote %#v", seed, i, op.name, wantRes, gotRes)
			}
		}
		closeRemote()
		dbA.Close()
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// serveCatalog starts an in-memory database behind an mdbnet server and
// returns a catalog dialled to it, plus a func that tears all of it
// down.
func serveCatalog(t *testing.T) (*Catalog, func()) {
	t.Helper()
	db := metadb.Memory()
	srv, err := mdbnet.Listen(db, "")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := mdbnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return NewCatalog(cli), func() {
		cli.Close()
		srv.Close()
		db.Close()
	}
}

// TestRouterShardFailureIsolation hammers one networked catalog from
// two goroutines while its server is killed and restarted on the same
// address: errors are expected mid-outage, but afterwards the lazily
// redialling client must answer again, and the generations it hands
// out must still only grow. Run under -race this also shakes out data
// races between the redialling client and concurrent users.
func TestRouterShardFailureIsolation(t *testing.T) {
	db := metadb.Memory()
	t.Cleanup(func() { db.Close() })
	srv, err := mdbnet.Listen(db, "")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := mdbnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cat := NewCatalog(cli)
	if err := cat.Init(); err != nil {
		t.Fatal(err)
	}
	before, err := cat.NextGeneration("/iso.dat")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, _ = cat.NextGeneration("/iso.dat")
			}
		}()
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the hammers run against the dead server
	srv, err = mdbnet.Listen(db, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wg.Wait()

	// Retry: the first call after the restart can still consume a conn
	// broken mid-outage.
	var (
		after   int64
		lastErr error
	)
	for i := 0; i < 50; i++ {
		if after, lastErr = cat.NextGeneration("/iso.dat"); lastErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("catalog never answered after its server restarted: %v", lastErr)
	}
	if after <= before {
		t.Fatalf("generation %d after the restart, want > %d", after, before)
	}
}

// TestCrossShardRenameTypedError renames /cross/a0.dat to
// /cross/b0.dat, the pair that hashed to different catalog shards when
// the catalog could be split by path: with one catalog it is an
// ordinary rename that keeps the file's servers and generation.
func TestCrossShardRenameTypedError(t *testing.T) {
	c := newCatalog(t)
	if err := c.Mkdir("/cross"); err != nil {
		t.Fatal(err)
	}
	const oldPath, newPath = "/cross/a0.dat", "/cross/b0.dat"
	fi := testFileInfo(oldPath)
	fi.Generation = 7
	if err := createFile(c, fi, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	servers, gen, err := c.RenameFile(oldPath, newPath)
	if err != nil {
		t.Fatalf("rename %s -> %s: %v", oldPath, newPath, err)
	}
	if !reflect.DeepEqual(servers, fi.Servers) || gen != fi.Generation {
		t.Fatalf("rename returned servers %v gen %d, want %v gen %d", servers, gen, fi.Servers, fi.Generation)
	}
	if _, err := c.Stat(oldPath); err == nil {
		t.Fatalf("%s still exists after the rename", oldPath)
	}
	got, err := c.Stat(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != fi.Size || got.Owner != fi.Owner {
		t.Fatalf("renamed file is %+v, want size %d owner %s", got, fi.Size, fi.Owner)
	}
	_, files, err := c.ReadDir("/cross")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(files, []string{"b0.dat"}) {
		t.Fatalf("/cross lists %v, want [b0.dat]", files)
	}
}
