package meta

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
)

// A lookup racing with remove + re-create of its path must return
// either "no such file" or the attributes, distribution and generation
// of one incarnation. The two incarnations here alternate between tile
// shapes with the same brick count — the case where a lookup stitched
// from two catalog states goes unnoticed downstream — and the shape is
// a function of the generation, so every record can be checked on its
// own.
func TestLookupNeverTorn(t *testing.T) {
	db := metadb.Memory()
	srv, err := mdbnet.Listen(db, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		db.Close()
	}()
	connect := func() *Catalog {
		cli, err := mdbnet.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return NewCatalog(cli)
	}
	writer, reader := connect(), connect()
	if err := writer.Init(); err != nil {
		t.Fatal(err)
	}
	shapes := [2][]int64{{256, 256}, {128, 512}}
	const path = "/f"
	create := func() error {
		gen, err := writer.NextGeneration(path)
		if err != nil {
			return err
		}
		fi := testFileInfo(path)
		fi.Generation = gen
		fi.Geometry.Tile = shapes[gen%2]
		return createFile(writer, fi, stripe4(fi))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 400; i++ {
			if err := create(); err != nil {
				t.Error(err)
				return
			}
			if _, err := writer.RemoveFile(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	found := 0
	for {
		select {
		case <-done:
			t.Logf("%d lookups found the file", found)
			return
		default:
		}
		fi, rs, err := reader.LookupReplicated(path)
		if err != nil {
			if !strings.Contains(err.Error(), "no such file") {
				t.Fatalf("lookup: %v", err)
			}
			continue
		}
		found++
		if want := shapes[fi.Generation%2]; !reflect.DeepEqual(fi.Geometry.Tile, want) {
			t.Fatalf("generation %d carries tile %v, want %v: attributes and distribution of different incarnations",
				fi.Generation, fi.Geometry.Tile, want)
		}
		if got, want := len(rs.Servers), fi.Geometry.NumBricks(); got != want {
			t.Fatalf("generation %d: layout of %d bricks for a geometry of %d", fi.Generation, got, want)
		}
	}
}
