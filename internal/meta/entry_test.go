package meta

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpfs/internal/metadb"
)

// TestDirectorySizeCostsNoWAL fills one directory of a durable catalog
// with 1k entries and another with 16k, then creates and removes one
// file in each: the WAL bytes of each pair are equal, because each op
// writes its own entry row and no list of its siblings. The names are
// one length, and both directories live in one catalog, so row ids and
// log positions take as many bytes in either.
func TestDirectorySizeCostsNoWAL(t *testing.T) {
	db, err := metadb.Open(metadb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := NewCatalog(db.Session())
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	fi := testFileInfo("")
	fi.Servers = fi.Servers[:1]
	assign := make([]int, fi.Geometry.NumBricks())
	dirs := map[string]int{"/a": 1 << 10, "/b": 1 << 14}
	for dir, n := range dirs {
		if err := c.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fi.Path = fmt.Sprintf("%s/f%05d", dir, i)
			if err := createFile(c, fi, assign); err != nil {
				t.Fatal(err)
			}
		}
	}
	walBytes := func() int64 { return db.Metrics().Counter(metadb.MetricWALBytes).Value() }
	create, remove := map[string]int64{}, map[string]int64{}
	for dir := range dirs {
		fi.Path = dir + "/new00"
		before := walBytes()
		if err := createFile(c, fi, assign); err != nil {
			t.Fatal(err)
		}
		mid := walBytes()
		if _, err := c.RemoveFile(fi.Path); err != nil {
			t.Fatal(err)
		}
		create[dir], remove[dir] = mid-before, walBytes()-mid
	}
	t.Logf("WAL bytes per create %v, per remove %v", create, remove)
	if create["/a"] != create["/b"] || remove["/a"] != remove["/b"] {
		t.Fatal("WAL bytes differ between a directory of 1k entries and one of 16k")
	}
}

// TestInitConvertsDirLists opens a copy of a catalog whose directories
// are comma-joined lists (metadb's testdata/parent): Init gives every
// name its entry, also when two run at once, a further Init writes
// nothing, and the namespace works on the converted catalog.
func TestInitConvertsDirLists(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot", "wal"} {
		b, err := os.ReadFile(filepath.Join("..", "metadb", "testdata", "parent", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := metadb.Open(metadb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Two sessions convert at once: one does it, the other finds the
	// lists gone.
	c := NewCatalog(db.Session())
	errs := make(chan error, 2)
	for _, cat := range []*Catalog{c, NewCatalog(db.Session())} {
		go func() { errs <- cat.Init() }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	listing := func(path string) string {
		t.Helper()
		dirs, files, err := c.ReadDir(path)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", path, err)
		}
		return fmt.Sprint(dirs, files)
	}
	// As tables.golden's lists say.
	for path, want := range map[string]string{"/": "[d] []", "/d": "[sub] [e f]", "/d/sub": "[] [a2 c]"} {
		if got := listing(path); got != want {
			t.Errorf("ReadDir(%s) = %s, want %s", path, got, want)
		}
	}

	rows, wal := dumpTables(t, db), db.Metrics().Counter(metadb.MetricWALBytes).Value()
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if got := dumpTables(t, db); !reflect.DeepEqual(got, rows) {
		t.Errorf("a second Init changed the tables:\n%v\nwant\n%v", got, rows)
	}
	if got := db.Metrics().Counter(metadb.MetricWALBytes).Value(); got != wal {
		t.Errorf("a second Init wrote %d WAL bytes", got-wal)
	}

	fi := testFileInfo("/d/sub/g")
	fi.Servers = []string{"s0", "s1"}
	if err := createFile(c, fi, stripe4(fi)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveFile("/d/e"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RenameFile("/d/sub/a2", "/d/a3"); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/d": "[sub] [a3 f]", "/d/sub": "[] [c g]"} {
		if got := listing(path); got != want {
			t.Errorf("after create, remove and rename: ReadDir(%s) = %s, want %s", path, got, want)
		}
	}
}
