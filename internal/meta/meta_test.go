package meta

import (
	"fmt"
	"strings"
	"testing"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/stripe"
)

func newCatalog(t *testing.T) *Catalog {
	t.Helper()
	db := metadb.Memory()
	t.Cleanup(func() { db.Close() })
	c := NewCatalog(db.Session())
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	return c
}

// newRemoteCatalog runs the catalog through the network stack, the way
// the paper's clients reach POSTGRES.
func newRemoteCatalog(t *testing.T) *Catalog {
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
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		db.Close()
	})
	c := NewCatalog(cli)
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	return c
}

// createFile records fi as an unreplicated file; assign maps brick id
// to an index into fi.Servers.
func createFile(c Router, fi FileInfo, assign []int) error {
	rep := make([][]int, len(assign))
	for b, s := range assign {
		rep[b] = []int{s}
	}
	fi.Replicas = 1
	return c.CreateReplicated(fi, rep)
}

// lookupFile loads a file and the brick → server assignment of its
// rank-0 replicas.
func lookupFile(c Router, path string) (FileInfo, []int, error) {
	fi, rs, err := c.LookupReplicated(path)
	if err != nil {
		return FileInfo{}, nil, err
	}
	return fi, rs.Primary(), nil
}

func testFileInfo(path string) FileInfo {
	return FileInfo{
		Path:  path,
		Owner: "xhshen",
		Perm:  0o744,
		Size:  2097152,
		Geometry: stripe.Geometry{
			Level:    stripe.LevelMultidim,
			ElemSize: 8,
			Dims:     []int64{512, 512},
			Tile:     []int64{256, 256},
		},
		Placement: "greedy",
		Servers:   []string{"ccn0.mcs.anl.gov", "aruba.ece.nwu.edu", "ccn1.mcs.anl.gov", "moorea.ece.nwu.edu"},
	}
}

func TestInitIdempotent(t *testing.T) {
	c := newCatalog(t)
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
}

func TestServerRegistry(t *testing.T) {
	c := newCatalog(t)
	servers := []ServerInfo{
		{Name: "ccn0.mcs.anl.gov", Capacity: 500 << 20, Performance: 1, Addr: "127.0.0.1:7001"},
		{Name: "aruba.ece.nwu.edu", Capacity: 300 << 20, Performance: 3, Addr: "127.0.0.1:7002"},
	}
	for _, s := range servers {
		if err := c.RegisterServer(s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Servers()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("servers = %v", got)
	}
	if got[0].Name != "aruba.ece.nwu.edu" || got[0].Performance != 3 {
		t.Fatalf("server[0] = %+v", got[0])
	}

	// Re-register updates in place.
	servers[1].Performance = 2
	if err := c.RegisterServer(servers[1]); err != nil {
		t.Fatal(err)
	}
	one, err := c.Server("aruba.ece.nwu.edu")
	if err != nil {
		t.Fatal(err)
	}
	if one.Performance != 2 {
		t.Fatalf("update lost: %+v", one)
	}

	if err := c.RemoveServer("aruba.ece.nwu.edu"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveServer("aruba.ece.nwu.edu"); err == nil {
		t.Fatal("double remove should fail")
	}
	if _, err := c.Server("aruba.ece.nwu.edu"); err == nil {
		t.Fatal("removed server still present")
	}

	if err := c.RegisterServer(ServerInfo{Name: "bad", Performance: 0}); err == nil {
		t.Fatal("performance 0 should fail")
	}
	if err := c.RegisterServer(ServerInfo{Name: "a,b", Performance: 1}); err == nil {
		t.Fatal("comma in name should fail")
	}
}

func TestDirectories(t *testing.T) {
	c := newCatalog(t)
	if err := c.Mkdir("/home"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/home/xhshen"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/tmp"); err != nil {
		t.Fatal(err)
	}
	dirs, files, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dirs) != "[home tmp]" || len(files) != 0 {
		t.Fatalf("root = %v %v", dirs, files)
	}
	ok, err := c.IsDir("/home/xhshen")
	if err != nil || !ok {
		t.Fatalf("IsDir = %v %v", ok, err)
	}
	ok, _ = c.IsDir("/nope")
	if ok {
		t.Fatal("missing dir reported present")
	}

	// Errors.
	if err := c.Mkdir("/home"); err == nil {
		t.Fatal("duplicate mkdir should fail")
	}
	if err := c.Mkdir("/missing/sub"); err == nil {
		t.Fatal("mkdir without parent should fail")
	}
	if err := c.Mkdir("/"); err == nil {
		t.Fatal("mkdir / should fail")
	}
	if err := c.Rmdir("/home"); err == nil {
		t.Fatal("rmdir non-empty should fail")
	}
	if err := c.Rmdir("/"); err == nil {
		t.Fatal("rmdir / should fail")
	}
	if err := c.Rmdir("/home/xhshen"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/home"); err != nil {
		t.Fatal(err)
	}
	dirs, _, _ = c.ReadDir("/")
	if fmt.Sprint(dirs) != "[tmp]" {
		t.Fatalf("after rmdir: %v", dirs)
	}
	if _, _, err := c.ReadDir("/home"); err == nil {
		t.Fatal("removed dir still readable")
	}
}

// TestCatalogFigure10 mirrors the contents of Fig. 10: the greedy
// distribution of /home/xhshen/dpfs.test over four servers with
// bricklists 0,2,6,8,... / 4,10,16,22,28 / 1,3,7,9,... / 5,11,17,23,29
// stored and recovered through the SQL tables.
func TestCatalogFigure10(t *testing.T) {
	for _, remote := range []bool{false, true} {
		name := "embedded"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) {
			var c *Catalog
			if remote {
				c = newRemoteCatalog(t)
			} else {
				c = newCatalog(t)
			}
			if err := c.Mkdir("/home"); err != nil {
				t.Fatal(err)
			}
			if err := c.Mkdir("/home/xhshen"); err != nil {
				t.Fatal(err)
			}
			fi := testFileInfo("/home/xhshen/dpfs.test")
			// 32 bricks placed by the greedy algorithm with perf
			// [1,2,1,2] reproduce Fig. 9/10.
			assign, err := stripe.Greedy{Perf: []int{1, 2, 1, 2}}.Assign(32, 4)
			if err != nil {
				t.Fatal(err)
			}
			// Shrink the geometry so NumBricks()==32: 512/256 * 512/256
			// = 4 bricks; use tile 64x64 over 512x512 = 64... use dims
			// 1024x512 tile 128x128 = 8x4 = 32 bricks.
			fi.Geometry.Dims = []int64{1024, 512}
			fi.Geometry.Tile = []int64{128, 128}
			if fi.Geometry.NumBricks() != 32 {
				t.Fatalf("geometry has %d bricks", fi.Geometry.NumBricks())
			}
			if err := createFile(c, fi, assign); err != nil {
				t.Fatal(err)
			}

			got, gotAssign, err := lookupFile(c, "/home/xhshen/dpfs.test")
			if err != nil {
				t.Fatal(err)
			}
			if got.Owner != "xhshen" || got.Perm != 0o744 || got.Size != 2097152 {
				t.Fatalf("attrs = %+v", got)
			}
			if got.Geometry.Level != stripe.LevelMultidim {
				t.Fatalf("level = %v", got.Geometry.Level)
			}
			if fmt.Sprint(got.Geometry.Dims) != "[1024 512]" || fmt.Sprint(got.Geometry.Tile) != "[128 128]" {
				t.Fatalf("geometry = %+v", got.Geometry)
			}
			for b := range assign {
				if assign[b] != gotAssign[b] {
					t.Fatalf("brick %d: assignment %d != %d", b, gotAssign[b], assign[b])
				}
			}
			lists := stripe.BrickLists(gotAssign, 4)
			if fmt.Sprint(lists[0]) != "[0 2 6 8 12 14 18 20 24 26 30]" {
				t.Fatalf("server 0 bricklist = %v", lists[0])
			}
			if fmt.Sprint(lists[1]) != "[4 10 16 22 28]" {
				t.Fatalf("server 1 bricklist = %v", lists[1])
			}

			// File shows up in its directory.
			_, files, err := c.ReadDir("/home/xhshen")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(files) != "[dpfs.test]" {
				t.Fatalf("files = %v", files)
			}
		})
	}
}

func TestCreateFileErrors(t *testing.T) {
	c := newCatalog(t)
	fi := testFileInfo("/f")
	assign, _ := stripe.RoundRobin{}.Assign(fi.Geometry.NumBricks(), len(fi.Servers))

	if err := createFile(c, fi, assign); err != nil {
		t.Fatal(err)
	}
	if err := createFile(c, fi, assign); err == nil {
		t.Fatal("duplicate create should fail")
	}
	bad := fi
	bad.Path = "/missing/f"
	if err := createFile(c, bad, assign); err == nil {
		t.Fatal("create in missing dir should fail")
	}
	bad = fi
	bad.Path = "relative"
	if err := createFile(c, bad, assign); err == nil {
		t.Fatal("relative path should fail")
	}
	bad = fi
	bad.Path = "/g"
	bad.Servers = nil
	if err := createFile(c, bad, assign); err == nil {
		t.Fatal("no servers should fail")
	}
	bad = fi
	bad.Path = "/g"
	bad.Geometry.Tile = nil
	if err := createFile(c, bad, assign); err == nil {
		t.Fatal("invalid geometry should fail")
	}

	// A failed create must leave no residue (transaction rollback).
	if _, err := c.Stat("/missing/f"); err == nil {
		t.Fatal("failed create left attr row")
	}
	// Creating a file over a directory name fails.
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	bad = fi
	bad.Path = "/d"
	if err := createFile(c, bad, assign); err == nil {
		t.Fatal("file over directory should fail")
	}
}

func TestRemoveFile(t *testing.T) {
	c := newCatalog(t)
	fi := testFileInfo("/f")
	assign, _ := stripe.RoundRobin{}.Assign(fi.Geometry.NumBricks(), len(fi.Servers))
	if err := createFile(c, fi, assign); err != nil {
		t.Fatal(err)
	}
	removed, err := c.RemoveFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(removed.Servers) != 4 || removed.Servers[0] != fi.Servers[0] {
		t.Fatalf("removed servers = %v", removed.Servers)
	}
	if _, err := c.Stat("/f"); err == nil {
		t.Fatal("removed file still stats")
	}
	if _, _, err := lookupFile(c, "/f"); err == nil {
		t.Fatal("removed file still opens")
	}
	_, files, _ := c.ReadDir("/")
	if len(files) != 0 {
		t.Fatalf("directory still lists %v", files)
	}
	if _, err := c.RemoveFile("/f"); err == nil {
		t.Fatal("double remove should fail")
	}
}

func TestSetSize(t *testing.T) {
	c := newCatalog(t)
	fi := testFileInfo("/f")
	assign, _ := stripe.RoundRobin{}.Assign(fi.Geometry.NumBricks(), len(fi.Servers))
	if err := createFile(c, fi, assign); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSize("/f", 12345); err != nil {
		t.Fatal(err)
	}
	got, err := c.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 12345 {
		t.Fatalf("size = %d", got.Size)
	}
	if err := c.SetSize("/missing", 1); err == nil {
		t.Fatal("setsize on missing file should fail")
	}
}

func TestAllLevelsRoundtripThroughCatalog(t *testing.T) {
	c := newCatalog(t)
	geoms := []stripe.Geometry{
		{Level: stripe.LevelLinear, ElemSize: 1, Dims: []int64{1 << 20}, BrickBytes: 1 << 16},
		{Level: stripe.LevelMultidim, ElemSize: 8, Dims: []int64{256, 256}, Tile: []int64{64, 64}},
		{Level: stripe.LevelArray, ElemSize: 4, Dims: []int64{128, 128},
			Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistStar}, Grid: []int64{4, 1}},
	}
	for i, g := range geoms {
		path := fmt.Sprintf("/file%d", i)
		fi := FileInfo{Path: path, Owner: "o", Perm: 0o644, Size: g.Size(), Geometry: g,
			Placement: "round-robin", Servers: []string{"s0", "s1"}}
		assign, err := stripe.RoundRobin{}.Assign(g.NumBricks(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := createFile(c, fi, assign); err != nil {
			t.Fatal(err)
		}
		got, gotAssign, err := lookupFile(c, path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Geometry.Level != g.Level || got.Geometry.Size() != g.Size() {
			t.Fatalf("file %d geometry mismatch: %+v", i, got.Geometry)
		}
		if len(gotAssign) != g.NumBricks() {
			t.Fatalf("file %d assignment length %d", i, len(gotAssign))
		}
		if got.Geometry.Level == stripe.LevelArray {
			if fmt.Sprint(got.Geometry.Pattern) != fmt.Sprint(g.Pattern) {
				t.Fatalf("pattern mismatch: %v", got.Geometry.Pattern)
			}
		}
	}
}

func TestCleanPath(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"/", "/", true},
		{"/a/b", "/a/b", true},
		{"/a//b/", "/a/b", true},
		{"/a/./b", "/a/b", true},
		{"/a/../b", "/b", true},
		{"/../..", "/", true},
		{"relative", "", false},
		{"", "", false},
		{"/a,b", "", false},
		{"/a\nb", "", false},
		{"/a'b", "/a'b", true}, // values travel as arguments; nothing is quoted
	}
	for _, c := range cases {
		got, err := CleanPath(c.in)
		if (err == nil) != c.ok {
			t.Errorf("CleanPath(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("CleanPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	d, n := Split("/a/b/c")
	if d != "/a/b" || n != "c" {
		t.Errorf("Split = %q %q", d, n)
	}
	d, n = Split("/c")
	if d != "/" || n != "c" {
		t.Errorf("Split = %q %q", d, n)
	}
}

func TestDeepDirectoryTree(t *testing.T) {
	c := newCatalog(t)
	path := ""
	for i := 0; i < 8; i++ {
		path = path + fmt.Sprintf("/d%d", i)
		if err := c.Mkdir(path); err != nil {
			t.Fatal(err)
		}
	}
	// Remove bottom-up.
	for i := 7; i >= 0; i-- {
		if err := c.Rmdir(path); err != nil {
			t.Fatal(err)
		}
		path = path[:strings.LastIndexByte(path, '/')]
	}
	dirs, _, _ := c.ReadDir("/")
	if len(dirs) != 0 {
		t.Fatalf("tree not empty: %v", dirs)
	}
}

// TestLookupReplicatedAllocs pins what loading a 128-brick, two-way
// replicated file's layout allocates: the replica set is two flat
// arrays whatever the brick count, and each server's list parses in one
// pass, so the count does not grow by two allocations per brick.
func TestLookupReplicatedAllocs(t *testing.T) {
	c := newCatalog(t)
	fi := testFileInfo("/allocs")
	fi.Geometry.Dims = []int64{512, 1024}
	fi.Geometry.Tile = []int64{64, 64}
	fi.Replicas = 2
	nb := fi.Geometry.NumBricks()
	if nb != 128 {
		t.Fatalf("geometry holds %d bricks, want 128", nb)
	}
	assign := make([][]int, nb)
	for b := range assign {
		assign[b] = []int{b % 4, (b + 1) % 4}
	}
	if err := c.CreateReplicated(fi, assign); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := c.LookupReplicated("/allocs"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LookupReplicated of a %d-brick file: %.0f allocs", nb, allocs)
	if allocs > 100 {
		t.Errorf("LookupReplicated of a %d-brick file allocates %.0f times, want at most 100", nb, allocs)
	}
}
