package meta

import (
	"testing"

	"dpfs/internal/stripe"
)

func TestRenameFile(t *testing.T) {
	c := newCatalog(t)
	if err := c.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	fi := testFileInfo("/a/old")
	assign, _ := stripe.RoundRobin{}.Assign(fi.Geometry.NumBricks(), len(fi.Servers))
	if err := createFile(c, fi, assign); err != nil {
		t.Fatal(err)
	}

	servers, _, err := c.RenameFile("/a/old", "/b/new")
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != len(fi.Servers) || servers[0] != fi.Servers[0] {
		t.Fatalf("servers = %v", servers)
	}

	// Old path gone, new path present with identical geometry and
	// assignment.
	if _, err := c.Stat("/a/old"); err == nil {
		t.Fatal("old path still stats")
	}
	got, gotAssign, err := lookupFile(c, "/b/new")
	if err != nil {
		t.Fatal(err)
	}
	if got.Geometry.NumBricks() != fi.Geometry.NumBricks() {
		t.Fatalf("geometry changed: %+v", got.Geometry)
	}
	for i := range assign {
		if gotAssign[i] != assign[i] {
			t.Fatalf("assignment changed at brick %d", i)
		}
	}
	// Directory listings updated on both sides.
	_, files, _ := c.ReadDir("/a")
	if len(files) != 0 {
		t.Fatalf("/a still lists %v", files)
	}
	_, files, _ = c.ReadDir("/b")
	if len(files) != 1 || files[0] != "new" {
		t.Fatalf("/b lists %v", files)
	}

	// Same-directory rename.
	if _, _, err := c.RenameFile("/b/new", "/b/renamed"); err != nil {
		t.Fatal(err)
	}
	_, files, _ = c.ReadDir("/b")
	if len(files) != 1 || files[0] != "renamed" {
		t.Fatalf("/b lists %v", files)
	}

	// Error cases.
	if _, _, err := c.RenameFile("/missing", "/b/x"); err == nil {
		t.Fatal("renaming a missing file should fail")
	}
	if _, _, err := c.RenameFile("/b/renamed", "/b/renamed"); err == nil {
		t.Fatal("self-rename should fail")
	}
	if _, _, err := c.RenameFile("/b/renamed", "/nodir/x"); err == nil {
		t.Fatal("rename into missing directory should fail")
	}
	fi2 := testFileInfo("/b/other")
	if err := createFile(c, fi2, assign); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RenameFile("/b/renamed", "/b/other"); err == nil {
		t.Fatal("rename onto existing file should fail")
	}
	// Failed renames must leave everything intact (transactional).
	if _, err := c.Stat("/b/renamed"); err != nil {
		t.Fatalf("failed rename damaged the source: %v", err)
	}
}

func TestUsageAndFilesOnServer(t *testing.T) {
	c := newCatalog(t)
	for _, s := range []ServerInfo{
		{Name: "fast", Capacity: 1000, Performance: 1, Addr: "x:1"},
		{Name: "slow", Capacity: 500, Performance: 3, Addr: "x:2"},
		{Name: "idle", Capacity: 100, Performance: 1, Addr: "x:3"},
	} {
		if err := c.RegisterServer(s); err != nil {
			t.Fatal(err)
		}
	}

	// File 1: 32 bricks greedy over fast/slow -> 24/8 split.
	fi := testFileInfo("/f1")
	fi.Geometry.Dims = []int64{1024, 512}
	fi.Geometry.Tile = []int64{128, 128} // 32 bricks
	fi.Servers = []string{"fast", "slow"}
	assign, err := stripe.Greedy{Perf: []int{1, 3}}.Assign(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := createFile(c, fi, assign); err != nil {
		t.Fatal(err)
	}
	// File 2: 8 bricks round-robin on fast only.
	fi2 := testFileInfo("/f2")
	fi2.Geometry.Dims = []int64{512, 512}
	fi2.Geometry.Tile = []int64{128, 256} // 8 bricks
	fi2.Servers = []string{"fast"}
	assign2, _ := stripe.RoundRobin{}.Assign(8, 1)
	if err := createFile(c, fi2, assign2); err != nil {
		t.Fatal(err)
	}

	usage, err := c.Usage()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ServerUsage{}
	for _, u := range usage {
		byName[u.Name] = u
	}
	if u := byName["fast"]; u.Files != 2 || u.Bricks != 24+8 {
		t.Fatalf("fast usage = %+v", u)
	}
	if u := byName["slow"]; u.Files != 1 || u.Bricks != 8 {
		t.Fatalf("slow usage = %+v", u)
	}
	if u := byName["idle"]; u.Files != 0 || u.Bricks != 0 {
		t.Fatalf("idle usage = %+v", u)
	}

	files, err := c.FilesOnServer("fast")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Path != "/f1" || files[1].Path != "/f2" {
		t.Fatalf("files on fast = %+v", files)
	}
	if files[0].Bricks != 24 || files[1].Bricks != 8 {
		t.Fatalf("brick counts = %+v", files)
	}
	files, err = c.FilesOnServer("idle")
	if err != nil || len(files) != 0 {
		t.Fatalf("files on idle = %v, %v", files, err)
	}
}
