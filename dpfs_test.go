package dpfs_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"dpfs"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
)

// startBenchCluster launches a 4-server unshaped cluster in dir and
// returns a cleanup func plus an engine (shared by tests and
// benchmarks).
func startBenchCluster(tb testing.TB, dir string) (func(), *core.FS) {
	tb.Helper()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := c.NewFS(0, core.Options{Combine: true, Stagger: true})
	if err != nil {
		c.Close()
		tb.Fatal(err)
	}
	return func() {
		fs.Close()
		c.Close()
	}, fs
}

// TestPublicAPI drives the exported package surface end to end against
// a real cluster: Connect over TCP, directory ops, create/write/read
// with hints, import/export, remove.
func TestPublicAPI(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(3), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Connect through the network metadata server like an external
	// process would.
	client, err := dpfs.Connect(c.MetaSrv.Addr(), 0, dpfs.Options{Combine: true, Stagger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	servers, err := client.Servers()
	if err != nil || len(servers) != 3 {
		t.Fatalf("Servers = %v, %v", servers, err)
	}

	if err := client.Mkdir("/proj"); err != nil {
		t.Fatal(err)
	}
	ok, err := client.IsDir("/proj")
	if err != nil || !ok {
		t.Fatalf("IsDir = %v %v", ok, err)
	}

	// A multidim array with the paper's hint flow.
	f, err := client.Create("/proj/temps", 8, []int64{128, 128}, dpfs.Hint{
		Level: dpfs.Multidim,
		Tile:  []int64{32, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	full := dpfs.FullSection([]int64{128, 128})
	data := make([]byte, full.Bytes(8))
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := f.WriteSection(ctx, full, data); err != nil {
		t.Fatal(err)
	}
	col := dpfs.NewSection([]int64{0, 96}, []int64{128, 32})
	buf := make([]byte, col.Bytes(8))
	if err := f.ReadSection(ctx, col, buf); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 128; r++ {
		off := (r*128 + 96) * 8
		if !bytes.Equal(buf[r*32*8:(r+1)*32*8], data[off:off+32*8]) {
			t.Fatalf("column row %d mismatch", r)
		}
	}
	// The same columns in one typed read through the re-exported
	// datatypes: a subarray file type into every other 256 bytes.
	view := dpfs.Subarray{ElemSize: 8, Dims: []int64{128, 128}, Start: []int64{0, 96}, Count: []int64{128, 32}}
	var strided dpfs.Datatype = dpfs.Vector{Count: 128, BlockLen: 32 * 8, Stride: 64 * 8, Elem: dpfs.Bytes(1)}
	typed := make([]byte, strided.Extent())
	if err := f.ReadAtTyped(ctx, 0, view, strided, typed); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 128; r++ {
		if !bytes.Equal(typed[r*64*8:r*64*8+32*8], buf[r*32*8:(r+1)*32*8]) {
			t.Fatalf("typed column row %d mismatch", r)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fi, err := client.Stat("/proj/temps")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Geometry.Level != dpfs.Multidim || fi.Size != 128*128*8 {
		t.Fatalf("stat = %+v", fi)
	}
	dirs, files, err := client.ReadDir("/proj")
	if err != nil || len(dirs) != 0 || len(files) != 1 || files[0] != "temps" {
		t.Fatalf("ReadDir = %v %v %v", dirs, files, err)
	}

	// Import/export.
	payload := bytes.Repeat([]byte("seq"), 50000)
	if err := client.Import(ctx, bytes.NewReader(payload), "/proj/blob", int64(len(payload)), dpfs.Hint{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := client.Export(ctx, &out, "/proj/blob"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("import/export mismatch")
	}

	// Array-level checkpoint shape.
	ck, err := client.Create("/proj/ckpt", 8, []int64{64, 64}, dpfs.Hint{
		Level:   dpfs.Array,
		Pattern: []dpfs.Dist{dpfs.Block, dpfs.Star},
		Grid:    []int64{4, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	chunk := dpfs.NewSection([]int64{16, 0}, []int64{16, 64})
	cdata := make([]byte, chunk.Bytes(8))
	if err := ck.WriteSection(ctx, chunk, cdata); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Stats counters move.
	before := client.Stats()
	f2, err := client.Open("/proj/temps")
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.ReadSection(ctx, col, buf); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if st := client.Stats(); st.Requests == before.Requests || st.BytesUseful != before.BytesUseful+col.Bytes(8) {
		t.Fatalf("stats = %+v before %+v", st, before)
	}

	// Remove everything.
	for _, p := range []string{"/proj/temps", "/proj/blob", "/proj/ckpt"} {
		if err := client.Remove(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Rmdir("/proj"); err != nil {
		t.Fatal(err)
	}
}

// TestConnectFailure: a dead address fails to connect, and so do the
// two catalog address lists Connect refuses before dialling anything,
// a ';' (the separator of the removed catalog shards) and an empty
// element.
func TestConnectFailure(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"127.0.0.1:1", ""},
		{"a;b", "shards were removed"},
		{"127.0.0.1:1,,127.0.0.1:2", "empty element"},
	} {
		_, err := dpfs.Connect(tc.addr, 0, dpfs.Options{})
		if err == nil {
			t.Fatalf("Connect(%q) succeeded", tc.addr)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Connect(%q) = %v, want an error containing %q", tc.addr, err, tc.want)
		}
	}
}

// TestWrap exposes an in-process engine through the public client.
func TestWrap(t *testing.T) {
	cleanup, fs := startBenchCluster(t, t.TempDir())
	defer cleanup()
	client := dpfs.Wrap(fs)
	if client.Engine() != fs {
		t.Fatal("Engine() identity")
	}
	if err := client.Mkdir("/x"); err != nil {
		t.Fatal(err)
	}
}

// TestAwkwardNames: file names and owners are values, never SQL text,
// so quotes, placeholders, LIKE wildcards, backslashes, comment markers
// and non-ASCII letters all survive Create, Chown, Stat, ReadDir, Open,
// Rename and Remove through the networked catalog. Only what the
// directory lists themselves reserve (',' '/' newline) is refused.
func TestAwkwardNames(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client, err := dpfs.Connect(c.MetaSrv.Addr(), 0, dpfs.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Mkdir("/q'dir"); err != nil {
		t.Fatal(err)
	}
	all := dpfs.FullSection([]int64{64})
	for _, name := range []string{"it's", "''", "what?", "100%_", `back\slash`, ";--", "naïve-ü", "x' OR '1'='1"} {
		path, moved := "/q'dir/"+name, "/q'dir/"+name+".moved"
		data := bytes.Repeat([]byte(name), 64)[:64]
		f, err := client.Create(path, 1, []int64{64}, dpfs.Hint{})
		if err != nil {
			t.Fatalf("create %q: %v", path, err)
		}
		if err := f.WriteSection(ctx, all, data); err != nil {
			t.Fatalf("write %q: %v", path, err)
		}
		f.Close()
		if err := client.Chown(path, name); err != nil {
			t.Fatalf("chown %q: %v", path, err)
		}
		if fi, err := client.Stat(path); err != nil || fi.Path != path || fi.Owner != name {
			t.Fatalf("stat %q = %+v, %v", path, fi, err)
		}
		if _, files, err := client.ReadDir("/q'dir"); err != nil || len(files) != 1 || files[0] != name {
			t.Fatalf("readdir with %q = %v, %v", name, files, err)
		}
		if err := client.Rename(ctx, path, moved); err != nil {
			t.Fatalf("rename %q: %v", path, err)
		}
		if _, err := client.Open(path); err == nil {
			t.Fatalf("%q still opens after rename", path)
		}
		f, err = client.Open(moved)
		if err != nil {
			t.Fatalf("open %q: %v", moved, err)
		}
		got := make([]byte, 64)
		if err := f.ReadSection(ctx, all, got); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %q: %v (equal %v)", moved, err, bytes.Equal(got, data))
		}
		f.Close()
		if err := client.Remove(ctx, moved); err != nil {
			t.Fatalf("remove %q: %v", moved, err)
		}
	}
	for _, name := range []string{"a,b", "a\nb"} {
		if _, err := client.Create("/q'dir/"+name, 1, []int64{64}, dpfs.Hint{}); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	if err := client.Rmdir("/q'dir"); err != nil {
		t.Fatal(err)
	}
}
