package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"dpfs/internal/cache"
	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

func startCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(n), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newFS(t *testing.T, c *cluster.Cluster, rank int, opts core.Options) *core.FS {
	t.Helper()
	fs, err := c.NewFS(rank, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func pattern(n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + 7)
	}
	return out
}

func TestLinearWriteReadAt(t *testing.T) {
	c := startCluster(t, 4)
	fs := newFS(t, c, 0, core.Options{})
	ctx := ctxT(t)

	f, err := fs.Create("/data.bin", 1, []int64{1 << 16}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1 << 16)
	if err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1<<16)
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full roundtrip mismatch")
	}
	// Unaligned partial read spanning bricks.
	sub := make([]byte, 5000)
	if err := f.ReadAt(ctx, sub, 3000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, data[3000:8000]) {
		t.Fatal("partial read mismatch")
	}
	// Partial overwrite.
	over := bytes.Repeat([]byte{0xEE}, 100)
	if err := f.WriteAt(ctx, over, 4090); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAt(ctx, sub[:120], 4080); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, data[4080:4090]...), over...)
	want = append(want, data[4190:4200]...)
	if !bytes.Equal(sub[:120], want) {
		t.Fatal("overwrite mismatch")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("double close should fail")
	}
	if err := f.WriteAt(ctx, data[:1], 0); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestAllLevelsSectionRoundtrip(t *testing.T) {
	c := startCluster(t, 4)
	ctx := ctxT(t)
	for _, combine := range []bool{false, true} {
		fs := newFS(t, c, 0, core.Options{Combine: combine, Stagger: combine})
		hints := map[string]core.Hint{
			"linear":   {Level: stripe.LevelLinear, BrickBytes: 1 << 10},
			"multidim": {Level: stripe.LevelMultidim, Tile: []int64{16, 16}},
			"array": {Level: stripe.LevelArray,
				Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistStar}, Grid: []int64{4, 1}},
		}
		for name, hint := range hints {
			path := fmt.Sprintf("/%s-combine-%v", name, combine)
			f, err := fs.Create(path, 8, []int64{64, 64}, hint)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			full := stripe.FullSection([]int64{64, 64})
			data := pattern(full.Bytes(8))
			if err := f.WriteSection(ctx, full, data); err != nil {
				t.Fatalf("%s write: %v", name, err)
			}
			// Column access (the paper's (*, BLOCK) shape).
			col := stripe.NewSection([]int64{0, 8}, []int64{64, 8})
			buf := make([]byte, col.Bytes(8))
			if err := f.ReadSection(ctx, col, buf); err != nil {
				t.Fatalf("%s read: %v", name, err)
			}
			// Reference: extract from data.
			want := make([]byte, 0, len(buf))
			for r := int64(0); r < 64; r++ {
				off := (r*64 + 8) * 8
				want = append(want, data[off:off+8*8]...)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s combine=%v column read mismatch", name, combine)
			}
			f.Close()
		}
	}
}

// TestParallelCompute runs 8 compute-node goroutines each writing its
// own (BLOCK, *) slice, then reading back a different node's slice.
func TestParallelCompute(t *testing.T) {
	c := startCluster(t, 4)
	ctx := ctxT(t)
	const np = 8
	const rows, cols = 64, 64

	fs0 := newFS(t, c, 0, core.Options{Combine: true, Stagger: true})
	f, err := fs0.Create("/shared", 8, []int64{rows, cols}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	var wg sync.WaitGroup
	errs := make(chan error, np)
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fs, err := c.NewFS(rank, core.Options{Combine: true, Stagger: true})
			if err != nil {
				errs <- err
				return
			}
			defer fs.Close()
			f, err := fs.Open("/shared")
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			sec := stripe.NewSection([]int64{int64(rank) * rows / np, 0}, []int64{rows / np, cols})
			data := make([]byte, sec.Bytes(8))
			for i := range data {
				data[i] = byte(rank)
			}
			if err := f.WriteSection(ctx, sec, data); err != nil {
				errs <- err
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every node's slice contains its rank byte.
	f2, err := fs0.Open("/shared")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for p := 0; p < np; p++ {
		sec := stripe.NewSection([]int64{int64(p) * rows / np, 0}, []int64{rows / np, cols})
		buf := make([]byte, sec.Bytes(8))
		if err := f2.ReadSection(ctx, sec, buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf {
			if b != byte(p) {
				t.Fatalf("rank %d slice byte %d = %d", p, i, b)
			}
		}
	}
}

// TestCombinationReducesRequests verifies the quantitative claim of
// Sec. 4.2: accessing 8 bricks striped over 4 servers takes 8 requests
// in the general approach but 4 with combination.
func TestCombinationReducesRequests(t *testing.T) {
	c := startCluster(t, 4)
	ctx := ctxT(t)

	build := func(combine bool, path string) *core.File {
		fs := newFS(t, c, 0, core.Options{Combine: combine})
		f, err := fs.Create(path, 1, []int64{32 << 10}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	f := build(false, "/general")
	if err := f.WriteAt(ctx, make([]byte, 32<<10), 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Requests; got != 8 {
		t.Errorf("general approach issued %d requests, want 8", got)
	}

	f = build(true, "/combined")
	if err := f.WriteAt(ctx, make([]byte, 32<<10), 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Requests; got != 4 {
		t.Errorf("combined approach issued %d requests, want 4", got)
	}
}

// TestWholeBrickReads pins what a column read of a linear file whose
// bricks hold two rows each moves: with a data cache to keep them,
// whole bricks (the paper's access unit, 8x the useful bytes here);
// with no cache, exactly the useful bytes — each brick's covering span
// is swept by its server and sieved there. One request per brick
// either way.
func TestWholeBrickReads(t *testing.T) {
	c := startCluster(t, 4)
	ctx := ctxT(t)

	// 64x64 bytes in 128-byte bricks: a brick is two rows, so columns
	// 8..15 are two 8-byte pieces 64 bytes apart in each of 32 bricks.
	col := stripe.NewSection([]int64{0, 8}, []int64{64, 8})
	const useful, span, whole = 64 * 8, 32 * (64 + 8), 64 * 64
	for _, tc := range []struct {
		name  string
		opts  core.Options
		want  int64 // bytes the read moves
		swept int64 // bytes the servers read from their subfiles
	}{
		{"uncached", core.Options{}, useful, span},
		{"cached", core.Options{CacheBytes: 1 << 20}, whole, whole},
	} {
		fs := newFS(t, c, 0, tc.opts)
		f, err := fs.Create("/"+tc.name, 1, []int64{64, 64}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		ref := &refFile{dims: []int64{64, 64}, elem: 1, data: pattern(64 * 64)}
		if err := f.WriteSection(ctx, stripe.FullSection(ref.dims), ref.data); err != nil {
			t.Fatal(err)
		}
		before, sweptBefore := f.Stats(), subfileBytesRead(c)
		buf := make([]byte, col.Bytes(1))
		if err := f.ReadSection(ctx, col, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, ref.extract(col)) {
			t.Errorf("%s: column read returned wrong bytes", tc.name)
		}
		st := f.Stats()
		if got := st.BytesUseful - before.BytesUseful; got != useful {
			t.Errorf("%s: useful bytes = %d, want %d", tc.name, got, useful)
		}
		if got := st.BytesTransferred - before.BytesTransferred; got != tc.want {
			t.Errorf("%s: read moved %d bytes, want %d", tc.name, got, tc.want)
		}
		if got := st.Requests - before.Requests; got != 32 {
			t.Errorf("%s: read issued %d requests, want 32 (one per brick)", tc.name, got)
		}
		if got := subfileBytesRead(c) - sweptBefore; got != tc.swept {
			t.Errorf("%s: servers read %d subfile bytes, want %d", tc.name, got, tc.swept)
		}
	}
}

// subfileBytesRead sums subfile_bytes_read_total over the cluster's
// I/O servers.
func subfileBytesRead(c *cluster.Cluster) int64 {
	var n int64
	for _, srv := range c.IOServers {
		n += srv.Metrics().Counter(server.MetricSubfileBytesRead).Value()
	}
	return n
}

// TestAdjacentExtentsCoalesce pins how many extents a combined access
// travels as — visible from outside as the server's per-extent charge,
// which a traced RPC span reports. Eight contiguous bricks of a
// one-server file are adjacent slots of one subfile, so reading them is
// one extent however each brick's range is sized. A column access, read
// or write, is one extent per server: its bricks sit in consecutive
// slots, and the gap between two neighbouring spans is no wider than the
// holes each span already sweeps, so the spans join into one extent
// with one selection — and the servers sweep exactly those spans and
// gaps, no more.
func TestAdjacentExtentsCoalesce(t *testing.T) {
	c := startCluster(t, 1)
	ctx := ctxT(t)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"uncached", core.Options{Combine: true}},
		{"cached", core.Options{Combine: true, CacheBytes: 1 << 20}},
	} {
		fs := newFS(t, c, 0, tc.opts)
		traces := fs.EnableTracing(4)
		f, err := fs.Create("/"+tc.name, 1, []int64{8 << 10}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(8 << 10)
		if err := f.WriteAt(ctx, data, 0); err != nil {
			t.Fatal(err)
		}
		// Bricks 1..6 whole plus the tail of brick 0 and head of brick 7.
		got := make([]byte, 7<<10)
		if err := f.ReadAt(ctx, got, 512); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[512:512+7<<10]) {
			t.Errorf("%s: read returned wrong bytes", tc.name)
		}
		if rpc := traces.Last().Root.Children()[0]; rpc.Extents != 1 {
			t.Errorf("%s: 8 adjacent bricks travelled as %d extents, want 1", tc.name, rpc.Extents)
		}
	}

	// The benchmark's column-class2 access: a 64-column block of a
	// 512x512 float64 file in 32 KiB (eight-row) bricks on four servers
	// is eight 512-byte pieces 4 KiB apart in each of 64 bricks, 16
	// bricks to a server in slots 0-15. A brick's span is 7 rows and a
	// piece (29 184 bytes), and the 3 584-byte gap to the next slot's
	// span is as wide as the holes inside it: each server sweeps one
	// extent from the first piece of slot 0 to the last of slot 15.
	c = startCluster(t, 4)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	traces := fs.EnableTracing(4)
	dims := []int64{512, 512}
	f, err := fs.Create("/column", 8, dims, core.Hint{Level: stripe.LevelLinear, BrickBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refFile{dims: dims, elem: 8, data: pattern(512 * 512 * 8)}
	if err := f.WriteSection(ctx, stripe.FullSection(dims), ref.data); err != nil {
		t.Fatal(err)
	}
	col := stripe.NewSection([]int64{0, 64}, []int64{512, 64})
	fresh := pattern(col.Bytes(8) + 1)[1:]
	if err := f.WriteSection(ctx, col, fresh); err != nil {
		t.Fatal(err)
	}
	ref.embedSection(col, fresh)
	wrpcs := traces.Last().Root.Children()
	got := make([]byte, col.Bytes(8))
	sweptBefore := subfileBytesRead(c)
	if err := f.ReadSection(ctx, col, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("column: read returned wrong bytes")
	}
	const sweep = 15*(32<<10) + 7*4096 + 512 // slot 0's first piece to slot 15's last
	if swept := subfileBytesRead(c) - sweptBefore; swept != 4*sweep {
		t.Errorf("column read: servers swept %d subfile bytes, want 4 x %d", swept, sweep)
	}
	for op, rpcs := range map[string][]*obs.Span{"write": wrpcs, "read": traces.Last().Root.Children()} {
		if len(rpcs) != 4 {
			t.Fatalf("column %s: %d requests, want 4", op, len(rpcs))
		}
		for _, rpc := range rpcs {
			if rpc.Op != op || rpc.Extents != 1 || rpc.Bytes != col.Bytes(8)/4 {
				t.Errorf("column %s: 16 bricks travelled as a %s of %d extents moving %d bytes, want 1 and %d", op, rpc.Op, rpc.Extents, rpc.Bytes, col.Bytes(8)/4)
			}
			// The server saw the same one: that count is its positioning charge.
			if srv := rpc.Children(); len(srv) != 1 || srv[0].Name != "server.request" || srv[0].Extents != 1 {
				t.Errorf("column %s: server-side request span = %+v, want 1 extent", op, srv)
			}
		}
	}
	// The write left everything around the column alone.
	all := make([]byte, len(ref.data))
	if err := f.ReadSection(ctx, stripe.FullSection(dims), all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, ref.data) {
		t.Error("column: the file differs from the reference after the column write")
	}
}

func TestTypedIO(t *testing.T) {
	c := startCluster(t, 2)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx := ctxT(t)

	// An 8x8 byte matrix in client memory; write its 4x4 center block
	// into the 4x4 top-right corner of an 8x8 multidim file: a subarray
	// file type against a subarray memory type.
	f, err := fs.Create("/typed", 1, []int64{8, 8}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mem := pattern(64)
	sub := datatype.Subarray{ElemSize: 1, Dims: []int64{8, 8}, Start: []int64{2, 2}, Count: []int64{4, 4}}
	corner := datatype.Subarray{ElemSize: 1, Dims: []int64{8, 8}, Start: []int64{0, 4}, Count: []int64{4, 4}}
	if err := f.WriteAtTyped(ctx, 0, corner, sub, mem); err != nil {
		t.Fatal(err)
	}
	// The same bytes through the section call.
	got := make([]byte, 16)
	if err := f.ReadSection(ctx, stripe.NewSection([]int64{0, 4}, []int64{4, 4}), got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if r, col := 2+i/4, 2+i%4; got[i] != mem[r*8+col] {
			t.Fatalf("section read of the typed write differs at (%d,%d)", r, col)
		}
	}

	// Read back into the same place of a fresh matrix; nothing else of
	// it is touched.
	out := make([]byte, 64)
	if err := f.ReadAtTyped(ctx, 0, corner, sub, out); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		for col := 0; col < 8; col++ {
			want := byte(0)
			if r >= 2 && r < 6 && col >= 2 && col < 6 {
				want = mem[r*8+col]
			}
			if out[r*8+col] != want {
				t.Fatalf("typed roundtrip mismatch at (%d,%d)", r, col)
			}
		}
	}
	// Size mismatch errors.
	bad := datatype.Bytes(3)
	if err := f.WriteAtTyped(ctx, 0, corner, bad, mem); err == nil {
		t.Fatal("datatype size mismatch accepted")
	}
	if err := f.ReadAtTyped(ctx, 0, corner, bad, out); err == nil {
		t.Fatal("datatype size mismatch accepted")
	}
	// A memory type reaching past the buffer.
	if err := f.ReadAtTyped(ctx, 0, corner, sub, out[:40]); err == nil {
		t.Fatal("memory type past the end of the buffer accepted")
	}
}

// TestStatSameRecordWithAndWithoutCache: Stat returns one record,
// servers and generation included, whether the metadata cache is on or
// off.
func TestStatSameRecordWithAndWithoutCache(t *testing.T) {
	c := startCluster(t, 3)
	plain := newFS(t, c, 0, core.Options{})
	cached := newFS(t, c, 1, core.Options{MetaTTL: time.Minute})
	f, err := plain.Create("/stat", 1, []int64{4096}, core.Hint{BrickBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	want, err := plain.Stat("/stat")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Servers) != 3 || want.Generation == 0 {
		t.Fatalf("uncached Stat = %+v, want 3 servers and a generation", want)
	}
	for i := 0; i < 2; i++ { // a cache miss, then a hit
		got, err := cached.Stat("/stat")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cached Stat #%d = %+v, uncached %+v", i, got, want)
		}
	}
}

func TestRemove(t *testing.T) {
	c := startCluster(t, 3)
	fs := newFS(t, c, 0, core.Options{})
	ctx := ctxT(t)

	f, err := fs.Create("/gone", 1, []int64{4096}, core.Hint{BrickBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, pattern(4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(ctx, "/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/gone"); err == nil {
		t.Fatal("removed file still opens")
	}
	if err := fs.Remove(ctx, "/gone"); err == nil {
		t.Fatal("double remove should fail")
	}
	// The name is reusable and reads back fresh zeros are not leaked
	// from the old subfiles.
	f2, err := fs.Create("/gone", 1, []int64{4096}, core.Hint{BrickBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := f2.ReadAt(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("stale byte %d = %d after recreate", i, b)
		}
	}
}

func TestImportExport(t *testing.T) {
	c := startCluster(t, 3)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx := ctxT(t)

	data := pattern(3<<20 + 12345) // deliberately unaligned
	if err := fs.Import(ctx, bytes.NewReader(data), "/imported", int64(len(data)), core.Hint{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := fs.Export(ctx, &out, "/imported"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("import/export roundtrip mismatch")
	}

	// Export of a multidim file linearizes row-major.
	f, err := fs.Create("/md", 8, []int64{32, 32}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	md := pattern(32 * 32 * 8)
	if err := f.WriteSection(ctx, stripe.FullSection([]int64{32, 32}), md); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := fs.Export(ctx, &out, "/md"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), md) {
		t.Fatal("multidim export mismatch")
	}

	// A failed import leaves nothing behind.
	short := bytes.NewReader(data[:100])
	if err := fs.Import(ctx, short, "/truncated", 1000, core.Hint{}); err == nil {
		t.Fatal("short import should fail")
	}
	if _, err := fs.Open("/truncated"); err == nil {
		t.Fatal("failed import left the file")
	}
	// Import rejects non-linear hints.
	if err := fs.Import(ctx, bytes.NewReader(data), "/x", 10,
		core.Hint{Level: stripe.LevelMultidim}); err == nil {
		t.Fatal("non-linear import accepted")
	}
}

func TestCreateErrors(t *testing.T) {
	c := startCluster(t, 2)
	fs := newFS(t, c, 0, core.Options{})

	if _, err := fs.Create("relative", 1, []int64{8}, core.Hint{}); err == nil {
		t.Fatal("relative path accepted")
	}
	if _, err := fs.Create("/f", 1, []int64{8}, core.Hint{Level: stripe.Level(9)}); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := fs.Create("/f", 1, []int64{8}, core.Hint{Servers: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown pinned server accepted")
	}
	if _, err := fs.Open("/missing"); err == nil {
		t.Fatal("open of missing file accepted")
	}
	// Array level needs pattern/grid.
	if _, err := fs.Create("/f", 1, []int64{8, 8}, core.Hint{Level: stripe.LevelArray}); err == nil {
		t.Fatal("array level without pattern accepted")
	}
	// Buffer size mismatches.
	f, err := fs.Create("/ok", 1, []int64{16}, core.Hint{BrickBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t)
	if err := f.WriteSection(ctx, stripe.FullSection([]int64{16}), make([]byte, 3)); err == nil {
		t.Fatal("short write buffer accepted")
	}
	if err := f.ReadSection(ctx, stripe.FullSection([]int64{16}), make([]byte, 99)); err == nil {
		t.Fatal("wrong read buffer accepted")
	}
}

func TestDefaultPlacementIsGreedyOnHeterogeneous(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.Start(cluster.Config{Servers: cluster.Mixed(4), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewFS(0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("/het", 1, []int64{1 << 20}, core.Hint{BrickBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Info().Placement; got != "greedy" {
		t.Errorf("placement = %q, want greedy on a mixed cluster", got)
	}
	f2, err := fs.Create("/hom", 1, []int64{1 << 20},
		core.Hint{BrickBytes: 1 << 14, Servers: f.Info().Servers[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Info().Placement; got != "round-robin" {
		t.Errorf("placement = %q, want round-robin on a single server", got)
	}
}

// TestServerFailure: killing one I/O server makes accesses fail
// cleanly with an error naming the server, not hang or corrupt.
func TestServerFailure(t *testing.T) {
	c := startCluster(t, 3)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	f, err := fs.Create("/frag", 1, []int64{12 << 10}, core.Hint{BrickBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, pattern(12<<10), 0); err != nil {
		t.Fatal(err)
	}
	c.IOServers[1].Close()

	buf := make([]byte, 12<<10)
	if err := f.ReadAt(ctx, buf, 0); err == nil {
		t.Fatal("read with a dead server should fail")
	}
	// Bricks on surviving servers still readable.
	assignSrv := f.Info().Servers
	_ = assignSrv
	if err := f.ReadAt(ctx, buf[:1024], 0); err != nil {
		// brick 0 lives on server 0 (round-robin), which is alive
		t.Fatalf("read from surviving server failed: %v", err)
	}
}

// TestRandomizedSectionsAgainstReference writes a full random array and
// checks dozens of random section reads against an in-memory
// reference, across all levels, with combination on.
func TestRandomizedSectionsAgainstReference(t *testing.T) {
	c := startCluster(t, 4)
	fs := newFS(t, c, 0, core.Options{Combine: true, Stagger: true})
	ctx := ctxT(t)
	r := rand.New(rand.NewSource(42))

	dims := []int64{48, 36}
	ref := pattern(48 * 36 * 4)
	hints := []core.Hint{
		{Level: stripe.LevelLinear, BrickBytes: 777},
		{Level: stripe.LevelMultidim, Tile: []int64{7, 9}},
		{Level: stripe.LevelArray, Pattern: []stripe.Dist{stripe.DistBlock, stripe.DistBlock}, Grid: []int64{5, 3}},
	}
	for hi, hint := range hints {
		f, err := fs.Create(fmt.Sprintf("/rand%d", hi), 4, dims, hint)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteSection(ctx, stripe.FullSection(dims), ref); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			r0 := int64(r.Intn(48))
			c0 := int64(r.Intn(36))
			sec := stripe.NewSection(
				[]int64{r0, c0},
				[]int64{1 + int64(r.Intn(int(48-r0))), 1 + int64(r.Intn(int(36-c0)))})
			buf := make([]byte, sec.Bytes(4))
			if err := f.ReadSection(ctx, sec, buf); err != nil {
				t.Fatal(err)
			}
			pos := 0
			for rr := sec.Start[0]; rr < sec.Start[0]+sec.Count[0]; rr++ {
				off := (rr*36 + sec.Start[1]) * 4
				n := int(sec.Count[1] * 4)
				if !bytes.Equal(buf[pos:pos+n], ref[off:off+int64(n)]) {
					t.Fatalf("hint %d section %v row %d mismatch", hi, sec, rr)
				}
				pos += n
			}
		}
	}
}

// TestRename moves a file and verifies the data is reachable at the
// new path (catalog and subfiles both moved).
func TestRename(t *testing.T) {
	c := startCluster(t, 3)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx := ctxT(t)

	f, err := fs.Create("/old", 1, []int64{8 << 10}, core.Hint{BrickBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(8 << 10)
	if err := f.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := fs.Rename(ctx, "/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/old"); err == nil {
		t.Fatal("old path still opens")
	}
	f2, err := fs.Open("/new")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f2.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("renamed file data mismatch")
	}
	f2.Close()

	// Rename onto an existing file fails and leaves both intact.
	f3, err := fs.Create("/other", 1, []int64{1 << 10}, core.Hint{BrickBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f3.Close()
	if err := fs.Rename(ctx, "/new", "/other"); err == nil {
		t.Fatal("rename onto existing file should succeed? no")
	}
	if _, err := fs.Open("/new"); err != nil {
		t.Fatalf("failed rename damaged source: %v", err)
	}
}

// TestCapacityAdmission: creating a file that exceeds a server's
// advertised capacity is rejected; removing files frees the
// accounting.
func TestCapacityAdmission(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.Start(cluster.Config{
		Servers: []cluster.ServerSpec{{Capacity: 64 << 10}, {Capacity: 64 << 10}},
		Dir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewFS(0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := ctxT(t)

	// 96 KiB over two 64 KiB servers fits (48 KiB each)...
	f, err := fs.Create("/fits", 1, []int64{96 << 10}, core.Hint{BrickBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// ... but another 96 KiB does not.
	if _, err := fs.Create("/nofit", 1, []int64{96 << 10}, core.Hint{BrickBytes: 8 << 10}); err == nil {
		t.Fatal("over-capacity create accepted")
	}
	// NoCapacityCheck overrides.
	f, err = fs.Create("/forced", 1, []int64{96 << 10}, core.Hint{BrickBytes: 8 << 10, NoCapacityCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Remove(ctx, "/forced"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(ctx, "/fits"); err != nil {
		t.Fatal(err)
	}
	// Space freed: the create succeeds now.
	f, err = fs.Create("/nofit", 1, []int64{96 << 10}, core.Hint{BrickBytes: 8 << 10})
	if err != nil {
		t.Fatalf("create after free: %v", err)
	}
	f.Close()
}

// TestTypedFileViews: MPI-IO style — a strided file region (every
// other 1 KiB block) written from a strided memory layout and read
// back through a different memory type.
func TestTypedFileViews(t *testing.T) {
	c := startCluster(t, 3)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx := ctxT(t)

	f, err := fs.Create("/view", 1, []int64{16 << 10}, core.Hint{BrickBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// File view: 4 blocks of 1 KiB, stride 2 KiB, starting at 512.
	fview := datatype.Vector{Count: 4, BlockLen: 1 << 10, Stride: 2 << 10, Elem: datatype.Bytes(1)}
	// Memory: contiguous 4 KiB.
	mtype := datatype.Bytes(4 << 10)
	mem := pattern(4 << 10)
	if err := f.WriteAtTyped(ctx, 512, fview, mtype, mem); err != nil {
		t.Fatal(err)
	}

	// Plain reads see the data at the strided positions, zeros between.
	buf := make([]byte, 16<<10)
	if err := f.ReadAt(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		fileOff := 512 + blk*2048
		if !bytes.Equal(buf[fileOff:fileOff+1024], mem[blk*1024:(blk+1)*1024]) {
			t.Fatalf("block %d mismatch", blk)
		}
	}
	if buf[0] != 0 || buf[512+1024] != 0 {
		t.Fatal("gaps were written")
	}

	// Read back through a strided memory type (scatter into every
	// other 1 KiB of an 8 KiB buffer).
	mview := datatype.Vector{Count: 4, BlockLen: 1 << 10, Stride: 2 << 10, Elem: datatype.Bytes(1)}
	out := make([]byte, 8<<10)
	if err := f.ReadAtTyped(ctx, 512, fview, mview, out); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		if !bytes.Equal(out[blk*2048:blk*2048+1024], mem[blk*1024:(blk+1)*1024]) {
			t.Fatalf("scattered block %d mismatch", blk)
		}
	}

	// Errors: size mismatch, a view past the end of the file.
	if err := f.WriteAtTyped(ctx, 0, datatype.Bytes(8), datatype.Bytes(4), mem); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := f.ReadAtTyped(ctx, 12<<10, fview, mview, out); err == nil {
		t.Fatal("view past the end of the file accepted")
	}

	// The same strided view on a multidim file: 8 KiB blocks of its
	// logical byte space, which cut across its 4 KiB tiles.
	md, err := fs.Create("/view-md", 8, []int64{32, 64}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	full := pattern(16 << 10)
	if err := md.WriteAt(ctx, full, 0); err != nil {
		t.Fatal(err)
	}
	if err := md.WriteAtTyped(ctx, 512, fview, mtype, mem); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		copy(full[512+blk*2048:], mem[blk*1024:(blk+1)*1024])
	}
	got := make([]byte, 16<<10)
	if err := md.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("typed view on a multidim file: the file differs from the reference")
	}
	out = make([]byte, 8<<10)
	if err := md.ReadAtTyped(ctx, 512, fview, mview, out); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		if !bytes.Equal(out[blk*2048:blk*2048+1024], mem[blk*1024:(blk+1)*1024]) {
			t.Fatalf("multidim: scattered block %d mismatch", blk)
		}
	}
}

// TestTypedAccessAllocs: a typed access moves its bytes straight
// between the servers and the caller's buffer. A 1 MiB view of every
// other 4 KiB row, read into and written from every other 4 KiB of a
// 2 MiB buffer, allocates far less than the 1 MiB it moves, on a linear
// file and on a multidim one whose tiles cut each row in four (the
// allocations of the process's in-memory servers included). What it
// does allocate is the plan: some hundred bytes per piece.
func TestTypedAccessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := startCluster(t, 2)
	fs := newFS(t, c, 0, core.Options{Combine: true})
	ctx := ctxT(t)
	const rows, row = 512, 4 << 10
	ftype := datatype.Vector{Count: rows / 2, BlockLen: 1, Stride: 2, Elem: datatype.Bytes(row)}
	mtype := datatype.Vector{Count: rows / 2, BlockLen: row, Stride: 2 * row, Elem: datatype.Bytes(1)}
	mem := pattern(rows * row)
	payload := ftype.Size()
	for _, hint := range []core.Hint{
		{Level: stripe.LevelLinear, BrickBytes: 64 << 10},
		{Level: stripe.LevelMultidim, Tile: []int64{64, 1 << 10}},
	} {
		f, err := fs.Create("/allocs-"+hint.Level.String(), 1, []int64{rows, row}, hint)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []struct {
			name string
			do   func() error
		}{
			{"write", func() error { return f.WriteAtTyped(ctx, 0, ftype, mtype, mem) }},
			{"read", func() error { return f.ReadAtTyped(ctx, 0, ftype, mtype, mem) }},
		} {
			// The first access fills the pools its buffers come from, and
			// with the collector off nothing empties them; the least of
			// the accesses after it is the access's own cost.
			least := uint64(1 << 62)
			for i := 0; i < 6; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := op.do(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if i > 0 {
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
			}
			if least > uint64(payload/4) {
				t.Errorf("%v %s of a %d-byte view allocated %d bytes, want under a quarter of it", hint.Level, op.name, payload, least)
			}
			t.Logf("%v %s: %d bytes allocated for %d moved", hint.Level, op.name, least, payload)
		}
		got := make([]byte, payload)
		if err := f.ReadAt(ctx, got[:row], 2*row); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:row], mem[2*row:3*row]) {
			t.Fatalf("%v: row 2 differs from the memory type's second block", hint.Level)
		}
	}
}

// TestCachedColumnReadAllocs: a column block read wholly out of the
// engine's data cache allocates a fixed number of times, however many
// rows and bricks it touches. The 64-column block of a linear float64
// file with 32 KiB bricks (column-class2's reread) is read at 512 rows,
// 64 bricks, and at 4 096 rows, 512 bricks: the two reads must allocate
// equally often, and no more than the dozen times the access's fixed
// parts take (the boxed types, the listed runs, the plan's arrays, the
// list of bricks the cache did not hold).
func TestCachedColumnReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := startCluster(t, 2)
	ctx := ctxT(t)
	const cols, elem, brick = 512, 8, 32 << 10
	mallocs := func(rows int64) uint64 {
		t.Helper()
		fs := newFS(t, c, 0, core.Options{Combine: true, CacheBytes: 2 * rows * cols * elem})
		f, err := fs.Create(fmt.Sprintf("/column-%d", rows), elem, []int64{rows, cols}, core.Hint{Level: stripe.LevelLinear, BrickBytes: brick})
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(rows * cols * elem)
		if err := f.WriteAt(ctx, data, 0); err != nil {
			t.Fatal(err)
		}
		sec := stripe.NewSection([]int64{0, 64}, []int64{rows, 64})
		buf := make([]byte, sec.Bytes(elem))
		if err := f.ReadSection(ctx, sec, buf); err != nil { // fills the cache
			t.Fatal(err)
		}
		hits := fs.Metrics().Counter(cache.MetricDataHits)
		h0, requests := hits.Value(), fs.Stats().Requests
		least := uint64(1 << 62)
		for i := 0; i < 6; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := f.ReadSection(ctx, sec, buf); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		bricks := rows * cols * elem / brick
		if h, r := hits.Value()-h0, fs.Stats().Requests-requests; h != 6*bricks || r != 0 {
			t.Fatalf("%d rows: six rereads hit %d bricks and sent %d requests, want %d and 0", rows, h, r, 6*bricks)
		}
		for row := int64(0); row < rows; row++ {
			off := (row*cols + 64) * elem
			if !bytes.Equal(buf[row*64*elem:(row+1)*64*elem], data[off:off+64*elem]) {
				t.Fatalf("%d rows: row %d of the block differs from the file", rows, row)
			}
		}
		return least
	}
	short, tall := mallocs(512), mallocs(4096)
	if short != tall || tall > 12 {
		t.Errorf("a cached column block allocates %d times at 512 rows and %d at 4 096, want equal and at most 12", short, tall)
	}
	t.Logf("cached 64-column block: %d allocations at 512 rows, %d at 4 096", short, tall)
}

// TestOwnBufferReadAllocs: a read that cannot land in the caller's
// pieces lands each brick it fills or tangles in one new buffer, and
// allocates little more. A 4 MiB band that misses an engine's data
// cache allocates the four 1 MiB bricks the cache then keeps plus a
// small constant, and a
// tangled view allocates its bricks' spans plus a small constant (the
// allocations of the process's in-memory servers included).
func TestOwnBufferReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := startCluster(t, 4)
	ctx := ctxT(t)
	const mib, slack = 1 << 20, 32 << 10
	// least runs read six times and returns the least any read after
	// the first allocated: the first fills the pools the exchanges draw
	// on, and with the collector off nothing empties them.
	least := func(read func(i int) error) uint64 {
		t.Helper()
		low := uint64(1 << 62)
		for i := 0; i < 6; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := read(i); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				low = min(low, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return low
	}

	// The cache holds one band, so reading the two bands by turns misses
	// every brick every time.
	cached := newFS(t, c, 0, core.Options{Combine: true, CacheBytes: 4 * mib})
	band := pattern(8 * mib)
	f, err := cached.Create("/bands", 1, []int64{8 * mib}, core.Hint{BrickBytes: mib})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, band, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*mib)
	hits, misses := cached.Metrics().Counter(cache.MetricDataHits), cached.Metrics().Counter(cache.MetricDataMisses)
	h0, m0 := hits.Value(), misses.Value()
	got := least(func(i int) error {
		off := int64(i%2) * 4 * mib
		if err := f.ReadAt(ctx, buf, off); err != nil {
			return err
		}
		if !bytes.Equal(buf, band[off:off+4*mib]) {
			return fmt.Errorf("band at %d: wrong bytes", off)
		}
		return nil
	})
	if h, m := hits.Value()-h0, misses.Value()-m0; h != 0 || m != 6*4 {
		t.Fatalf("six band reads: %d cache hits and %d misses, want 0 and 24", h, m)
	}
	if got > 4*mib+slack {
		t.Errorf("a cached 4 MiB band miss allocated %d bytes, want at most its four bricks and %d", got, slack)
	}
	t.Logf("cached 4 MiB band miss: %d bytes allocated, %d over its four bricks", got, int64(got)-4*mib)

	// Two pieces of each 64 KiB brick share 24 KiB, so the brick moves
	// its 56 KiB span (whole pages, so that the allocator rounds nothing).
	plain := newFS(t, c, 1, core.Options{Combine: true})
	const brick, bricks = 64 << 10, 16
	data := pattern(bricks * brick)
	g, err := plain.Create("/tangled", 1, []int64{bricks * brick}, core.Hint{BrickBytes: brick})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteAt(ctx, data, 0); err != nil {
		t.Fatal(err)
	}
	view := datatype.Indexed{Elem: datatype.Bytes(1)}
	for b := int64(0); b < bricks; b++ {
		view.Displs = append(view.Displs, b*brick, b*brick+16<<10)
		view.BlockLens = append(view.BlockLens, 40<<10, 40<<10)
	}
	want := gather(view, data)
	mem := make([]byte, view.Size())
	got = least(func(int) error {
		if err := g.ReadAtTyped(ctx, 0, view, datatype.Bytes(len(mem)), mem); err != nil {
			return err
		}
		if !bytes.Equal(mem, want) {
			return fmt.Errorf("tangled view: wrong bytes")
		}
		return nil
	})
	const spans = bricks * 56 << 10
	if got > spans+slack {
		t.Errorf("a tangled view read allocated %d bytes, want at most its %d bytes of spans and %d", got, spans, slack)
	}
	t.Logf("tangled view of %d spans: %d bytes allocated, %d over its spans", bricks, got, int64(got)-spans)
}

// TestContextCancellation: a shaped (slow) server must not stall a
// canceled access.
func TestContextCancellation(t *testing.T) {
	dir := t.TempDir()
	slow := cluster.ServerSpec{Class: netsim.Params{
		Name: "glacial", RequestLatency: 2 * time.Second, Bandwidth: 1 << 20}}
	c, err := cluster.Start(cluster.Config{Servers: []cluster.ServerSpec{slow}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewFS(0, core.Options{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	f, err := fs.Create("/slow", 1, []int64{8 << 10}, core.Hint{BrickBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = f.WriteAt(ctx, make([]byte, 8<<10), 0)
	if err == nil {
		t.Fatal("write against a 2s-per-request server should have hit the deadline")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}
