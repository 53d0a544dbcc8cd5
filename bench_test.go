// Micro-benchmarks of the substrates under every figure: the striping
// math, the placement algorithm, the catalog, the wire codec and the
// raw I/O server. The figures and ablations themselves run through
// cmd/dpfs-bench (internal/bench).
package dpfs_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/metadb"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// BenchmarkPlanSection measures the pure striping math for the three
// levels (no I/O): the client-side cost of turning a section into a
// brick plan. The sub-benchmarks named after the benchmark's workloads
// plan each one's access the way the engine does: a section lists its
// file runs through a subarray datatype, a byte range is its own one
// run, and Plan plans the runs.
func BenchmarkPlanSection(b *testing.B) {
	geoms := map[string]*stripe.Geometry{
		"linear":   {Level: stripe.LevelLinear, ElemSize: 8, Dims: []int64{4096, 4096}, BrickBytes: 512 << 10},
		"multidim": {Level: stripe.LevelMultidim, ElemSize: 8, Dims: []int64{4096, 4096}, Tile: []int64{256, 256}},
		"array": {Level: stripe.LevelArray, ElemSize: 8, Dims: []int64{4096, 4096},
			Pattern: []stripe.Dist{stripe.DistStar, stripe.DistBlock}, Grid: []int64{1, 8}},
	}
	sec := stripe.NewSection([]int64{0, 512}, []int64{4096, 512})
	for name, g := range geoms {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.PlanSection(sec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	section := func(g *stripe.Geometry, start, count []int64) func() []stripe.Extent {
		return func() []stripe.Extent {
			return datatype.Segments(datatype.Subarray{ElemSize: g.ElemSize, Dims: g.Dims, Start: start, Count: count})
		}
	}
	column := &stripe.Geometry{Level: stripe.LevelLinear, ElemSize: 8, Dims: []int64{512, 512}, BrickBytes: 32 << 10}
	band := &stripe.Geometry{Level: stripe.LevelMultidim, ElemSize: 8, Dims: []int64{2048, 2048}, Tile: []int64{256, 256}}
	small := &stripe.Geometry{Level: stripe.LevelLinear, ElemSize: 1, Dims: []int64{8 << 20}, BrickBytes: 64 << 10}
	whole := &stripe.Geometry{Level: stripe.LevelMultidim, ElemSize: 8, Dims: []int64{64, 64}, Tile: []int64{32, 32}}
	page := []stripe.Extent{{Off: 3 << 20, Len: 4 << 10}}
	for _, w := range []struct {
		name string
		g    *stripe.Geometry
		runs func() []stripe.Extent
	}{
		{"column-class2", column, section(column, []int64{0, 192}, []int64{512, 64})},
		{"bulk-native", band, section(band, []int64{512, 0}, []int64{256, 2048})},
		{"smallio-native", small, func() []stripe.Extent { return page }},
		{"meta-native", whole, section(whole, []int64{0, 0}, []int64{64, 64})},
	} {
		b.Run("engine/"+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.g.Plan(w.runs(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyAssign measures the placement algorithm itself.
func BenchmarkGreedyAssign(b *testing.B) {
	perf := []int{1, 1, 1, 1, 3, 3, 3, 3}
	g := stripe.Greedy{Perf: perf}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Assign(16384, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetaDB measures the catalog substrate: point inserts and
// primary-key lookups, the operations on DPFS's open/create path.
func BenchmarkMetaDB(b *testing.B) {
	b.Run("insert", func(b *testing.B) {
		db := metadb.Memory()
		defer db.Close()
		s := db.Session()
		if _, err := s.Exec(`CREATE TABLE t (id INT PRIMARY KEY, name TEXT, size INT)`); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'file%d', %d)`, i, i, i*4096)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pk-lookup", func(b *testing.B) {
		db := metadb.Memory()
		defer db.Close()
		s := db.Session()
		if _, err := s.Exec(`CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'file%d')`, i, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec(fmt.Sprintf(`SELECT name FROM t WHERE id = %d`, i%10000))
			if err != nil || len(res.Rows) != 1 {
				b.Fatalf("lookup failed: %v", err)
			}
		}
	})
	// The same lookup the way the catalog issues it: one constant text,
	// the key as an argument, the plan parsed once. pk-lookup above pays
	// a parse per iteration (every text differs).
	b.Run("prepared-lookup", func(b *testing.B) {
		db := metadb.Memory()
		defer db.Close()
		s := db.Session()
		if _, err := s.Exec(`CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			if _, err := s.Exec(`INSERT INTO t VALUES (?, ?)`, metadb.I(int64(i)), metadb.S(fmt.Sprint("file", i))); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec(`SELECT name FROM t WHERE id = ?`, metadb.I(int64(i%10000)))
			if err != nil || len(res.Rows) != 1 {
				b.Fatalf("lookup failed: %v", err)
			}
		}
	})
}

// BenchmarkCatalogOpen measures the full DPFS open path (metadata
// lookup + distribution reconstruction) against a live cluster,
// demonstrating that database overhead sits off the data path.
func BenchmarkCatalogOpen(b *testing.B) {
	c, fsys := startBenchCluster(b, b.TempDir())
	defer c()
	f, err := fsys.Create("/bench-open", 8, []int64{512, 512},
		core.Hint{Level: stripe.LevelMultidim, Tile: []int64{64, 64}})
	if err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fsys.Open("/bench-open")
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkCachedRead reads a 4 MiB band, four 1 MiB bricks on four
// servers, through an engine with a data cache. miss reads two bands by
// turns through a cache that holds one, so every brick travels and
// fills the cache; hit rereads one resident band.
func BenchmarkCachedRead(b *testing.B) {
	const band = 4 << 20
	c, err := cluster.Start(cluster.Config{Servers: cluster.Uniform(4), Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewFS(0, core.Options{Combine: true, Stagger: true, CacheBytes: band})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	f, err := fs.Create("/bench-cached", 1, []int64{2 * band}, core.Hint{BrickBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt(ctx, make([]byte, 2*band), 0); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, band)
	read := func(b *testing.B, off int64) {
		if err := f.ReadAt(ctx, buf, off); err != nil {
			b.Fatal(err)
		}
	}
	turn := 0 // counts miss reads across runs, so band turns never repeat
	b.Run("miss", func(b *testing.B) {
		b.SetBytes(band)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			read(b, int64(turn%2)*band)
			turn++
		}
	})
	b.Run("hit", func(b *testing.B) {
		read(b, 0)
		b.SetBytes(band)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, 0)
		}
	})
}

// BenchmarkWireEncode measures the message codec with a combined
// 16-extent 512 KiB write frame.
func BenchmarkWireEncode(b *testing.B) {
	req := &wire.Request{Op: wire.OpWrite, Path: "/bench/file"}
	for i := 0; i < 16; i++ {
		req.Extents = append(req.Extents, wire.Extent{Off: int64(i) << 16, Len: 32 << 10})
	}
	req.Data = make([]byte, 512<<10)
	var buf bytes.Buffer
	b.SetBytes(512 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteRequestV2(&buf, 1, req); err != nil {
			b.Fatal(err)
		}
		h, err := wire.ReadFrameHeader(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadRequestV2(&buf, h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameWriterAllocs pins the allocation-free send path:
// a connection's FrameWriter builds every header and metadata body in
// the scratch it keeps, so once that has grown to the message size a
// DATA frame, a read response with its tail chunk, a CANCEL and a read
// request each cost nothing; the one-shot WriteResponseV2 costs the
// writer it builds.
func TestFrameWriterAllocs(t *testing.T) {
	var sink bytes.Buffer
	fw := wire.NewFrameWriter(&sink)
	chunk := make([]byte, 64<<10)
	resp := &wire.Response{N: int64(len(chunk)), Data: chunk, Trace: make([]byte, 200)}
	req := &wire.Request{Op: wire.OpRead, Path: "/bench/file", Gen: 3}
	for i := 0; i < 16; i++ {
		req.Extents = append(req.Extents, wire.Extent{Off: int64(i) << 16, Len: 32 << 10})
	}
	for _, tc := range []struct {
		name  string
		max   float64
		write func() error
	}{
		{"FrameWriter.WriteData", 0, func() error { return fw.WriteData(7, chunk) }},
		{"FrameWriter.WriteResponse", 0, func() error { return fw.WriteResponse(7, resp, 0) }},
		{"FrameWriter.WriteCancel", 0, func() error { return fw.WriteCancel(7) }},
		{"FrameWriter.WriteRequest", 0, func() error { return fw.WriteRequest(7, req) }},
		{"WriteResponseV2", 3, func() error { return wire.WriteResponseV2(&sink, 7, resp, 0) }},
	} {
		sink.Grow(1 << 20)
		got := testing.AllocsPerRun(50, func() {
			sink.Reset()
			if err := tc.write(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per message, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// BenchmarkServerIO measures the raw unshaped I/O server over loopback
// TCP: the substrate floor under every figure.
func BenchmarkServerIO(b *testing.B) {
	srv, err := server.Listen(server.Config{Root: b.TempDir(), Name: "bench"}, "")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := server.NewClient(srv.Addr())
	defer cli.Close()
	ctx := context.Background()
	const chunk = 256 << 10
	data := make([]byte, chunk)

	b.Run("write", func(b *testing.B) {
		b.SetBytes(chunk)
		for i := 0; i < b.N; i++ {
			if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "f",
				Extents: []wire.Extent{{Off: int64(i%64) * chunk, Len: chunk}}, Data: data}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(chunk)
		for i := 0; i < b.N; i++ {
			if _, err := cli.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "f",
				Extents: []wire.Extent{{Off: int64(i%64) * chunk, Len: chunk}}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
