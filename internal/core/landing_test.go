package core_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/datatype"
	"dpfs/internal/fault"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// dialSmallBuf dials with a small receive buffer, so a DATA frame
// arrives over many reads and readv returns short and meets EAGAIN. The
// conn it returns is still a bare *net.TCPConn.
func dialSmallBuf(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetReadBuffer(32 << 10)
	return c, nil
}

// cutProxy stands in for a server that dies mid-stream: it forwards
// conns to target until limit bytes of responses have passed, then cuts
// every conn and stops listening, so redials are refused.
type cutProxy struct {
	lis    net.Listener
	target string
	mu     sync.Mutex
	left   int64
	conns  []net.Conn
}

func newCutProxy(t *testing.T, target string, limit int64) *cutProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{lis: lis, target: target, left: limit}
	t.Cleanup(p.cut)
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go p.serve(c)
		}
	}()
	return p
}

func (p *cutProxy) serve(c net.Conn) {
	s, err := net.Dial("tcp", p.target)
	if err != nil {
		c.Close()
		return
	}
	p.mu.Lock()
	p.conns = append(p.conns, c, s)
	p.mu.Unlock()
	go io.Copy(s, c)
	buf := make([]byte, 16<<10)
	for {
		p.mu.Lock()
		room := min(p.left, int64(len(buf)))
		p.mu.Unlock()
		if room == 0 {
			p.cut()
			return
		}
		n, err := s.Read(buf[:room])
		p.mu.Lock()
		p.left -= int64(n)
		p.mu.Unlock()
		if _, werr := c.Write(buf[:n]); err != nil || werr != nil {
			p.cut()
			return
		}
	}
}

func (p *cutProxy) cut() {
	p.lis.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.left = 0
	for _, c := range p.conns {
		c.Close()
	}
}

// TestDirectLandingMatchesCopyPath reads the same accesses through an
// engine on bare TCP conns, whose responses land by readv straight in
// the caller's memory, and through one behind a rule-free fault
// injector, whose wrapped conns land every byte through the demux
// reader's buffer. Both must return the reference bytes, byte for byte
// the same buffers — plain bands, a sieved column, joined extents,
// typed views through a strided memory type with pieces by the
// thousand, a tangled view and a cache fill (which land in buffers of
// their own and are copied out of them, the fill's kept by the cache),
// reads past the subfiles' ends, and an R=2 read whose preferred server
// dies mid-stream, so failover lands the same bricks into the same
// buffer again. client_bytes_landed_direct_total moves on
// the bare side only, and a 4 MiB band lands all of it but the at most
// 16 KiB per 256 KiB frame the reader's buffer had already taken.
func TestDirectLandingMatchesCopyPath(t *testing.T) {
	c := startCluster(t, 4)
	ctx := ctxT(t)
	writer := newFS(t, c, 0, core.Options{Combine: true})
	create := func(path string, elem int64, dims []int64, hint core.Hint, data []byte) {
		t.Helper()
		f, err := writer.Create(path, elem, dims, hint)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.WriteAt(ctx, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	const mib = 1 << 20
	band := pattern(8 * mib)
	create("/band", 1, []int64{8 * mib}, core.Hint{BrickBytes: mib}, band)
	sparse := make([]byte, 8*mib)
	copy(sparse, pattern(3*mib/2))
	create("/sparse", 1, []int64{8 * mib}, core.Hint{BrickBytes: mib}, sparse[:3*mib/2])
	grid := &refFile{dims: []int64{512, 512}, elem: 8, data: pattern(512 * 512 * 8)}
	create("/grid", 8, grid.dims, core.Hint{BrickBytes: 32 << 10}, grid.data)
	rep := pattern(4 * mib)
	create("/rep", 1, []int64{4 * mib}, core.Hint{BrickBytes: 256 << 10, Replicas: 2}, rep)

	type side struct {
		name         string
		dial         server.DialFunc
		plain, cache *core.FS
	}
	sides := []*side{
		{name: "bare", dial: dialSmallBuf},
		{name: "fault", dial: fault.New(1).DialContext},
	}
	for i, sd := range sides {
		sd.plain = newFS(t, c, 1+2*i, core.Options{Combine: true, Dial: sd.dial})
		sd.cache = newFS(t, c, 2+2*i, core.Options{Combine: true, Dial: sd.dial, CacheBytes: 16 * mib})
	}
	open := func(fs *core.FS, path string) *core.File {
		t.Helper()
		f, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	readAt := func(path string, off, n int64) func(*core.FS) ([]byte, error) {
		return func(fs *core.FS) ([]byte, error) {
			buf := make([]byte, n)
			return buf, open(fs, path).ReadAt(ctx, buf, off)
		}
	}
	typed := func(ftype, mtype datatype.Type) func(*core.FS) ([]byte, error) {
		return func(fs *core.FS) ([]byte, error) {
			mem := make([]byte, mtype.Extent())
			return mem, open(fs, "/band").ReadAtTyped(ctx, 0, ftype, mtype, mem)
		}
	}
	// typedWant is what a typed read of band leaves in a fresh buffer.
	typedWant := func(ftype, mtype datatype.Type) []byte {
		var packed []byte
		for _, s := range datatype.Segments(ftype) {
			packed = append(packed, band[s.Off:s.Off+s.Len]...)
		}
		return scatter(mtype, packed)
	}
	rng := rand.New(rand.NewSource(38))
	blocks := datatype.Vector{Count: 32, BlockLen: 1, Stride: 2, Elem: datatype.Bytes(32 << 10)}
	rows4k := datatype.Vector{Count: 256, BlockLen: 4096, Stride: 5000, Elem: datatype.Bytes(1)}
	irregular := randIndexed(rng, 256<<10, false)
	tangled := randIndexed(rng, 256<<10, true)
	column := stripe.NewSection([]int64{0, 64}, []int64{512, 64})

	for _, tc := range []struct {
		name   string
		read   func(*core.FS) ([]byte, error)
		want   []byte
		engine string // "cache": the caching engine; "failover": one of its own
	}{
		{"4 MiB band", readAt("/band", 0, 4*mib), band[:4*mib], ""},
		{"sieved column", func(fs *core.FS) ([]byte, error) {
			buf := make([]byte, column.Bytes(8))
			return buf, open(fs, "/grid").ReadSection(ctx, column, buf)
		}, grid.extract(column), ""},
		{"joined extents", readAt("/band", 100, 8*mib-300), band[100 : 8*mib-200], ""},
		{"typed through a vector memory type", typed(blocks, rows4k), typedWant(blocks, rows4k), ""},
		{"irregular view", typed(irregular, stridedMem(irregular.Size())), typedWant(irregular, stridedMem(irregular.Size())), ""},
		{"tangled view falls back", typed(tangled, stridedMem(tangled.Size())), typedWant(tangled, stridedMem(tangled.Size())), ""},
		{"cache fill falls back", readAt("/band", 2*mib+5, 2*mib), band[2*mib+5 : 4*mib+5], "cache"},
		{"past the subfiles' ends", readAt("/sparse", mib/2, 4*mib), sparse[mib/2 : 9*mib/2], ""},
		{"R=2 failover mid-stream", readAt("/rep", 0, 4*mib), rep, "failover"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [][]byte
			for _, sd := range sides {
				fs := sd.plain
				switch tc.engine {
				case "cache":
					fs = sd.cache
				case "failover":
					fs = failoverEngine(t, c, sd.dial)
				}
				direct := fs.Metrics().Counter(server.MetricClientBytesLandedDirect)
				before := direct.Value()
				buf, err := tc.read(fs)
				if err != nil {
					t.Fatalf("%s: %v", sd.name, err)
				}
				if !bytes.Equal(buf, tc.want) {
					t.Errorf("%s: read returned wrong bytes", sd.name)
				}
				got = append(got, buf)
				landed := direct.Value() - before
				switch {
				case sd.name == "fault" && landed != 0:
					t.Errorf("fault: %d bytes landed by readv behind a wrapped conn", landed)
				case sd.name == "bare" && landed == 0:
					t.Error("bare: nothing landed by readv")
				case sd.name == "bare" && tc.name == "4 MiB band" && landed < 4*mib-16*16<<10:
					t.Errorf("bare: %d bytes of a 4 MiB band landed by readv, want at least %d", landed, 4*mib-16*16<<10)
				}
				if tc.engine == "failover" && fs.Metrics().Counter(core.MetricFailovers).Value() == 0 {
					t.Errorf("%s: the read never failed over", sd.name)
				}
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Error("the bare and the fault-wrapped engine returned different buffers")
			}
		})
	}
}

// failoverEngine returns an engine dialing through dial whose conns to
// the server preferred for brick 0 of /rep pass through a cutProxy that
// cuts them 300 KiB into the server's response to it.
func failoverEngine(t *testing.T, c *cluster.Cluster, dial server.DialFunc) *core.FS {
	t.Helper()
	probe := newFS(t, c, 9, core.Options{})
	f, err := probe.Open("/rep")
	if err != nil {
		t.Fatal(err)
	}
	name := f.Info().Servers[f.Replicas().Primary()[0]]
	f.Close()
	var victim string
	for i, sp := range c.Specs {
		if sp.Name == name {
			victim = c.IOServers[i].Addr()
		}
	}
	proxy := newCutProxy(t, victim, 300<<10).lis.Addr().String()
	return newFS(t, c, 10, core.Options{Combine: true, Dial: func(ctx context.Context, addr string) (net.Conn, error) {
		if addr == victim {
			addr = proxy
		}
		return dial(ctx, addr)
	}})
}
