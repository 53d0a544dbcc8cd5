package main

// adapter.go is the only file of the benchmark that calls into
// dpfs/internal/...: it starts the in-process testbed, fixes the engine
// configuration, reads the public metric registries and replays one
// operation's steps through each layer's public functions. It uses only
// surface ROADMAP item 2 keeps (the v2 frame codec, server.Client, the
// stripe planners, cache.Data, meta.Router, mdbnet.Client.Exec,
// metadb.Parse / DB.Exec and the registries), so that change can land
// without an edit here.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path"
	"reflect"
	"sort"
	"time"

	"dpfs"
	"dpfs/internal/cache"
	"dpfs/internal/cluster"
	"dpfs/internal/meta"
	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/netsim"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// ioServers is the number of I/O servers of every workload's cluster.
const ioServers = 4

// setIfExists sets the named bool field of the struct behind ptr when
// the struct has such a field. ROADMAP item 2 deletes the switches that
// select the v2 mux and parallel dispatch (they become the only path);
// until then they must be on, and afterwards this is a no-op.
func setIfExists(ptr any, field string) {
	if f := reflect.ValueOf(ptr).Elem().FieldByName(field); f.IsValid() && f.Kind() == reflect.Bool && f.CanSet() {
		f.SetBool(true)
	}
}

// engineOptions is the one place the engine configuration is fixed:
// request combination, staggered sweep, parallel dispatch and the wire
// v2 mux — the configuration ROADMAP item 2 keeps. Only the caches
// differ between the two engines of a client.
func engineOptions(cacheBytes int64, metaTTL time.Duration) dpfs.Options {
	o := dpfs.Options{Combine: true, Stagger: true, CacheBytes: cacheBytes, MetaTTL: metaTTL}
	setIfExists(&o, "ParallelDispatch")
	setIfExists(&o, "WireV2")
	return o
}

// testbed is one running in-process cluster: four I/O servers and one
// metadata server on loopback TCP, rooted in its own scratch directory.
type testbed struct {
	clu *cluster.Cluster
	dir string
}

// startTestbed launches the workload's cluster under dir (created
// here, removed by close).
func startTestbed(w *workload, dir string) (*testbed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	specs := cluster.Uniform(ioServers)
	if w.class2 {
		specs = cluster.UniformClass(ioServers, netsim.Class2())
	}
	// MetaSync stays off: the WAL of a durable catalog is appended and
	// never fsynced, the same flush policy on both sides of a comparison.
	clu, err := cluster.Start(cluster.Config{Servers: specs, Dir: dir, DurableMeta: w.durable})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &testbed{clu: clu, dir: dir}, nil
}

// connect dials the metadata server the way an external compute process
// does and returns a client engine of the given rank.
func (tb *testbed) connect(rank int, cacheBytes int64, metaTTL time.Duration) (*dpfs.Client, error) {
	return dpfs.Connect(tb.clu.MetaSrv.Addr(), rank, engineOptions(cacheBytes, metaTTL))
}

// close stops the cluster and removes its scratch directory.
func (tb *testbed) close() error {
	err := tb.clu.Close()
	if rerr := os.RemoveAll(tb.dir); err == nil {
		err = rerr
	}
	return err
}

// Indexes into a counters reading.
const (
	cSrvRequests = iota
	cSrvBytesIn
	cSrvBytesOut
	cSrvConns
	cSrvErrors
	cSubfileSumUS
	cSubfileCount
	cNetsimSumUS
	cNetsimCount
	cNetsimBusyNS
	cMdbRequests // SQL statements the metadata server received
	cDBQueries   // statements the database executed
	cWALAppends
	cWALBytes
	cWALFsyncs
	numCounters
)

// counters is one reading of the public registries, summed over the
// I/O servers where there are several. The traced run reads them
// before and after every public call; the differences are exact because
// it has one client.
type counters [numCounters]int64

// addDelta adds after-before to c.
func (c *counters) addDelta(before, after counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// readCounters snapshots the server, netsim, mdbnet and metadb
// registries.
func (tb *testbed) readCounters() counters {
	var c counters
	for _, srv := range tb.clu.IOServers {
		s := srv.Metrics().Snapshot()
		c[cSrvRequests] += s.Counters[server.MetricRequests]
		c[cSrvBytesIn] += s.Counters[server.MetricBytesIn]
		c[cSrvBytesOut] += s.Counters[server.MetricBytesOut]
		c[cSrvConns] += s.Counters[server.MetricConnsTotal]
		c[cSrvErrors] += s.Counters[server.MetricErrors]
		c[cSubfileSumUS] += s.Histograms[server.MetricSubfileIO].Sum
		c[cSubfileCount] += s.Histograms[server.MetricSubfileIO].Count
		c[cNetsimSumUS] += s.Histograms[server.MetricNetsimWait].Sum
		c[cNetsimCount] += s.Histograms[server.MetricNetsimWait].Count
		busy, _ := srv.Model().Stats()
		c[cNetsimBusyNS] += busy.Nanoseconds()
	}
	c[cMdbRequests] = tb.clu.MetaSrv.Metrics().Counter(mdbnet.MetricRequests).Value()
	db := tb.clu.DB.Metrics().Snapshot()
	c[cDBQueries] = db.Counters[metadb.MetricQueries]
	c[cWALAppends] = db.Counters[metadb.MetricWALAppends]
	c[cWALBytes] = db.Counters[metadb.MetricWALBytes]
	c[cWALFsyncs] = db.Counters[metadb.MetricWALFsyncs]
	return c
}

// engineCounters is one reading of a client engine's cache counters.
type engineCounters struct {
	dataHits, dataMisses, dataEvictions int64
	metaHits, metaMisses                int64
}

// addDelta adds after-before to e.
func (e *engineCounters) addDelta(before, after engineCounters) {
	e.dataHits += after.dataHits - before.dataHits
	e.dataMisses += after.dataMisses - before.dataMisses
	e.dataEvictions += after.dataEvictions - before.dataEvictions
	e.metaHits += after.metaHits - before.metaHits
	e.metaMisses += after.metaMisses - before.metaMisses
}

func readEngineCounters(c *dpfs.Client) engineCounters {
	s := c.Engine().Metrics().Snapshot()
	return engineCounters{
		dataHits:      s.Counters[cache.MetricDataHits],
		dataMisses:    s.Counters[cache.MetricDataMisses],
		dataEvictions: s.Counters[cache.MetricDataEvictions],
		metaHits:      s.Counters[cache.MetricMetaHits],
		metaMisses:    s.Counters[cache.MetricMetaMisses],
	}
}

// layerProbe holds the direct handles the traced run replays through:
// one server.Client per I/O server, a catalog router and a raw SQL
// connection to the networked metadata server, the live database, and
// a private data cache.
type layerProbe struct {
	tb      *testbed
	servers map[string]*server.Client
	catConn *mdbnet.Client // the router's own connection
	router  meta.Router
	sql     *mdbnet.Client
	data    *cache.Data
	scratch []byte
	ctx     context.Context
}

func (tb *testbed) newLayerProbe(cacheBytes int64) (*layerProbe, error) {
	p := &layerProbe{tb: tb, servers: map[string]*server.Client{}, ctx: context.Background()}
	cfg := server.ClientConfig{}
	setIfExists(&cfg, "WireV2")
	for i, srv := range tb.clu.IOServers {
		p.servers[tb.clu.Specs[i].Name] = server.NewClientWith(srv.Addr(), cfg)
	}
	var err error
	if p.catConn, err = mdbnet.Dial(tb.clu.MetaSrv.Addr()); err != nil {
		return nil, err
	}
	p.router = meta.NewCatalog(p.catConn)
	if p.sql, err = mdbnet.Dial(tb.clu.MetaSrv.Addr()); err != nil {
		p.catConn.Close()
		return nil, err
	}
	p.data = cache.NewData(cacheBytes, nil)
	return p, nil
}

func (p *layerProbe) close() {
	for _, c := range p.servers {
		c.Close()
	}
	p.sql.Close()
	p.catConn.Close()
}

// dataReplay is what replaying one data op through the layers under
// the engine yields beyond the spans themselves.
type dataReplay struct {
	bricks, requests int
	under            time.Duration // plan + combine + slowest per-server RPC
	codecBytes       int64         // payload bytes the two codec steps carried
	codecAllocs      float64       // heap allocations per message, over the two messages
}

// replayData replays the steps of one data op on an open file: plan the
// section, combine and stagger the plan, run the first per-server
// request and its response through the v2 frame codec over an in-memory
// buffer, and send every per-server request straight to its server
// through a server.Client. payload is the op's packed buffer (source of
// a write, ignored by a read).
func (p *layerProbe) replayData(st *tracer, f *dpfs.File, rank int, sec dpfs.Section, byteAPI, write bool, payload []byte) (dataReplay, error) {
	var r dataReplay
	g := f.Geometry()
	var plan []stripe.BrickIO
	planDur, err := st.replay("stripe", "stripe.plan", func() (e error) {
		if byteAPI {
			plan, e = g.PlanExtents([]stripe.Extent{{Off: sec.Start[0], Len: sec.Count[0]}})
		} else {
			plan, e = g.PlanSection(sec)
		}
		return e
	})
	if err != nil {
		return r, err
	}
	info := f.Info()
	var reqs []stripe.Request
	combineDur, _ := st.replay("stripe", "stripe.combine", func() error {
		reqs = stripe.Stagger(stripe.Combine(plan, f.Assignment()), rank, len(info.Servers))
		return nil
	})
	r.bricks, r.requests = len(plan), len(reqs)

	wreqs := make([]*wire.Request, len(reqs))
	for i := range reqs {
		if wreqs[i], err = wireRequest(f, &reqs[i], write, payload); err != nil {
			return r, err
		}
	}
	if err := p.replayCodec(st, wreqs[0], &r); err != nil {
		return r, err
	}
	name := "server.rpc_read"
	if write {
		name = "server.rpc_write"
	}
	var slowest time.Duration
	for i, wreq := range wreqs {
		cli := p.servers[info.Servers[reqs[i].Server]]
		d, err := st.replay("server", name, func() error {
			_, e := cli.DoScratch(p.ctx, wreq, p.scratchFor(wreq))
			return e
		})
		if err != nil {
			return r, err
		}
		slowest = max(slowest, d)
	}
	r.under = planDur + combineDur + slowest
	return r, nil
}

// scratchFor returns a response buffer large enough for a read request
// (nil for other ops), as the engine's read path supplies one.
func (p *layerProbe) scratchFor(req *wire.Request) []byte {
	if req.Op != wire.OpRead {
		return nil
	}
	n := wire.DataBytes(req.Extents) + wire.RespOverhead
	if int64(cap(p.scratch)) < n {
		p.scratch = make([]byte, n)
	}
	return p.scratch[:n]
}

// wireRequest builds the message the engine sends for one per-server
// request: whole bricks for a read (the paper's access model), exact
// extents in brick order with the payload as scatter segments for a
// write.
func wireRequest(f *dpfs.File, r *stripe.Request, write bool, payload []byte) (*wire.Request, error) {
	g, info, rs := f.Geometry(), f.Info(), f.Replicas()
	slot := g.SlotBytes()
	req := &wire.Request{Op: wire.OpRead, Path: info.Path, Gen: info.Generation}
	if write {
		req.Op = wire.OpWrite
		req.Segments = [][]byte{}
	}
	for bi := range r.Bricks {
		b := &r.Bricks[bi]
		ls := rs.SlotOn(b.Brick, r.Server)
		if ls < 0 {
			return nil, fmt.Errorf("brick %d has no replica on server %d", b.Brick, r.Server)
		}
		base := ls * slot
		if !write {
			req.Extents = append(req.Extents, wire.Extent{Off: base, Len: g.BrickBytesOf(b.Brick)})
			continue
		}
		segs := append([]stripe.Segment(nil), b.Segs...)
		sort.Slice(segs, func(i, j int) bool { return segs[i].BrickOff < segs[j].BrickOff })
		for _, seg := range segs {
			if n := len(req.Extents); n > 0 && req.Extents[n-1].Off+req.Extents[n-1].Len == base+seg.BrickOff {
				req.Extents[n-1].Len += seg.Len
			} else {
				req.Extents = append(req.Extents, wire.Extent{Off: base + seg.BrickOff, Len: seg.Len})
			}
			req.Segments = append(req.Segments, payload[seg.MemOff:seg.MemOff+seg.Len])
		}
	}
	return req, nil
}

// replayCodec runs one request and the matching response through the
// v2 frame codec over an in-memory buffer, timing encode+decode of each
// and counting the heap allocations of the four calls.
func (p *layerProbe) replayCodec(st *tracer, req *wire.Request, r *dataReplay) error {
	const tag = 1
	resp := &wire.Response{N: int64(req.PayloadLen())}
	if req.Op == wire.OpRead {
		resp.Data = p.scratchFor(req)[:wire.DataBytes(req.Extents)]
	}
	var buf bytes.Buffer
	buf.Grow(req.PayloadLen() + len(resp.Data) + 4096)
	// The engine hands the decoder a pooled buffer for the payload; the
	// stand-in is made before counting so it is not charged to the codec.
	var into []byte
	if len(resp.Data) > 0 {
		into = make([]byte, 0, len(resp.Data)+wire.RespOverhead)
	}
	reqStep := func() error {
		buf.Reset()
		if e := wire.WriteRequestV2(&buf, tag, req); e != nil {
			return e
		}
		h, e := wire.ReadFrameHeader(&buf)
		if e != nil {
			return e
		}
		_, e = wire.ReadRequestV2(&buf, h, nil)
		return e
	}
	respStep := func() error {
		buf.Reset()
		if e := wire.WriteResponseV2(&buf, tag, resp, 0); e != nil {
			return e
		}
		_, e := wire.ReadResponseV2Into(&buf, tag, into)
		return e
	}
	// Allocations are counted over one untimed run of both messages:
	// reading the allocator's statistics stops the world.
	mallocs := heapAllocs()
	if err := reqStep(); err != nil {
		return err
	}
	if err := respStep(); err != nil {
		return err
	}
	r.codecAllocs = float64(heapAllocs()-mallocs) / 2
	r.codecBytes = int64(req.PayloadLen() + len(resp.Data))
	if _, err := st.replay("wire", "wire.req_codec", reqStep); err != nil {
		return err
	}
	_, err := st.replay("wire", "wire.resp_codec", respStep)
	return err
}

// ping times one OpPing round trip to the first I/O server: the RPC
// floor under every data request.
func (p *layerProbe) ping(st *tracer) error {
	cli := p.servers[p.tb.clu.Specs[0].Name]
	_, err := st.replay("server", "server.ping", func() error { return cli.Ping(p.ctx) })
	return err
}

// replayCache times one Put and one Get of a brick-sized buffer on the
// probe's private data cache. Keys cycle over twice the cache's
// capacity in bricks, so Put also pays for evictions once warm.
func (p *layerProbe) replayCache(st *tracer, brick []byte, i int, capacity int64) {
	span := int(2*capacity/int64(len(brick))) + 1
	k := cache.BrickKey{Path: "/probe", Gen: 1, Brick: i % span}
	st.replay("cache", "cache.put", func() error {
		p.data.Put(k, brick, p.data.Token())
		return nil
	})
	st.replay("cache", "cache.get", func() error {
		p.data.Get(k)
		return nil
	})
}

// The catalog's statements, as internal/meta issues them: the attribute
// lookup every Open starts with, and the capacity join every Create
// with the capacity check runs.
const (
	sqlLookup    = `SELECT owner, permission, size, filelevel, elem_size, dims, brick_bytes, tile, pattern, grid, placement, replicas FROM dpfs_file_attr WHERE filename = '%s'`
	sqlUsedBytes = `SELECT d.server, SUM(d.brick_count * a.slot_bytes) FROM dpfs_file_distribution d JOIN dpfs_file_attr a ON d.filename = a.filename GROUP BY d.server`
	sqlNoRow     = `SELECT filename FROM dpfs_file_attr WHERE filename = '/no/such/file'`
)

// replayOpen replays the metadata steps behind opening file: the
// router's lookup, stat and directory read through the networked
// catalog, a point SELECT that matches no row (the gob + TCP floor of
// one statement), and parse and in-process execution of the lookup on
// the live database.
func (p *layerProbe) replayOpen(st *tracer, file string) error {
	lookup := fmt.Sprintf(sqlLookup, file)
	return replaySteps(st, []replayStep{
		{"meta", "meta.lookup", func() error { _, _, e := p.router.LookupReplicated(file); return e }},
		{"meta", "meta.stat", func() error { _, e := p.router.Stat(file); return e }},
		{"meta", "meta.readdir", func() error { _, _, e := p.router.ReadDir(path.Dir(file)); return e }},
		{"mdbnet", "mdbnet.rpc", func() error { _, e := p.sql.Exec(sqlNoRow); return e }},
		{"metadb", "metadb.parse", func() error { _, e := metadb.Parse(lookup); return e }},
		{"metadb", "metadb.exec_lookup", func() error { _, e := p.tb.clu.DB.Exec(lookup); return e }},
	})
}

type replayStep struct {
	layer, name string
	fn          func() error
}

func replaySteps(st *tracer, steps []replayStep) error {
	for _, s := range steps {
		if _, err := st.replay(s.layer, s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// replayCreate replays the catalog steps of a create+remove cycle: the
// capacity join through the router and in-process on the live database,
// then allocating a generation and recording a file shaped like like
// under a scratch path, and deleting the records again.
func (p *layerProbe) replayCreate(st *tracer, like *dpfs.File, file string) error {
	fi := like.Info()
	fi.Path = file
	rs := like.Replicas()
	err := replaySteps(st, []replayStep{
		{"meta", "meta.used_bytes", func() error { _, e := p.router.UsedBytes(); return e }},
		{"metadb", "metadb.exec_used_bytes", func() error { _, e := p.tb.clu.DB.Exec(sqlUsedBytes); return e }},
	})
	if err != nil {
		return err
	}
	// Recording and deleting a file cannot be repeated, so these two
	// steps are never primed.
	if _, err = st.replayOnce("meta", "meta.create", func() error {
		gen, e := p.router.NextGeneration(file)
		if e != nil {
			return e
		}
		fi.Generation = gen
		return p.router.CreateReplicated(fi, rs.Servers)
	}); err != nil {
		return err
	}
	_, err = st.replayOnce("meta", "meta.remove", func() error { _, e := p.router.RemoveFile(file); return e })
	return err
}
