// Package core implements the DPFS client engine: the layer under the
// public API that turns Open/Read/Write/Close calls into brick plans,
// groups them into (optionally combined) per-server requests, and moves
// the bytes over TCP to the I/O servers (Sections 2, 4 and 6 of the
// paper). One FS value plays the role of the DPFS client library linked
// into one compute process; its rank drives the staggered request
// schedule of Section 4.2.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dpfs/internal/cache"
	"dpfs/internal/gossip"
	"dpfs/internal/meta"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// Options tune the client engine. The zero value sends the paper's
// "general approach" requests (one per brick, no combination), one per
// server at a time; the evaluation's "Combined" bars set Combine and
// Stagger, and every bar sets MaxInflight 1.
type Options struct {
	// Combine groups all bricks of an access that live on the same
	// server into one request (Section 4.2).
	Combine bool
	// Stagger starts rank r's server sweep at server r mod S so
	// clients do not convoy on one device (Section 4.2). Only
	// meaningful with Combine.
	Stagger bool
	// MaxInflight caps how many server exchanges of one access may be
	// in flight at once. Zero means one per server of the file: the
	// independent server exchanges overlap, hiding per-request network
	// and handler latency. One is the paper's client, which "issues its
	// requests one at a time" (Sec. 4.2) — the evaluation figures set
	// it (internal/bench). Whatever the bound, requests launch in
	// Stagger order, the first error wins, and context cancellation
	// stops the remaining exchanges.
	MaxInflight int
	// Owner names the creating user in DPFS-FILE-ATTR.
	Owner string
	// Dial overrides how I/O-server connections are established (fault
	// injection, alternate transports). Nil uses plain TCP.
	Dial server.DialFunc
	// Retry tunes per-RPC timeouts, the retry/backoff ladder and the
	// per-server breaker of every I/O client this engine creates. The
	// zero value applies the server package defaults.
	Retry server.RetryPolicy
	// CacheBytes, when positive, enables the client-side brick data
	// cache: reads fetch whole bricks — the paper's access unit ("the
	// second half will be discarded", Sec. 3.2) — which are kept (LRU,
	// bounded to this many bytes), and repeated reads are served
	// locally. The engine's own writes invalidate overlapping bricks;
	// there is no cross-client coherence (see DESIGN.md §9). Zero
	// disables caching (the default — the paper's client keeps
	// nothing): a read then asks each server for one range per touched
	// brick, the covering span of the wanted pieces, and where they
	// leave holes in it a selection has the server sieve them out, so
	// exactly the wanted bytes come back (DESIGN.md §6).
	CacheBytes int64
	// MetaTTL, when positive, enables the client-side metadata cache:
	// Open and Stat serve file attributes, distribution rows and server
	// registrations from memory for up to this long, skipping the
	// metadata database on the hot path. The engine's own create,
	// remove and rename invalidate eagerly; other clients' changes are
	// seen after at most MetaTTL (and stale distributions are caught by
	// the servers' generation check). Zero disables the cache.
	MetaTTL time.Duration
	// Readahead, when positive (and CacheBytes is set), prefetches up
	// to this many bricks ahead of a detected sequential brick-access
	// pattern, through the same dispatch loop in the background so the
	// next read finds its bricks already cached.
	Readahead int
	// TraceSample is the fraction of requests that get wire-propagated
	// trace identity when tracing is enabled (EnableTracing). Values
	// <= 0 or >= 1 sample every request (the default); a value in
	// (0, 1) samples that fraction. Unsampled requests still record a
	// local client-side trace, but servers see no trace context.
	TraceSample float64
	// SlowRequest, when positive, logs every traced request slower
	// than this threshold to the event log as a slow_request event
	// carrying the full stitched trace.
	SlowRequest time.Duration
	// Events receives the engine's cluster events (failovers, degraded
	// writes, retry exhaustion, breaker transitions, slow requests).
	// Nil uses the process-default log.
	Events *obs.EventLog
}

// Client-engine metric names (in the engine's obs.Registry). Latency
// histograms record microseconds.
const (
	MetricRequests       = "client_requests_total"
	MetricBytesMoved     = "client_bytes_moved_total"
	MetricBytesUseful    = "client_bytes_useful_total"
	MetricRequestLatency = "client_request_latency_us"
	// MetricInflight gauges how many server exchanges the engine has
	// in flight right now: per access never more than
	// Options.MaxInflight, summed over concurrent accesses.
	MetricInflight = "client_inflight"
	// MetricFailovers counts reads redirected to a backup replica after
	// the preferred replica's server failed at the transport level.
	MetricFailovers = "client_failovers_total"
	// MetricDegradedWrites counts writes that succeeded with fewer than
	// all replicas reachable (every brick still hit at least one).
	MetricDegradedWrites = "client_degraded_writes_total"
	// MetricFailureReports counts server failures reported to the
	// catalog's health table.
	MetricFailureReports = "client_failure_reports_total"
	// MetricDeltasApplied counts gossip server-table deltas the engine
	// decoded off piggybacked RPC responses and applied (DESIGN.md §14).
	MetricDeltasApplied = "gossip_deltas_applied_total"
	// MetricDeadHints counts servers the engine marked hinted-dead from
	// a gossip delta, letting reads fail over immediately instead of
	// waiting out a timeout or the metadata cache TTL.
	MetricDeadHints = "gossip_dead_hints_total"
	// MetricDeadHintSkips counts read exchanges redirected straight to
	// replica failover because their preferred server was hinted dead.
	MetricDeadHintSkips = "gossip_dead_hint_skips_total"
)

// FS is one compute node's DPFS client instance.
type FS struct {
	cat  meta.Router
	rank int
	opts Options

	reg    *obs.Registry
	traces *obs.TraceLog // nil unless EnableTracing was called
	events *obs.EventLog

	metaCache *cache.Meta // nil unless Options.MetaTTL > 0
	dataCache *cache.Data // nil unless Options.CacheBytes > 0

	// Readahead lifecycle: prefetch goroutines run under raCtx and are
	// tracked by raWG so Close can cancel and drain them.
	raCtx    context.Context
	raCancel context.CancelFunc
	raWG     sync.WaitGroup

	mu      sync.Mutex
	clients map[string]*server.Client // server name -> I/O client
	addrs   map[string]string         // server name -> address (cached)
	closed  bool

	// Gossip hints piggybacked on RPC responses (DESIGN.md §14): the
	// last health record seen per server name, incarnation-ordered so a
	// stale delta arriving late cannot resurrect or re-kill a server.
	hintMu sync.Mutex
	hints  map[string]serverHint
}

// serverHint is the engine's view of one server's gossip health record.
type serverHint struct {
	inc   int64
	state string
}

// NewFS builds a client around a catalog connection (a *meta.Catalog
// over one catalog server or one replica group). rank is the
// compute-node rank used for staggered scheduling.
func NewFS(cat meta.Router, rank int, opts Options) *FS {
	if opts.Owner == "" {
		opts.Owner = "dpfs"
	}
	fs := &FS{
		cat:     cat,
		rank:    rank,
		opts:    opts,
		reg:     obs.NewRegistry(),
		events:  opts.Events,
		clients: make(map[string]*server.Client),
		addrs:   make(map[string]string),
		hints:   make(map[string]serverHint),
	}
	if fs.events == nil {
		fs.events = obs.Events()
	}
	if opts.MetaTTL > 0 {
		fs.metaCache = cache.NewMeta(opts.MetaTTL, fs.reg)
	}
	if opts.CacheBytes > 0 {
		fs.dataCache = cache.NewData(opts.CacheBytes, fs.reg)
	}
	fs.raCtx, fs.raCancel = context.WithCancel(context.Background())
	return fs
}

// Metrics returns the engine's metric registry (per-Client counters
// and the request latency histogram).
func (fs *FS) Metrics() *obs.Registry { return fs.reg }

// SetMetrics replaces the engine's registry, letting several clients
// aggregate into one (the bench harness shares a registry across all
// compute ranks). Call before issuing I/O.
func (fs *FS) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fs.reg = reg
	if fs.metaCache != nil {
		fs.metaCache.SetMetrics(reg)
	}
	if fs.dataCache != nil {
		fs.dataCache.SetMetrics(reg)
	}
}

// EnableTracing starts recording request traces into a ring of the
// given capacity and returns the log. Each traced client request
// carries one child span per contacted server with its brick count and
// byte total — the observable form of Section 4.2's request
// combination.
func (fs *FS) EnableTracing(capacity int) *obs.TraceLog {
	fs.traces = obs.NewTraceLog(capacity)
	return fs.traces
}

// TraceLog returns the engine's trace log (nil when tracing is off).
func (fs *FS) TraceLog() *obs.TraceLog { return fs.traces }

// Events returns the engine's cluster event log (never nil).
func (fs *FS) Events() *obs.EventLog { return fs.events }

// metaSpan starts a traced root span for one metadata operation and
// arms the catalog connection's trace propagation, so a remote
// metadata database's spans come back stitched below it. The returned
// func finishes the span; it is a no-op when tracing is off or the
// operation was not sampled. Propagation is best-effort and
// last-setter-wins — concurrent metadata operations may attach to each
// other's parents, which skews attribution but never correctness.
func (fs *FS) metaSpan(op, path string) func() {
	if !fs.sample() {
		return func() {}
	}
	root := obs.NewRootSpan("client.meta")
	root.Op = op
	root.Path = path
	fs.cat.SetTraceSpan(root)
	return func() {
		fs.cat.SetTraceSpan(nil)
		root.End()
		fs.traces.Add(&obs.Trace{Root: root})
	}
}

// sample reports whether the next traced request should carry
// wire-propagated trace identity, per Options.TraceSample.
func (fs *FS) sample() bool {
	if fs.traces == nil {
		return false
	}
	ts := fs.opts.TraceSample
	if ts <= 0 || ts >= 1 {
		return true
	}
	return rand.Float64() < ts
}

// Stats returns this engine's traffic counters: its own, unless
// SetMetrics shares its registry with other engines.
func (fs *FS) Stats() Stats {
	return Stats{
		Requests:         fs.reg.Counter(MetricRequests).Value(),
		BytesTransferred: fs.reg.Counter(MetricBytesMoved).Value(),
		BytesUseful:      fs.reg.Counter(MetricBytesUseful).Value(),
	}
}

// Catalog exposes the underlying catalog surface (used by the shell
// and admin tools).
func (fs *FS) Catalog() meta.Router { return fs.cat }

// Rank returns the compute-node rank.
func (fs *FS) Rank() int { return fs.rank }

// Options returns the engine options.
func (fs *FS) Options() Options { return fs.opts }

// Close cancels in-flight readahead and drops all server
// connections.
func (fs *FS) Close() error {
	fs.raCancel()
	fs.raWG.Wait()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	for _, c := range fs.clients {
		c.Close()
	}
	fs.clients = make(map[string]*server.Client)
	return nil
}

// client returns (creating if needed) the I/O client for a server
// name.
func (fs *FS) client(name string) (*server.Client, error) {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil, errors.New("dpfs: file system client closed")
	}
	if c, ok := fs.clients[name]; ok {
		fs.mu.Unlock()
		return c, nil
	}
	addr, ok := fs.addrs[name]
	fs.mu.Unlock()
	if !ok && fs.metaCache != nil {
		if si, hit := fs.metaCache.GetServer(name); hit {
			addr, ok = si.Addr, true
		}
	}
	if !ok {
		si, err := fs.cat.Server(name)
		if err != nil {
			return nil, err
		}
		if fs.metaCache != nil {
			fs.metaCache.PutServer(si)
		}
		addr = si.Addr
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, errors.New("dpfs: file system client closed")
	}
	if c, ok := fs.clients[name]; ok {
		return c, nil
	}
	fs.addrs[name] = addr
	c := server.NewClientWith(addr, server.ClientConfig{
		Dial:    fs.opts.Dial,
		Retry:   fs.opts.Retry,
		Metrics: fs.reg,
		Events:  fs.events,
		OnDelta: fs.ApplyDelta,
	})
	fs.clients[name] = c
	return c, nil
}

// ApplyDelta folds a gossip server-table delta piggybacked on an RPC
// response into the engine's server view (DESIGN.md §14). The delta is
// best-effort cargo: anything that does not decode is dropped without
// touching the carrying RPC. Applied records update cached server
// addresses and maintain the hinted-dead set that lets reads skip
// straight to replica failover instead of waiting out a timeout. The
// engine's I/O clients call it for every piggybacked delta; tests and
// admin tooling may inject deltas directly.
func (fs *FS) ApplyDelta(delta []byte) {
	recs, err := gossip.DecodeDelta(delta)
	if err != nil || len(recs) == 0 {
		return
	}
	fs.reg.Counter(MetricDeltasApplied).Inc()
	for i := range recs {
		fs.applyServerRecord(&recs[i])
	}
}

// applyServerRecord applies one gossip health record: incarnation-
// ordered hint maintenance plus address refresh for servers that
// re-registered somewhere else.
func (fs *FS) applyServerRecord(rec *gossip.Record) {
	if rec.Name == "" {
		return
	}
	fs.refreshAddr(rec.Name, rec.Addr)

	fs.hintMu.Lock()
	cur, ok := fs.hints[rec.Name]
	if ok && rec.Inc < cur.inc {
		fs.hintMu.Unlock()
		return // stale: an older incarnation cannot override a newer one
	}
	wasDead := ok && cur.state == gossip.StateDead
	fs.hints[rec.Name] = serverHint{inc: rec.Inc, state: rec.State}
	fs.hintMu.Unlock()

	switch rec.State {
	case gossip.StateDead:
		if !wasDead {
			fs.reg.Counter(MetricDeadHints).Inc()
			fs.events.Emit(obs.EventGossipSuspect, "client", map[string]string{
				"server": rec.Name,
				"state":  rec.State,
				"inc":    fmt.Sprint(rec.Inc),
			})
		}
	case gossip.StateSuspect:
		if !ok || (cur.state != gossip.StateSuspect && cur.state != gossip.StateDead) {
			fs.events.Emit(obs.EventGossipSuspect, "client", map[string]string{
				"server": rec.Name,
				"state":  rec.State,
				"inc":    fmt.Sprint(rec.Inc),
			})
		}
	}
}

// refreshAddr updates the engine's cached address for a server when a
// gossip record shows it registered somewhere else, dropping the stale
// pooled client so the next request dials the new address.
func (fs *FS) refreshAddr(name, addr string) {
	if addr == "" {
		return
	}
	fs.mu.Lock()
	old, ok := fs.addrs[name]
	var stale *server.Client
	if ok && old != addr {
		fs.addrs[name] = addr
		stale = fs.clients[name]
		delete(fs.clients, name)
	}
	fs.mu.Unlock()
	if stale != nil {
		stale.Close()
	}
	if ok && old != addr && fs.metaCache != nil {
		if si, hit := fs.metaCache.GetServer(name); hit {
			si.Addr = addr
			fs.metaCache.PutServer(si)
		}
	}
}

// hintedDead reports whether gossip last marked a server dead. Used by
// the read path to pre-fail exchanges that would otherwise burn a full
// RPC timeout discovering what the cluster already knows.
func (fs *FS) hintedDead(name string) bool {
	fs.hintMu.Lock()
	defer fs.hintMu.Unlock()
	return fs.hints[name].state == gossip.StateDead
}

// DeadHints returns the names of servers currently hinted dead by
// gossip (sorted; for debug endpoints and tests).
func (fs *FS) DeadHints() []string {
	fs.hintMu.Lock()
	defer fs.hintMu.Unlock()
	var out []string
	for name, h := range fs.hints {
		if h.state == gossip.StateDead {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Hint is the DPFS-API hint structure of Section 6: the user's
// knowledge about future access conveyed to the file system at create
// time.
type Hint struct {
	// Level selects the file level; zero defaults to LevelLinear, the
	// most general.
	Level stripe.Level
	// BrickBytes is the linear brick size (default 64 KiB).
	BrickBytes int64
	// Tile is the multidimensional brick shape; when empty a square
	// tile of about 64 KiB is derived from the dims.
	Tile []int64
	// Pattern and Grid give the HPF distribution for array-level files
	// (e.g. (*, BLOCK) over 8 processors = Pattern {Star, Block}, Grid
	// {1, 8}).
	Pattern []stripe.Dist
	Grid    []int64
	// NumIONodes suggests how many I/O servers to stripe over; zero
	// uses all registered servers.
	NumIONodes int
	// Servers pins the exact server set (by name), overriding
	// NumIONodes selection. Used by benchmarks that want a specific
	// class mix.
	Servers []string
	// Placement overrides the striping algorithm; nil picks greedy
	// when the chosen servers have heterogeneous performance numbers
	// and round-robin otherwise.
	Placement stripe.Placement
	// Perm is the file permission (default 0644).
	Perm int
	// NoCapacityCheck skips the DPFS-SERVER capacity admission check
	// at create time.
	NoCapacityCheck bool
	// Replicas is the file's replication factor R: every brick is
	// placed on R distinct servers, writes fan out to all replicas and
	// reads fail over between them. 0 or 1 means unreplicated (the
	// default, today's behavior); R must not exceed the server count.
	Replicas int
}

// DefaultLinearBrick is the linear brick size used when the hint does
// not specify one.
const DefaultLinearBrick = 64 << 10

// File is an open DPFS file handle.
type File struct {
	fs     *FS
	info   meta.FileInfo
	rs     *stripe.ReplicaSet // full replica layout, [brick][rank]
	assign []int              // brick -> preferred (rank-0) server index
	stats  fileStats
	closed bool

	// Readahead state (used only when the engine has a data cache and
	// Options.Readahead > 0): the handle watches its own read pattern
	// and prefetches ahead of a sequential brick walk.
	raMu   sync.Mutex
	raLast int  // last brick of the previous read; -1 = no reads yet
	raHigh int  // highest brick already scheduled for prefetch
	raBusy bool // one prefetch batch in flight at a time
}

// newFile builds a handle around a looked-up (or freshly created) file
// record.
func newFile(fs *FS, fi meta.FileInfo, rs *stripe.ReplicaSet) *File {
	return &File{
		fs:     fs,
		info:   fi,
		rs:     rs,
		assign: rs.Primary(),
		raLast: -1,
		raHigh: -1,
	}
}

// Info returns the file's meta data.
func (f *File) Info() meta.FileInfo { return f.info }

// Stats returns the traffic this handle generated.
func (f *File) Stats() Stats {
	return Stats{
		Requests:         f.stats.requests.Load(),
		BytesTransferred: f.stats.transferred.Load(),
		BytesUseful:      f.stats.useful.Load(),
	}
}

// Geometry returns the file's brick geometry.
func (f *File) Geometry() *stripe.Geometry { return &f.info.Geometry }

// Assignment returns the file's preferred (rank-0) brick→server-index
// assignment (do not mutate).
func (f *File) Assignment() []int { return f.assign }

// Replicas returns the file's full replica layout (do not mutate).
func (f *File) Replicas() *stripe.ReplicaSet { return f.rs }

// Create makes a new DPFS file holding an array of the given element
// size and dims, striped per the hint, and opens it.
func (fs *FS) Create(path string, elemSize int64, dims []int64, hint Hint) (*File, error) {
	defer fs.metaSpan("create", path)()
	g, err := buildGeometry(elemSize, dims, &hint)
	if err != nil {
		return nil, err
	}

	infos, err := fs.selectServers(&hint)
	if err != nil {
		return nil, err
	}
	servers := make([]string, len(infos))
	perf := make([]int, len(infos))
	for i, si := range infos {
		servers[i] = si.Name
		perf[i] = si.Performance
	}
	placement := hint.Placement
	if placement == nil {
		placement = defaultPlacement(perf)
	}
	replicas := hint.Replicas
	if replicas < 1 {
		replicas = 1
	}
	assign, err := stripe.AssignReplicas(placement, g.NumBricks(), len(servers), replicas)
	if err != nil {
		return nil, err
	}
	lists := stripe.ReplicaLists(assign, len(servers))
	if !hint.NoCapacityCheck {
		if err := fs.checkCapacity(infos, g, lists); err != nil {
			return nil, err
		}
	}

	perm := hint.Perm
	if perm == 0 {
		perm = 0o644
	}
	clean, err := meta.CleanPath(path)
	if err != nil {
		return nil, err
	}
	gen, err := fs.cat.NextGeneration(clean)
	if err != nil {
		return nil, err
	}
	fi := meta.FileInfo{
		Path:       clean,
		Owner:      fs.opts.Owner,
		Perm:       perm,
		Size:       g.Size(),
		Geometry:   *g,
		Placement:  placement.Name(),
		Servers:    servers,
		Generation: gen,
		Replicas:   replicas,
	}
	if err := fs.cat.CreateReplicated(fi, assign); err != nil {
		return nil, err
	}
	rs, err := stripe.ReplicaSetFromLists(lists, g.NumBricks(), replicas)
	if err != nil {
		return nil, err
	}
	if err := fs.materialize(fi); err != nil {
		// Leave no catalog entry for a file whose generation never
		// reached the servers.
		if _, rerr := fs.cat.RemoveFile(clean); rerr != nil {
			return nil, fmt.Errorf("dpfs: create %s: %v (catalog rollback also failed: %v)", clean, err, rerr)
		}
		return nil, fmt.Errorf("dpfs: create %s: %w", clean, err)
	}
	if fs.metaCache != nil {
		fs.metaCache.PutFile(fi, rs)
	}
	if fs.dataCache != nil {
		// A path reuse (remove + create) must not serve the old
		// incarnation's bricks; generations already prevent aliasing,
		// this just frees the dead entries early.
		fs.dataCache.InvalidatePath(clean)
	}
	return newFile(fs, fi, rs), nil
}

// materialize creates each server's (empty) generationed subfile at
// create time. This arms the stale-generation check everywhere the
// file lives: a later reader holding an older cached distribution of
// the same path finds a newer generation on the server and errors,
// instead of reading the missing old subfile as zeros.
func (fs *FS) materialize(fi meta.FileInfo) error {
	for _, name := range fi.Servers {
		c, err := fs.client(name)
		if err != nil {
			return err
		}
		req := &wire.Request{
			Op:      wire.OpTruncate,
			Path:    fi.Path,
			Gen:     fi.Generation,
			Extents: []wire.Extent{{Len: 0}},
		}
		if _, err := c.Do(context.Background(), req); err != nil {
			return err
		}
	}
	return nil
}

// Open opens an existing DPFS file, serving the lookup from the
// metadata cache when one is enabled.
func (fs *FS) Open(path string) (*File, error) {
	defer fs.metaSpan("open", path)()
	clean, err := meta.CleanPath(path)
	if err != nil {
		return nil, err
	}
	if fs.metaCache != nil {
		if fi, rs, ok := fs.metaCache.GetFile(clean); ok {
			return newFile(fs, fi, rs), nil
		}
	}
	fi, rs, err := fs.cat.LookupReplicated(clean)
	if err != nil {
		return nil, err
	}
	if fs.metaCache != nil {
		fs.metaCache.PutFile(fi, rs)
	}
	return newFile(fs, fi, rs), nil
}

// Stat returns a file's attributes, served from the metadata cache
// when one is enabled (a cache miss loads and caches the full record,
// so a following Open is free too).
func (fs *FS) Stat(path string) (meta.FileInfo, error) {
	defer fs.metaSpan("stat", path)()
	clean, err := meta.CleanPath(path)
	if err != nil {
		return meta.FileInfo{}, err
	}
	if fs.metaCache == nil {
		return fs.cat.Stat(clean)
	}
	if fi, _, ok := fs.metaCache.GetFile(clean); ok {
		return fi, nil
	}
	fi, rs, err := fs.cat.LookupReplicated(clean)
	if err != nil {
		return meta.FileInfo{}, err
	}
	fs.metaCache.PutFile(fi, rs)
	return fi, nil
}

// InvalidateMeta drops a path from the metadata cache. Mutations that
// go to the catalog directly (chmod, chown, size updates) call it so
// cached attributes do not outlive the change by more than they must;
// with no cache enabled it is a no-op.
func (fs *FS) InvalidateMeta(path string) {
	if fs.metaCache == nil {
		return
	}
	if clean, err := meta.CleanPath(path); err == nil {
		fs.metaCache.InvalidateFile(clean)
	}
}

// Remove deletes a DPFS file: its catalog rows and every server's
// subfile.
func (fs *FS) Remove(ctx context.Context, path string) error {
	fi, err := fs.cat.RemoveFile(path)
	if err != nil {
		return err
	}
	if fs.metaCache != nil {
		fs.metaCache.InvalidateFile(fi.Path)
	}
	if fs.dataCache != nil {
		fs.dataCache.InvalidatePath(fi.Path)
	}
	var firstErr error
	for _, name := range fi.Servers {
		c, err := fs.client(name)
		if err == nil {
			_, err = c.Do(ctx, &wire.Request{Op: wire.OpRemove, Path: fi.Path, Gen: fi.Generation})
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Rename moves a DPFS file: the catalog records switch atomically,
// then each server's subfile is renamed to the new name (the paper
// keys subfiles by the DPFS path). If any server rename fails the
// catalog rename is reverted before the error is returned.
func (fs *FS) Rename(ctx context.Context, oldPath, newPath string) error {
	cleanOld, err := meta.CleanPath(oldPath)
	if err != nil {
		return err
	}
	cleanNew, err := meta.CleanPath(newPath)
	if err != nil {
		return err
	}
	servers, gen, err := fs.cat.RenameFile(cleanOld, cleanNew)
	if err != nil {
		return err
	}
	if fs.metaCache != nil {
		fs.metaCache.InvalidateFile(cleanOld)
		fs.metaCache.InvalidateFile(cleanNew)
	}
	if fs.dataCache != nil {
		fs.dataCache.InvalidatePath(cleanOld)
		fs.dataCache.InvalidatePath(cleanNew)
	}
	renamed := make([]string, 0, len(servers))
	for _, name := range servers {
		c, err := fs.client(name)
		if err == nil {
			_, err = c.Do(ctx, &wire.Request{Op: wire.OpRename, Path: cleanOld, Gen: gen, Data: []byte(cleanNew)})
		}
		if err != nil {
			// Roll back: subfiles already moved go back, then the
			// catalog records.
			for _, done := range renamed {
				if c2, e2 := fs.client(done); e2 == nil {
					_, _ = c2.Do(ctx, &wire.Request{Op: wire.OpRename, Path: cleanNew, Gen: gen, Data: []byte(cleanOld)})
				}
			}
			if _, _, rerr := fs.cat.RenameFile(cleanNew, cleanOld); rerr != nil {
				return fmt.Errorf("dpfs: rename %s: %v (catalog rollback also failed: %v)", cleanOld, err, rerr)
			}
			return fmt.Errorf("dpfs: rename %s: %w", cleanOld, err)
		}
		renamed = append(renamed, name)
	}
	return nil
}

// Close releases the handle. Data is durable on the servers as soon as
// each write returns, so Close is cheap; it exists to mirror
// DPFS-Close() and catch use-after-close bugs.
func (f *File) Close() error {
	if f.closed {
		return errors.New("dpfs: file already closed")
	}
	f.closed = true
	return nil
}

// buildGeometry derives the stripe geometry from dims and the hint.
func buildGeometry(elemSize int64, dims []int64, hint *Hint) (*stripe.Geometry, error) {
	level := hint.Level
	if level == 0 {
		level = stripe.LevelLinear
	}
	g := &stripe.Geometry{Level: level, ElemSize: elemSize, Dims: append([]int64(nil), dims...)}
	switch level {
	case stripe.LevelLinear:
		g.BrickBytes = hint.BrickBytes
		if g.BrickBytes == 0 {
			g.BrickBytes = DefaultLinearBrick
		}
	case stripe.LevelMultidim:
		g.Tile = append([]int64(nil), hint.Tile...)
		if len(g.Tile) == 0 {
			g.Tile = defaultTile(elemSize, dims)
		}
	case stripe.LevelArray:
		g.Pattern = append([]stripe.Dist(nil), hint.Pattern...)
		g.Grid = append([]int64(nil), hint.Grid...)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// defaultTile picks a near-square tile of roughly DefaultLinearBrick
// bytes.
func defaultTile(elemSize int64, dims []int64) []int64 {
	nd := len(dims)
	target := int64(DefaultLinearBrick) / elemSize
	if target < 1 {
		target = 1
	}
	side := int64(1)
	for side*side <= target {
		side++
	}
	side--
	out := make([]int64, nd)
	for d := range out {
		out[d] = side
		if out[d] > dims[d] {
			out[d] = dims[d]
		}
		if out[d] < 1 {
			out[d] = 1
		}
	}
	return out
}

// selectServers picks the server set for a new file: pinned names, or
// the fastest NumIONodes of the registry.
func (fs *FS) selectServers(hint *Hint) ([]meta.ServerInfo, error) {
	if len(hint.Servers) > 0 {
		out := make([]meta.ServerInfo, len(hint.Servers))
		for i, n := range hint.Servers {
			si, err := fs.serverInfo(n)
			if err != nil {
				return nil, err
			}
			out[i] = si
		}
		return out, nil
	}
	var all []meta.ServerInfo
	if fs.metaCache != nil {
		if cached, ok := fs.metaCache.GetServers(); ok {
			// Copy: the cached slice is shared and the sort below
			// mutates.
			all = append([]meta.ServerInfo(nil), cached...)
		}
	}
	if all == nil {
		loaded, err := fs.cat.Servers()
		if err != nil {
			return nil, err
		}
		if fs.metaCache != nil {
			fs.metaCache.PutServers(loaded)
			loaded = append([]meta.ServerInfo(nil), loaded...)
		}
		all = loaded
	}
	if len(all) == 0 {
		return nil, errors.New("dpfs: no I/O servers registered")
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Performance != all[j].Performance {
			return all[i].Performance < all[j].Performance
		}
		return all[i].Name < all[j].Name
	})
	n := hint.NumIONodes
	if n <= 0 || n > len(all) {
		n = len(all)
	}
	return all[:n], nil
}

// serverInfo loads one server's registration through the metadata
// cache when enabled.
func (fs *FS) serverInfo(name string) (meta.ServerInfo, error) {
	if fs.metaCache != nil {
		if si, ok := fs.metaCache.GetServer(name); ok {
			return si, nil
		}
	}
	si, err := fs.cat.Server(name)
	if err != nil {
		return meta.ServerInfo{}, err
	}
	if fs.metaCache != nil {
		fs.metaCache.PutServer(si)
	}
	return si, nil
}

// checkCapacity rejects a creation that would push any chosen server
// past its DPFS-SERVER capacity, accounting existing files by bricks x
// slot bytes through the catalog (replicas count once per copy, so the
// admission check prices in write amplification). Concurrent creations
// may both pass the check (admission is advisory, like the paper's
// capacity attribute); the subfile stores are sparse so an
// over-admitted file degrades space, not correctness.
func (fs *FS) checkCapacity(infos []meta.ServerInfo, g *stripe.Geometry, lists [][]stripe.ReplicaEntry) error {
	used, err := fs.cat.UsedBytes()
	if err != nil {
		return err
	}
	slot := g.SlotBytes()
	for i, si := range infos {
		need := int64(len(lists[i])) * slot
		if used[si.Name]+need > si.Capacity {
			return fmt.Errorf("dpfs: server %q lacks capacity: %d used + %d needed > %d",
				si.Name, used[si.Name], need, si.Capacity)
		}
	}
	return nil
}

// defaultPlacement is greedy on heterogeneous servers, round-robin on
// uniform ones (where greedy degenerates to round-robin anyway).
func defaultPlacement(perf []int) stripe.Placement {
	uniform := true
	for _, p := range perf[1:] {
		if p != perf[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return stripe.RoundRobin{}
	}
	return stripe.Greedy{Perf: perf}
}
