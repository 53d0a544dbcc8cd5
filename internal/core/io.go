package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dpfs/internal/cache"
	"dpfs/internal/datatype"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// Stats count the engine's traffic since creation; benchmarks and
// tests use them to verify the request-combination and read-range
// behaviours.
type Stats struct {
	// Requests is the number of network requests issued to I/O
	// servers.
	Requests int64
	// BytesTransferred counts the data payload bytes moved over the
	// network: what writes carried out and what read responses brought
	// back, the discarded parts of whole-brick (cache fill) reads and of
	// unsieved spans included. The selections that narrow a read or a
	// write are request metadata, not counted here (nor in the
	// servers' bytes_in_total, which counts payloads).
	BytesTransferred int64
	// BytesUseful counts the bytes the application actually asked for.
	BytesUseful int64
}

// fileStats are one handle's traffic counters.
type fileStats struct {
	requests    atomic.Int64
	transferred atomic.Int64
	useful      atomic.Int64
}

// WriteSection writes the packed section data into the file region sec.
// data holds sec's elements in row-major order of the section.
func (f *File) WriteSection(ctx context.Context, sec stripe.Section, data []byte) error {
	return f.access(ctx, 0, f.subarray(sec), datatype.Bytes(len(data)), data, true)
}

// ReadSection reads the file region sec into buf (packed row-major
// order of the section).
func (f *File) ReadSection(ctx context.Context, sec stripe.Section, buf []byte) error {
	return f.access(ctx, 0, f.subarray(sec), datatype.Bytes(len(buf)), buf, false)
}

// WriteAt writes p at byte offset off of the file's logical byte space
// — the array row-major, on every level (DPFS-Write with a contiguous
// datatype).
func (f *File) WriteAt(ctx context.Context, p []byte, off int64) error {
	return f.access(ctx, off, datatype.Bytes(len(p)), datatype.Bytes(len(p)), p, true)
}

// ReadAt reads len(p) bytes at byte offset off of the file's logical
// byte space.
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) error {
	return f.access(ctx, off, datatype.Bytes(len(p)), datatype.Bytes(len(p)), p, false)
}

// WriteAtTyped is the full MPI-IO-style call (DPFS-Write with derived
// datatypes, Section 6), on every file level: ftype selects the file
// region, as bytes of its logical byte space counted from offset off —
// the analogue of an MPI file view, a section being a Subarray over the
// file's dims — and mtype selects the bytes of mem that go there. Both
// types must select the same number of bytes; the i-th byte of the one
// pairs with the i-th byte of the other.
func (f *File) WriteAtTyped(ctx context.Context, off int64, ftype, mtype datatype.Type, mem []byte) error {
	return f.access(ctx, off, ftype, mtype, mem, true)
}

// ReadAtTyped reads the file region ftype selects at off into the bytes
// of mem that mtype selects.
func (f *File) ReadAtTyped(ctx context.Context, off int64, ftype, mtype datatype.Type, mem []byte) error {
	return f.access(ctx, off, ftype, mtype, mem, false)
}

// subarray is the file type of section sec.
func (f *File) subarray(sec stripe.Section) datatype.Subarray {
	g := &f.info.Geometry
	return datatype.Subarray{ElemSize: g.ElemSize, Dims: g.Dims, Start: sec.Start, Count: sec.Count}
}

// access is every read and write: the bytes ftype selects of the file,
// from logical byte off on, move to or from the bytes mtype selects of
// buf, paired in the two types' orders. The types, the buffer and the
// file runs are all checked before anything is planned, so a malformed
// access is an error with no I/O. The plan points straight into buf:
// nothing is packed or unpacked.
func (f *File) access(ctx context.Context, off int64, ftype, mtype datatype.Type, buf []byte, write bool) error {
	if f.closed {
		return fmt.Errorf("dpfs: %s: file closed", f.info.Path)
	}
	if err := datatype.Validate(ftype); err != nil {
		return fmt.Errorf("dpfs: %s: file type: %w", f.info.Path, err)
	}
	if err := datatype.Validate(mtype); err != nil {
		return fmt.Errorf("dpfs: %s: memory type: %w", f.info.Path, err)
	}
	if ftype.Size() != mtype.Size() {
		return fmt.Errorf("dpfs: %s: the file type selects %d bytes, the memory type %d", f.info.Path, ftype.Size(), mtype.Size())
	}
	if mtype.Extent() > int64(len(buf)) {
		return fmt.Errorf("dpfs: %s: the memory type spans %d bytes, the buffer has %d", f.info.Path, mtype.Extent(), len(buf))
	}
	// A byte range, the common case, lists itself, and a run of bytes in
	// memory is the packed buffer that nil stands for.
	file, mem := []stripe.Extent{{Off: off, Len: ftype.Size()}}, []stripe.Extent(nil)
	if _, ok := ftype.(datatype.Bytes); !ok {
		file = runs(ftype, off)
	}
	if _, ok := mtype.(datatype.Bytes); !ok {
		mem = runs(mtype, 0)
	}
	plan, err := f.info.Geometry.Plan(file, mem)
	if err != nil {
		return fmt.Errorf("dpfs: %s: %w", f.info.Path, err)
	}
	return f.execute(ctx, plan, buf, write)
}

// runs lists the runs t selects, shifted by off.
func runs(t datatype.Type, off int64) []stripe.Extent {
	segs := datatype.Segments(t)
	out := make([]stripe.Extent, len(segs))
	for i, s := range segs {
		out[i] = stripe.Extent{Off: off + s.Off, Len: s.Len}
	}
	return out
}

// ExecutePlan ships a raw brick plan against the file: every segment
// moves between brick storage and buf. This is the entry point for
// layers that compute their own plans, such as the two-phase
// collective I/O in internal/collective; ordinary callers use the
// section and byte APIs.
func (f *File) ExecutePlan(ctx context.Context, plan []stripe.BrickIO, buf []byte, write bool) error {
	if f.closed {
		return fmt.Errorf("dpfs: %s: file closed", f.info.Path)
	}
	return f.execute(ctx, plan, buf, write)
}

// execute ships a plan to the servers. The general approach sends one
// request per brick in brick order; combination groups all of a
// server's bricks into one request and (with Stagger) starts the sweep
// at server rank mod S so concurrent clients do not convoy on the same
// device (Section 4.2). The requests go through the engine's one
// dispatch loop (dispatch): launched in that order, at most
// Options.MaxInflight in flight — one per server by default, which
// overlaps the independent server exchanges; 1 is the paper's "each
// compute process issues its requests one at a time".
func (f *File) execute(ctx context.Context, plan []stripe.BrickIO, buf []byte, write bool) error {
	if len(plan) == 0 {
		return nil
	}
	opts := f.fs.opts

	var useful int64
	for _, bio := range plan {
		useful += bio.Bytes()
	}
	f.fs.reg.Counter(MetricBytesUseful).Add(useful)
	f.stats.useful.Add(useful)

	// Serve read bricks held by the data cache locally; only the
	// remainder travels. fullPlan keeps the original access for write
	// invalidation and readahead pattern detection.
	fullPlan := plan
	if !write && f.fs.dataCache != nil {
		plan = f.serveFromCache(plan, buf)
	}

	opName := "read"
	if write {
		opName = "write"
	}
	var root *obs.Span
	if f.fs.traces != nil {
		if f.fs.sample() {
			// Sampled: the root carries wire-propagatable identity, so
			// every server exchange below ships the trace context and
			// the servers' spans come back stitched under this tree.
			root = obs.NewRootSpan("client.request")
		} else {
			root = obs.NewSpan("client.request")
		}
		root.Op = opName
		root.Path = f.info.Path
		root.Bricks = len(fullPlan)
		root.Bytes = useful
	}

	var err error
	if len(plan) > 0 {
		if write && f.rs.Replicas() > 1 {
			err = f.writeReplicated(ctx, plan, buf, opName, root)
		} else {
			var reqs []stripe.Request
			if opts.Combine {
				reqs = stripe.Combine(plan, f.assign)
				if opts.Stagger {
					reqs = stripe.Stagger(reqs, f.fs.rank, len(f.info.Servers))
				}
			} else {
				reqs = stripe.PerBrick(plan, f.assign)
			}
			err = f.dispatch(ctx, reqs, buf, write, opName, root, nil)
		}
	}
	if root != nil {
		root.End()
		f.fs.traces.Add(&obs.Trace{Root: root})
		if sr := f.fs.opts.SlowRequest; sr > 0 && root.Duration >= sr {
			f.fs.events.EmitTrace(obs.EventSlowRequest, "client", root.TraceID, map[string]string{
				"op":     opName,
				"path":   f.info.Path,
				"dur_us": fmt.Sprint(root.Duration.Microseconds()),
				"trace":  (&obs.Trace{Root: root}).String(),
			})
		}
	}
	if write && f.fs.dataCache != nil {
		// Invalidate overlapping bricks even on error: a failed
		// dispatch may still have written some servers. Ordering with
		// concurrent fills is safe — any fill whose bytes could predate
		// this write also took its token before now, so it is poisoned.
		gen := f.info.Generation
		for _, bio := range fullPlan {
			f.fs.dataCache.Invalidate(cache.BrickKey{Path: f.info.Path, Gen: gen, Brick: bio.Brick})
		}
	}
	if err == nil && !write {
		f.triggerReadahead(fullPlan)
	}
	return err
}

// serveFromCache copies cached whole bricks of a read plan into buf
// and returns the plan's remainder (bricks that must travel). The
// cache stores only whole bricks, so a hit serves every segment of its
// brick.
func (f *File) serveFromCache(plan []stripe.BrickIO, buf []byte) []stripe.BrickIO {
	dc := f.fs.dataCache
	g := &f.info.Geometry
	gen := f.info.Generation
	rest := make([]stripe.BrickIO, 0, len(plan))
	for _, bio := range plan {
		data, ok := dc.Get(cache.BrickKey{Path: f.info.Path, Gen: gen, Brick: bio.Brick})
		if !ok || int64(len(data)) != g.BrickBytesOf(bio.Brick) {
			rest = append(rest, bio)
			continue
		}
		for _, seg := range bio.Segs {
			copy(buf[seg.MemOff:seg.MemOff+seg.Len], data[seg.BrickOff:seg.BrickOff+seg.Len])
		}
	}
	return rest
}

// rpcSpan starts the per-server trace span for one request; nil when
// tracing is off.
func (f *File) rpcSpan(root *obs.Span, r *stripe.Request, opName string) *obs.Span {
	if root == nil {
		return nil
	}
	sp := root.Child("server.rpc")
	sp.Op = opName
	sp.Server = f.info.Servers[r.Server]
	sp.Bricks = len(r.Bricks)
	return sp
}

// dispatch is the engine's one dispatch loop. It launches reqs in
// their (possibly staggered) order with at most Options.MaxInflight
// exchanges in flight — zero means one per server of the file — in one
// of two modes. With errs nil it is fail-fast (plain reads and writes,
// readahead): the first error cancels the exchanges still in flight,
// nothing more is launched, and that error is returned; so is the
// caller's cancellation when it kept a request from launching — an
// access that skipped a request never returns nil. With errs non-nil
// (len(reqs)) it runs everything: every request is launched whatever
// the others did and its outcome recorded in errs, parallel to reqs —
// replicated writes need every replica's verdict to tell a degraded
// write from a lost brick — and the return is nil.
//
// When only one exchange can be in flight — MaxInflight 1, the paper's
// issue order, or an access of one request — the loop runs on the
// caller's goroutine: no goroutine, channel or derived context.
// Otherwise each exchange runs on its own goroutine and reports back
// on a channel; spans are created at launch, so span order is launch
// order. Requests of one plan cover disjoint bricks, so concurrent
// scatters into buf touch disjoint regions.
func (f *File) dispatch(ctx context.Context, reqs []stripe.Request, buf []byte, write bool, opName string, root *obs.Span, errs []error) error {
	limit := f.fs.opts.MaxInflight
	if limit <= 0 {
		limit = len(f.info.Servers)
	}
	limit = max(1, min(limit, len(reqs)))
	failFast := errs == nil
	gauge := f.fs.reg.Gauge(MetricInflight)

	if limit == 1 {
		for i := range reqs {
			if failFast {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			sp := f.rpcSpan(root, &reqs[i], opName)
			gauge.Inc()
			err := f.doExchange(ctx, &reqs[i], buf, write, sp)
			gauge.Dec()
			if sp != nil {
				sp.End()
			}
			if !failFast {
				errs[i] = err
			} else if err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		i   int
		err error
	}
	done := make(chan outcome, limit) // at most limit are in flight: a finished exchange never blocks here
	inflight := 0
	var first error // why a fail-fast loop stopped launching
	collect := func() {
		o := <-done
		inflight--
		if !failFast {
			errs[o.i] = o.err
		} else if o.err != nil && first == nil {
			first = o.err
			cancel()
		}
	}
	for i := range reqs {
		for inflight == limit {
			collect()
		}
		if failFast && first == nil {
			first = ctx.Err()
		}
		if first != nil {
			break
		}
		sp := f.rpcSpan(root, &reqs[i], opName)
		gauge.Inc()
		inflight++
		go func() {
			err := f.doExchange(cctx, &reqs[i], buf, write, sp)
			if sp != nil {
				sp.End()
			}
			gauge.Dec()
			done <- outcome{i, err}
		}()
	}
	for inflight > 0 {
		collect()
	}
	return first
}

// transportFailure reports whether err is a transport-class failure
// eligible for replica failover: the server could not be reached,
// timed out, answered garbage, or its breaker is open — as opposed to
// an application-level error the server itself returned (stale
// generation, bad request), which every replica would repeat, or a
// cancellation of the caller's own context.
func transportFailure(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	return !server.IsServerError(err)
}

// reportFailure best-effort marks a server suspect in the catalog's
// health table so probes and repair prioritize it. Catalog errors are
// swallowed: health reporting must never fail an I/O that the replica
// machinery already saved.
func (f *File) reportFailure(name string) {
	if ctx := f.fs.raCtx; ctx != nil && ctx.Err() != nil {
		return
	}
	if err := f.fs.cat.ReportServerFailure(name); err == nil {
		f.fs.reg.Counter(MetricFailureReports).Inc()
	}
}

// errHintedDead seeds replica failover for read exchanges pre-failed
// by a gossip dead hint: the preferred server was skipped, not tried.
// It surfaces only if every backup replica also fails.
var errHintedDead = errors.New("dpfs: preferred server hinted dead by gossip")

// doExchange performs one server exchange and, for reads of a
// replicated file, fails over to backup replicas when the preferred
// server fails at the transport level. A preferred server that gossip
// already marked dead is not even tried: the read goes straight to its
// backup replicas instead of burning an RPC timeout rediscovering the
// failure (DESIGN.md §14).
func (f *File) doExchange(ctx context.Context, r *stripe.Request, buf []byte, write bool, sp *obs.Span) error {
	if !write && f.rs.Replicas() > 1 && f.fs.hintedDead(f.info.Servers[r.Server]) {
		f.fs.reg.Counter(MetricDeadHintSkips).Inc()
		return f.failoverRead(ctx, r, buf, errHintedDead, sp)
	}
	err := f.doRequest(ctx, r, buf, write, sp)
	if err == nil || write || f.rs.Replicas() == 1 || !transportFailure(ctx, err) {
		return err
	}
	return f.failoverRead(ctx, r, buf, err, sp)
}

// failoverRead retries the bricks of a failed read exchange on their
// remaining replicas, rank by rank: the bricks are regrouped by their
// rank-k server into fresh combined requests, and a retry that itself
// fails at the transport level pushes its bricks on to rank k+1.
// Application errors propagate immediately; exhausting all R ranks
// returns the last transport error. Each redirected request is
// recorded as a failover event and, when the exchange was traced, as a
// child span nested under the failed RPC's span.
func (f *File) failoverRead(ctx context.Context, failed *stripe.Request, buf []byte, cause error, sp *obs.Span) error {
	from := f.info.Servers[failed.Server]
	f.reportFailure(from)
	pending := failed.Bricks
	lastErr := cause
	for rank := 1; rank < f.rs.Replicas() && len(pending) > 0; rank++ {
		reqs := stripe.Combine(pending, f.rs.RankAssignment(rank))
		var next []stripe.BrickIO
		for i := range reqs {
			to := f.info.Servers[reqs[i].Server]
			f.fs.reg.Counter(MetricFailovers).Inc()
			f.fs.events.EmitTrace(obs.EventFailover, "client", traceIDOf(sp), map[string]string{
				"path":   f.info.Path,
				"from":   from,
				"to":     to,
				"rank":   fmt.Sprint(rank),
				"bricks": fmt.Sprint(len(reqs[i].Bricks)),
			})
			var fsp *obs.Span
			if sp != nil {
				fsp = sp.Child("server.rpc")
				fsp.Op = "failover"
				fsp.Server = to
				fsp.Bricks = len(reqs[i].Bricks)
			}
			err := f.doRequest(ctx, &reqs[i], buf, false, fsp)
			if fsp != nil {
				fsp.End()
			}
			if err == nil {
				continue
			}
			if !transportFailure(ctx, err) {
				return err
			}
			f.reportFailure(to)
			next = append(next, reqs[i].Bricks...)
			lastErr = err
		}
		pending = next
	}
	if len(pending) > 0 {
		return lastErr
	}
	return nil
}

// traceIDOf returns a span's trace ID, or zero for nil/untraced spans.
func traceIDOf(sp *obs.Span) uint64 {
	if sp == nil {
		return 0
	}
	return sp.TraceID
}

// writeReplicated fans a write access out to every replica rank: rank
// k's bricks are grouped into per-server requests exactly like the
// primary copy's, and all ranks' requests run through the dispatch loop
// in its run-everything mode. A brick's write succeeds when at least
// one replica accepted it; transport failures on other replicas degrade
// the write (counted in client_degraded_writes and reported to the
// health table) instead of failing it. Application errors — which every
// replica would repeat — and bricks with zero surviving copies fail the
// access; the caller invalidates the cache either way, so a partially
// landed write can never be served stale.
func (f *File) writeReplicated(ctx context.Context, plan []stripe.BrickIO, buf []byte, opName string, root *obs.Span) error {
	opts := f.fs.opts
	var reqs []stripe.Request
	for rank := 0; rank < f.rs.Replicas(); rank++ {
		var rr []stripe.Request
		if opts.Combine {
			rr = stripe.Combine(plan, f.rs.RankAssignment(rank))
			if opts.Stagger {
				rr = stripe.Stagger(rr, f.fs.rank, len(f.info.Servers))
			}
		} else {
			rr = stripe.PerBrick(plan, f.rs.RankAssignment(rank))
		}
		reqs = append(reqs, rr...)
	}

	errs := make([]error, len(reqs))
	f.dispatch(ctx, reqs, buf, true, opName, root, errs)

	okCopies := make(map[int]int, len(plan))
	var appErr, transErr error
	for i := range reqs {
		err := errs[i]
		if err == nil {
			for _, b := range reqs[i].Bricks {
				okCopies[b.Brick]++
			}
			continue
		}
		if !transportFailure(ctx, err) {
			if appErr == nil {
				appErr = err
			}
			continue
		}
		transErr = err
		f.reportFailure(f.info.Servers[reqs[i].Server])
	}
	if appErr != nil {
		return appErr
	}
	for _, bio := range plan {
		if okCopies[bio.Brick] == 0 {
			if transErr != nil {
				return transErr
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("dpfs: %s: brick %d: every replica write failed", f.info.Path, bio.Brick)
		}
	}
	if transErr != nil {
		f.fs.reg.Counter(MetricDegradedWrites).Inc()
		f.fs.events.EmitTrace(obs.EventDegradedWrite, "client", traceIDOf(root), map[string]string{
			"path": f.info.Path,
			"err":  transErr.Error(),
		})
	}
	return nil
}

// scratchPool recycles response scratch buffers across read exchanges
// so a steady-state engine reads without per-request body allocations.
var scratchPool sync.Pool

func getScratch(n int64) []byte {
	if p, ok := scratchPool.Get().(*[]byte); ok {
		if int64(cap(*p)) >= n {
			return (*p)[:n]
		}
	}
	return make([]byte, n)
}

func putScratch(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	scratchPool.Put(&b)
}

// doRequest performs one server exchange covering all bricks of r, laid
// out by layExtents. sp, when non-nil, is the trace span covering this
// exchange.
func (f *File) doRequest(ctx context.Context, r *stripe.Request, buf []byte, write bool, sp *obs.Span) error {
	dc := f.fs.dataCache
	fill := !write && dc != nil
	// One element of each keeps a one-brick request's slot and read entry
	// off the heap; no more than one, because with several exchanges in
	// flight this frame sits on a fresh goroutine's small stack and a
	// larger array here made every dispatch pay for growing it.
	var (
		oneSlot [1]int64
		oneGot  [1]fetched
	)
	slots := oneSlot[:0]
	if len(r.Bricks) > 1 {
		slots = make([]int64, 0, len(r.Bricks))
	}
	for bi := range r.Bricks {
		ls := f.rs.SlotOn(r.Bricks[bi].Brick, r.Server)
		if ls < 0 {
			return fmt.Errorf("dpfs: %s: brick %d has no replica on server %s",
				f.info.Path, r.Bricks[bi].Brick, f.info.Servers[r.Server])
		}
		slots = append(slots, ls)
	}
	x, got := layExtents(&f.info.Geometry, r.Bricks, slots, fill, buf, write, oneGot[:0])
	moved := x.moved

	op := wire.OpRead
	if write {
		op = wire.OpWrite
	}
	client, err := f.fs.client(f.info.Servers[r.Server])
	if err != nil {
		return err
	}
	req := &wire.Request{Op: op, Path: f.info.Path, Gen: f.info.Generation, Extents: x.exts, Sel: x.sel, Segments: x.segs}
	if tc := sp.Context(); tc.TraceID != 0 {
		// Propagate trace identity so the server's handler spans join
		// this trace; its span tree comes back in the RESP frame.
		req.TraceID, req.SpanID, req.Sampled = tc.TraceID, tc.SpanID, tc.Sampled
	}
	var scratch []byte
	if !write {
		scratch = getScratch(moved)
		defer putScratch(scratch)
	}
	// The fill token is taken before the network exchange: an
	// invalidation that lands between here and Put poisons the fill, so
	// a concurrent writer can never be overwritten by stale read bytes.
	var fillTok uint64
	if fill {
		fillTok = dc.Token()
	}
	start := time.Now()
	resp, err := client.DoScratch(ctx, req, scratch)
	f.fs.reg.Histogram(MetricRequestLatency).Record(time.Since(start).Microseconds())
	if err != nil {
		return fmt.Errorf("dpfs: %s: %w", f.info.Path, err)
	}
	f.fs.reg.Counter(MetricRequests).Inc()
	f.fs.reg.Counter(MetricBytesMoved).Add(moved)
	f.stats.requests.Add(1)
	f.stats.transferred.Add(moved)
	if sp != nil {
		sp.Extents = len(x.exts)
		sp.Bytes = moved
		if len(resp.Trace) > 0 {
			// Stitch the server's spans under this RPC span. resp.Trace
			// may alias the pooled scratch buffer, so decode (which
			// copies) must happen before the deferred putScratch runs —
			// it does: we are still inside this exchange.
			if remote, derr := obs.DecodeSpans(resp.Trace); derr == nil {
				for _, rs := range remote {
					sp.Adopt(rs)
				}
			}
		}
	}
	if write {
		return nil
	}
	if int64(len(resp.Data)) != moved {
		return fmt.Errorf("dpfs: %s: server returned %d bytes, want %d", f.info.Path, len(resp.Data), moved)
	}

	// Scatter the response into the caller's buffer, walking the bricks
	// in the order their ranges were requested.
	data := resp.Data
	for bi := range r.Bricks {
		b, g := &r.Bricks[bi], got[bi]
		part := data[:g.n]
		data = data[g.n:]
		if g.sieved {
			for _, seg := range brickOrder(b.Segs) {
				copy(buf[seg.MemOff:seg.MemOff+seg.Len], part[:seg.Len])
				part = part[seg.Len:]
			}
			continue
		}
		for _, seg := range b.Segs {
			copy(buf[seg.MemOff:seg.MemOff+seg.Len], part[seg.BrickOff-g.lo:seg.BrickOff-g.lo+seg.Len])
		}
		if fill {
			// Put copies: part aliases the pooled scratch.
			dc.Put(cache.BrickKey{Path: f.info.Path, Gen: f.info.Generation, Brick: b.Brick}, part, fillTok)
		}
	}
	return nil
}

// importChunk is the transfer unit of Import/Export.
const importChunk = 1 << 20

// Import copies size bytes from r into a new linear DPFS file at path
// (the sequential-file → DPFS direction of the Section 7 user
// interface).
func (fs *FS) Import(ctx context.Context, r io.Reader, path string, size int64, hint Hint) (err error) {
	if hint.Level == 0 {
		hint.Level = stripe.LevelLinear
	}
	if hint.Level != stripe.LevelLinear {
		return fmt.Errorf("dpfs: import requires a linear file level, have %v", hint.Level)
	}
	f, err := fs.Create(path, 1, []int64{size}, hint)
	if err != nil {
		return err
	}
	defer func() {
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			// Leave no half-imported file behind.
			_ = fs.Remove(ctx, path)
		}
	}()
	buf := make([]byte, importChunk)
	var off int64
	for off < size {
		n := importChunk
		if rem := size - off; rem < int64(n) {
			n = int(rem)
		}
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return fmt.Errorf("dpfs: import %s: %w", path, err)
		}
		if err := f.WriteAt(ctx, buf[:n], off); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// Export copies a DPFS file's full contents to w as a flat sequential
// byte stream. Multidimensional and array files are linearized
// row-major (the in-memory reorganization of Sec. 3.2).
func (fs *FS) Export(ctx context.Context, w io.Writer, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, importChunk)
	size := f.info.Geometry.Size()
	for off := int64(0); off < size; off += importChunk {
		n := min(importChunk, size-off)
		if err := f.ReadAt(ctx, buf[:n], off); err != nil {
			return err
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return fmt.Errorf("dpfs: export %s: %w", path, err)
		}
	}
	return nil
}
