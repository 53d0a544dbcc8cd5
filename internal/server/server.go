// Package server implements the DPFS I/O server of Section 2: a
// process on a storage machine that accepts brick requests over TCP and
// performs the actual I/O through the local file system API, storing
// each DPFS file's local bricks as one subfile. Requests are serviced
// concurrently (one goroutine per connection reading frames, one per
// request in flight on it); an optional netsim.Model shapes service time
// to emulate the paper's heterogeneous storage classes.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpfs/internal/gossip"
	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// Config configures a server.
type Config struct {
	// Root is the directory under which subfiles are stored.
	Root string
	// Model, when non-nil, charges simulated service time per request.
	Model *netsim.Model
	// Name labels the server in errors and logs.
	Name string
	// Events, when non-nil, receives the server's state-transition
	// events (drain begin/end, stale generations); nil falls back to
	// the process-wide obs.Events() log.
	Events *obs.EventLog
	// SlowRequest, when positive, emits a slow_request event (with the
	// request's span tree, when sampled) for any request whose handling
	// exceeds the threshold.
	SlowRequest time.Duration
}

// Server metric names (in the server's obs.Registry). Latency
// histograms record microseconds; the per-op handler histograms are
// named "op_<name>_us" (op_read_us, op_write_us, ...).
const (
	MetricActiveConns    = "active_conns"
	MetricConnsTotal     = "conns_total"
	MetricRequests       = "requests_total"
	MetricErrors         = "errors_total"
	MetricBytesIn        = "bytes_in_total"
	MetricBytesOut       = "bytes_out_total"
	MetricSubfileIO      = "subfile_io_us"
	MetricNetsimWait     = "netsim_wait_us"
	MetricCopyBytes      = "copy_bytes_total"
	MetricCopyPeerErrors = "copy_peer_errors_total"
	MetricDiskErrors     = "disk_errors_total"
	// MetricGossipDeltasSent counts gossip table deltas piggybacked on
	// outgoing responses (DESIGN.md §14).
	MetricGossipDeltasSent = "gossip_deltas_sent_total"
	// MetricSubfileBytesRead counts the bytes reads took from subfiles,
	// shipped or sieved away alike; bytes_out_total counts the shipped.
	MetricSubfileBytesRead = "subfile_bytes_read_total"
	// MetricBytesOutZeroCopy counts the part of bytes_out_total that
	// sendfile moved from subfiles to sockets without a copy through
	// the server (DESIGN.md "Wire protocol").
	MetricBytesOutZeroCopy = "bytes_out_zero_copy_total"
)

// OpMetric names the handler latency histogram for an op.
func OpMetric(op wire.Op) string {
	return "op_" + strings.ToLower(op.String()) + "_us"
}

// serverTraceCap bounds the per-server ring of recent sampled request
// traces served at /debug/trace.
const serverTraceCap = 256

// Server is one DPFS I/O server instance.
type Server struct {
	cfg    Config
	lis    net.Listener
	reg    *obs.Registry
	traces *obs.TraceLog
	events *obs.EventLog

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	files    map[string]*subfile
	gens     map[string]int64 // local base path → highest generation seen
	closed   bool
	draining bool
	wg       sync.WaitGroup

	// gossip, when set, is the server's membership node: OpGossip
	// requests are handed to it, and table deltas piggyback on outgoing
	// responses (DESIGN.md §14).
	gossip atomic.Pointer[gossip.Node]

	ctx    context.Context
	cancel context.CancelFunc
}

// connState tracks what Shutdown drains: inflight counts a
// connection's claimed tags. A connection with any finishes (and
// flushes) its claimed work; idle ones are closed immediately.
type connState struct {
	inflight int
	// gossipVer is the gossip-table version this connection last saw:
	// each client conn receives each membership change exactly once,
	// piggybacked on whatever response goes out next.
	gossipVer uint64
}

// subfile is an open local file with a reference to keep handle reuse
// cheap across requests.
type subfile struct {
	mu  sync.Mutex // serializes truncates; reads and writes are positional and do not take it
	f   *os.File
	raw syscall.RawConn // f's descriptor, for frames sent by sendfile
}

// Listen starts a server on addr ("" picks an ephemeral loopback
// port).
func Listen(cfg Config, addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	return New(cfg, lis)
}

// New starts a server on an existing listener.
func New(cfg Config, lis net.Listener) (*Server, error) {
	if cfg.Root == "" {
		return nil, errors.New("server: Config.Root is required")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("server: create root: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		lis:    lis,
		reg:    obs.NewRegistry(),
		traces: obs.NewTraceLog(serverTraceCap),
		events: cfg.Events,
		conns:  make(map[net.Conn]*connState),
		files:  make(map[string]*subfile),
		gens:   make(map[string]int64),
		ctx:    ctx,
		cancel: cancel,
	}
	if s.events == nil {
		s.events = obs.Events()
	}
	if cfg.Model != nil {
		s.reg.RegisterHistogram(MetricNetsimWait, cfg.Model.WaitHistogram())
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Model returns the server's performance model (may be nil).
func (s *Server) Model() *netsim.Model { return s.cfg.Model }

// Metrics returns the server's metric registry: connection and session
// gauges, per-op handler latency histograms, bytes in/out, subfile I/O
// time and (when a model is attached) the netsim wait histogram.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Traces returns the server's ring of recent sampled request traces
// (requests that arrived carrying wire trace context). Served at
// /debug/trace by the daemon.
func (s *Server) Traces() *obs.TraceLog { return s.traces }

// component names the server in event-log entries.
func (s *Server) component() string {
	if s.cfg.Name != "" {
		return "server/" + s.cfg.Name
	}
	return "server"
}

// Close stops the server immediately: the listener and every
// connection are torn down without waiting for in-flight requests. Use
// Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	err := s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.closeFiles()
	return err
}

// Shutdown drains the server: it stops accepting connections, lets
// every request already being served finish and flush its response,
// closes idle connections immediately, and refuses requests that arrive
// after the drain began (their connections drop, so clients retry or
// fail over). When ctx expires first, the remaining connections are
// torn down Close-style. Either way the listener is closed and all
// handler goroutines have exited on return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	for c, st := range s.conns {
		if st.inflight == 0 {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.events.Emit(obs.EventDrainBegin, s.component(), nil)

	forced := false
	err := s.lis.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: abandon the drain and force-close what remains.
		forced = true
		s.cancel()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	s.cancel()
	s.closeFiles()
	s.events.Emit(obs.EventDrainEnd, s.component(),
		map[string]string{"forced": strconv.FormatBool(forced)})
	return err
}

func (s *Server) closeFiles() {
	s.mu.Lock()
	for _, sf := range s.files {
		sf.f.Close()
	}
	s.files = nil // open() refuses from here on
	s.mu.Unlock()
}

// Draining reports whether a graceful Shutdown is in progress or done.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// HealthState summarizes the server's degraded-state signals for a
// health endpoint: cumulative local disk I/O failures and failures
// reaching copy-source peers during repair.
type HealthState struct {
	Status         string `json:"status"` // "ok", "degraded" or "draining"
	DiskErrors     int64  `json:"disk_errors"`
	CopyPeerErrors int64  `json:"copy_peer_errors"`
}

// SetGossip attaches a gossip membership node: OpGossip requests are
// answered by it, and table deltas piggyback on outgoing responses so
// clients track membership at RPC latency. Safe to call at any time;
// nil detaches.
func (s *Server) SetGossip(n *gossip.Node) {
	s.gossip.Store(n)
}

// attachDelta piggybacks a gossip table delta on resp when the table
// advanced past what this connection last saw. Best-effort: the
// response goes out unchanged when gossip is off or the table is
// quiet.
func (s *Server) attachDelta(st *connState, resp *wire.Response) {
	g := s.gossip.Load()
	if g == nil || st == nil || resp == nil {
		return
	}
	s.mu.Lock()
	last := st.gossipVer
	s.mu.Unlock()
	delta, v := g.DeltaSince(last)
	if v == last {
		return
	}
	s.mu.Lock()
	if st.gossipVer < v {
		st.gossipVer = v
	}
	s.mu.Unlock()
	if delta != nil {
		resp.Delta = delta
		s.reg.Counter(MetricGossipDeltasSent).Inc()
	}
}

// Health reports the server's current health classification.
func (s *Server) Health() HealthState {
	h := HealthState{
		Status:         "ok",
		DiskErrors:     s.reg.Counter(MetricDiskErrors).Value(),
		CopyPeerErrors: s.reg.Counter(MetricCopyPeerErrors).Value(),
	}
	if h.DiskErrors > 0 || h.CopyPeerErrors > 0 {
		h.Status = "degraded"
	}
	if s.Draining() {
		h.Status = "draining"
	}
	return h
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = &connState{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	s.reg.Counter(MetricConnsTotal).Inc()
	s.reg.Gauge(MetricActiveConns).Inc()
	defer func() {
		s.reg.Gauge(MetricActiveConns).Dec()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.handleFrames(conn)
}

// handleFrames serves a tagged-frame session: the read loop decodes
// frames, each REQ frame spawns a handler goroutine for its tag, and
// responses are written back in completion order — frames of different
// tags interleave on the wire as subfile I/O completes, so one
// connection carries a whole dispatch burst. CANCEL frames cancel the
// named tag's context (a client that gives up on a tag says so without
// giving up the conn; a peer that disconnects entirely ends connCtx via
// the read loop's exit, so a shaped server's device is released either
// way). A peer speaking anything but frames (the retired 0xD9
// protocol, the retired 0xDB gossip exchange) fails the first header
// read and is closed without a response.
func (s *Server) handleFrames(conn net.Conn) {
	// connCtx scopes every op of this connection: it dies with the
	// server and with the peer.
	connCtx, cancel := context.WithCancel(s.ctx)
	br := bufio.NewReaderSize(conn, 64<<10)
	out := &frameOut{fw: wire.NewFrameWriter(conn), sender: newFrameSender(conn)}
	var wg sync.WaitGroup
	// Handlers must finish (and flush) before handleConn closes the
	// conn; the read loop's exit cancels connCtx first so ops aborted
	// by a disconnect don't run to completion against a dead peer.
	defer wg.Wait()
	defer cancel()
	var cmu sync.Mutex
	tagCancels := make(map[uint32]context.CancelFunc)
	for {
		h, err := wire.ReadFrameHeader(br)
		if err != nil {
			return // disconnect or framing error
		}
		switch h.Kind {
		case wire.FrameReq:
			req, err := wire.ReadRequestV2(br, h, getReadBuf)
			if err != nil {
				return
			}
			// Claim the tag against a concurrent drain: claimed tags run
			// to completion and flush, a refused claim drops the conn
			// (its client retries or fails over).
			s.mu.Lock()
			st := s.conns[conn]
			if s.draining || st == nil {
				s.mu.Unlock()
				if req.Data != nil {
					putReadBuf(req.Data)
				}
				// Unlike a disconnect, a refusal must not cancel the
				// tags this conn already claimed: stop reading and wait
				// them out; the conn closes behind their last flush.
				wg.Wait()
				return
			}
			st.inflight++
			s.mu.Unlock()
			reqCtx, reqCancel := context.WithCancel(connCtx)
			cmu.Lock()
			tagCancels[h.Tag] = reqCancel
			cmu.Unlock()
			wg.Add(1)
			go func(tag uint32, req *wire.Request) {
				defer wg.Done()
				s.serveTag(reqCtx, conn, st, out, tag, req)
				reqCancel()
				cmu.Lock()
				delete(tagCancels, tag)
				cmu.Unlock()
				s.release(conn, st)
			}(h.Tag, req)
		case wire.FrameCancel:
			// Cancel the tag's in-flight op; a CANCEL for an unknown
			// (already finished, never started) tag is silently ignored.
			cmu.Lock()
			if c := tagCancels[h.Tag]; c != nil {
				c()
			}
			cmu.Unlock()
			if err := wire.DiscardFrameBody(br, h); err != nil {
				return
			}
		case wire.FrameData:
			// Request payloads are consumed inside ReadRequestV2; a DATA
			// frame here means the stream lost framing — drop the conn.
			return
		default:
			// Unknown kinds are skipped for forward compatibility; they
			// must not fail the session or any in-flight tag.
			if err := wire.DiscardFrameBody(br, h); err != nil {
				return
			}
		}
	}
}

// frameOut is the write side of one frame session: mu serializes
// response frames across the session's tag handlers and guards fw and
// sender.
type frameOut struct {
	mu sync.Mutex
	fw *wire.FrameWriter
	// sender sends full DATA frames by sendfile when the conn is a bare
	// TCP socket, on Linux (sendfile_linux.go); nil keeps every frame on
	// the copy path.
	sender *frameSender
}

// zeroCopy sends one tag's full DATA frames of plain extents straight
// from the subfile to the conn. A nil *zeroCopy sends none, and every
// frame is copied through the read buffer instead.
type zeroCopy struct {
	out  *frameOut
	tag  uint32
	sent int64 // frame bytes sent, zeros completing a short subfile included
	file int64 // the part of sent that sendfile took from subfiles
	err  error // a failed send: the stream is desynchronized
}

// frame sends one DATA frame of StreamChunk bytes of sf from off under
// the session's write lock, as WriteData would, and returns how many of
// them sf held.
func (z *zeroCopy) frame(sf *subfile, off int64) (int64, error) {
	z.out.mu.Lock()
	n, err := z.out.sender.send(sf.raw, z.tag, off)
	z.out.mu.Unlock()
	z.file += int64(n)
	if err != nil {
		z.err = err
		return int64(n), err
	}
	z.sent += wire.StreamChunk
	return int64(n), nil
}

// serveTag runs one tagged request and writes its response frames.
// Read payloads stream as DATA frames chunk by chunk (the write mutex
// is held per frame, so a large read does not block other tags'
// responses); on a session with a frame sender a full frame of a
// plain extent leaves by sendfile. The RESP trailer then closes the
// tag — with the read's last chunk riding in the same write, and
// carrying the error when the op failed, even mid-stream, which is why
// a failed read no longer costs the connection.
func (s *Server) serveTag(ctx context.Context, conn net.Conn, st *connState, out *frameOut, tag uint32, req *wire.Request) {
	var wErr error
	emit := func(chunk []byte) error {
		out.mu.Lock()
		err := out.fw.WriteData(tag, chunk)
		out.mu.Unlock()
		if err != nil {
			wErr = err
		}
		return err
	}
	var zc *zeroCopy
	if out.sender != nil && req.Op == wire.OpRead {
		zc = &zeroCopy{out: out, tag: tag}
	}
	resp, streamed := s.dispatchEmit(ctx, req, emit, zc)
	if req.Data != nil {
		// The request payload buffer came from the read pool
		// (ReadRequestV2's alloc hook) and the op is done with it.
		putReadBuf(req.Data)
	}
	if wErr != nil || zc != nil && zc.err != nil {
		// A failed DATA write may have left a partial frame on the
		// wire: the stream is desynchronized, kill the session.
		conn.Close()
		return
	}
	if req.Op != wire.OpGossip {
		// A gossip exchange carries the table itself.
		s.attachDelta(st, resp)
	}
	out.mu.Lock()
	err := out.fw.WriteResponse(tag, resp, streamed)
	out.mu.Unlock()
	if req.Op == wire.OpRead && resp.Data != nil {
		putReadBuf(resp.Data)
	}
	if err != nil {
		conn.Close()
	}
}

// release returns a tag's drain claim. The read loop can be blocked
// in a frame read and so cannot poll the drain flag; the last handler
// to finish on a draining conn closes it, which both unblocks that
// read and signals the client.
func (s *Server) release(conn net.Conn, st *connState) {
	s.mu.Lock()
	st.inflight--
	drainClose := s.draining && st.inflight == 0
	s.mu.Unlock()
	if drainClose {
		conn.Close()
	}
}

// readBufPool recycles read-path extent buffers across requests:
// opRead draws from it and serveTag returns the buffer after the
// response frames are flushed, so steady-state reads allocate nothing
// per request.
var readBufPool sync.Pool

func getReadBuf(n int64) []byte {
	if p, ok := readBufPool.Get().(*[]byte); ok {
		if int64(cap(*p)) >= n {
			return (*p)[:n]
		}
	}
	return make([]byte, n)
}

func putReadBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	readBufPool.Put(&b)
}

// dispatchEmit runs one request, with an optional streaming sink: when
// emit is non-nil, read payloads are pushed through it as chunks instead
// of being buffered into the response, and the returned streamed count
// is what went through, by emit or by zc's sendfile (the caller folds
// it into its RESP trailer). Metrics, spans and slow-request accounting
// cover streamed bytes the same as buffered ones.
func (s *Server) dispatchEmit(ctx context.Context, req *wire.Request, emit func([]byte) error, zc *zeroCopy) (*wire.Response, int64) {
	start := time.Now()
	s.reg.Counter(MetricRequests).Inc()
	s.reg.Counter(MetricBytesIn).Add(int64(len(req.Data)))
	// A sampled request carries wire trace context: open a server-side
	// span under the client's RPC span so the client (which receives
	// the span tree in the response trailer) and this server's own
	// /debug/trace both see the stitched tree.
	var sp *obs.Span
	if req.TraceID != 0 && req.Sampled {
		sp = obs.StartRemote("server.request",
			obs.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID, Sampled: true})
		sp.Op = strings.ToLower(req.Op.String())
		sp.Path = req.Path
		sp.Server = s.cfg.Name
		sp.Extents = len(req.Extents)
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	var streamed int64
	var count func([]byte) error
	if emit != nil {
		count = func(chunk []byte) error {
			err := emit(chunk)
			if err == nil {
				streamed += int64(len(chunk))
			}
			return err
		}
	}
	resp, err := s.serve(ctx, req, count, zc)
	if err != nil {
		s.reg.Counter(MetricErrors).Inc()
		resp = &wire.Response{Err: fmt.Sprintf("%s: %v", s.cfg.Name, err)}
	}
	if zc != nil && zc.sent > 0 {
		streamed += zc.sent
		s.reg.Counter(MetricBytesOutZeroCopy).Add(zc.file)
	}
	elapsed := time.Since(start)
	if sp != nil {
		sp.Bytes = int64(len(req.Data)) + int64(len(resp.Data)) + streamed
		sp.End()
		s.traces.Add(&obs.Trace{Root: sp})
		resp.Trace = obs.EncodeSpans(sp)
	}
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		fields := map[string]string{
			"op":     req.Op.String(),
			"path":   req.Path,
			"dur_us": strconv.FormatInt(elapsed.Microseconds(), 10),
		}
		if sp != nil {
			fields["trace"] = (&obs.Trace{Root: sp}).String()
		}
		s.events.EmitTrace(obs.EventSlowRequest, s.component(), req.TraceID, fields)
	}
	s.reg.Histogram(OpMetric(req.Op)).Record(elapsed.Microseconds())
	s.reg.Counter(MetricBytesOut).Add(int64(len(resp.Data)) + streamed)
	return resp, streamed
}

func (s *Server) serve(ctx context.Context, req *wire.Request, emit func([]byte) error, zc *zeroCopy) (*wire.Response, error) {
	// Only some ops read a payload, and only the data ops a selection.
	// Elsewhere one is a client's mistake — a selection sent with the
	// wrong op, say — and is refused, not ignored.
	if len(req.Data) > 0 {
		switch req.Op {
		case wire.OpWrite, wire.OpRename, wire.OpCopy, wire.OpGossip:
		default:
			return nil, fmt.Errorf("%v takes no payload, got %d bytes", req.Op, len(req.Data))
		}
	}
	if len(req.Sel) > 0 && req.Op != wire.OpRead && req.Op != wire.OpWrite {
		return nil, fmt.Errorf("%v takes no selection, got %d bytes", req.Op, len(req.Sel))
	}
	switch req.Op {
	case wire.OpPing:
		return &wire.Response{}, nil
	case wire.OpRead:
		return s.opRead(ctx, req, emit, zc)
	case wire.OpWrite:
		return s.opWrite(ctx, req)
	case wire.OpRemove:
		return s.opRemove(req)
	case wire.OpStat:
		return s.opStat(req)
	case wire.OpUsage:
		return s.opUsage()
	case wire.OpTruncate:
		return s.opTruncate(req)
	case wire.OpRename:
		return s.opRename(req)
	case wire.OpCopy:
		return s.opCopy(ctx, req)
	case wire.OpGossip:
		g := s.gossip.Load()
		if g == nil {
			return nil, errors.New("gossip is off")
		}
		reply, err := g.Answer(req.Data)
		if err != nil {
			return nil, err
		}
		return &wire.Response{Data: reply}, nil
	}
	return nil, fmt.Errorf("unknown op %v", req.Op)
}

// opCopy materializes brick slots of a subfile by copying bytes from a
// source subfile — the repair primitive. Extents pair up as (dst, src);
// the source descriptor in Data names a peer server (pull over the
// wire) or, with an empty address, this server itself (a local
// generation bump). The destination generation is recorded before any
// byte moves so a stale writer racing the repair is already fenced, but
// older on-disk generations are only removed after the copy succeeded —
// the local source may BE such an older generation.
func (s *Server) opCopy(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	srcAddr, srcPath, srcGen, err := wire.ParseCopySource(req.Data)
	if err != nil {
		return nil, err
	}
	if len(req.Extents)%2 != 0 {
		return nil, fmt.Errorf("copy needs (dst, src) extent pairs, got %d extents", len(req.Extents))
	}
	dst := make([]wire.Extent, 0, len(req.Extents)/2)
	src := make([]wire.Extent, 0, len(req.Extents)/2)
	for i := 0; i+1 < len(req.Extents); i += 2 {
		d, sr := req.Extents[i], req.Extents[i+1]
		if d.Len != sr.Len {
			return nil, fmt.Errorf("copy extent pair %d: dst %d bytes vs src %d bytes", i/2, d.Len, sr.Len)
		}
		dst = append(dst, d)
		src = append(src, sr)
	}
	total, err := checkExtents("copy", src)
	if err != nil {
		return nil, err
	}
	if err := s.checkGen(req.Path, req.Gen, false); err != nil {
		return nil, err
	}
	if srcAddr == "" && srcPath == "" {
		// Cleanup form: no bytes move; superseded generations of
		// req.Path are cleared. Repair sends this only after the new
		// generation is committed to the catalog, so the old copies are
		// no longer anyone's read source or crash-recovery state.
		if len(req.Extents) != 0 {
			return nil, errors.New("copy cleanup form takes no extents")
		}
		if base, err := s.localPath(req.Path); err == nil {
			s.removeOldGens(base, req.Gen)
		}
		return &wire.Response{}, nil
	}
	var data []byte
	if srcAddr == "" {
		// Local generation bump: the source is a superseded generation
		// of this same subfile, so the read must bypass the generation
		// check that the entry checkGen above just advanced.
		data, err = s.readExtents(ctx, srcPath, srcGen, src, nil, total, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("copy local source: %w", err)
		}
		defer putReadBuf(data)
	} else {
		data, err = s.pullFrom(ctx, srcAddr, srcPath, srcGen, src)
		if err != nil {
			s.reg.Counter(MetricCopyPeerErrors).Inc()
			return nil, fmt.Errorf("copy from %s: %w", srcAddr, err)
		}
	}
	wreq := &wire.Request{Op: wire.OpWrite, Path: req.Path, Gen: req.Gen, Extents: dst, Data: data}
	if _, err := s.opWrite(ctx, wreq); err != nil {
		return nil, err
	}
	// Superseded generations are deliberately NOT removed here: repair
	// commits the new generation to the catalog only after every copy
	// landed, so the old generation must stay readable as the copy
	// source (and as the crash-recovery state) until then. The next
	// ordinary advancing write at the new generation cleans them.
	s.reg.Counter(MetricCopyBytes).Add(total)
	return &wire.Response{N: total}, nil
}

// pullFrom fetches extents of a subfile from a peer server over a
// dedicated connection (30 s unless the OpCopy's context is bounded
// tighter). When the surrounding OpCopy request is traced the pull
// carries the trace context onward, so repair copies appear in the
// stitched tree as a server.rpc child with the peer's own spans below
// it.
func (s *Server) pullFrom(ctx context.Context, addr, path string, gen int64, exts []wire.Extent) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	preq := &wire.Request{Op: wire.OpRead, Path: path, Gen: gen, Extents: exts}
	var rpc *obs.Span
	if sp := obs.SpanFromContext(ctx); sp != nil {
		rpc = sp.Child("server.rpc")
		rpc.Op = "copy.pull"
		rpc.Server = addr
		rpc.Extents = len(exts)
		tc := rpc.Context()
		preq.TraceID, preq.SpanID, preq.Sampled = tc.TraceID, tc.SpanID, tc.Sampled
	}
	resp, err := wire.Call(ctx, nil, addr, preq)
	if rpc != nil {
		rpc.End()
		if err == nil && len(resp.Trace) > 0 {
			if remote, derr := obs.DecodeSpans(resp.Trace); derr == nil {
				for _, r := range remote {
					rpc.Adopt(r)
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	if int64(len(resp.Data)) != wire.DataBytes(exts) {
		return nil, fmt.Errorf("source returned %d bytes for %d requested", len(resp.Data), wire.DataBytes(exts))
	}
	return resp.Data, nil
}

// subfileName maps a DPFS path and distribution generation to the wire
// subfile name. Generation 0 (legacy raw requests) addresses the bare
// path; generationed files live beside it as path@g<gen>, so two
// incarnations of the same DPFS path can never alias each other's
// bytes.
func subfileName(path string, gen int64) string {
	if gen == 0 {
		return path
	}
	return path + "@g" + strconv.FormatInt(gen, 10)
}

// checkGen enforces the monotonic-generation rule for a request, and is
// what turns a stale cached distribution into an error instead of wrong
// data. The server remembers, per subfile base, the highest generation
// any request has named (seeded from the files on disk the first time a
// base is touched — generations survive restarts through the @g names).
// A request older than that memory is stale: the path was removed and
// recreated after the client cached its distribution row, so the bricks
// it would address no longer exist — and since a missing subfile
// otherwise reads as zeros (hole semantics), without this check the
// staleness would be silent. advance is set by ops that may create the
// subfile (write, truncate): they also delete dead older-generation
// files left behind by a failed remove.
func (s *Server) checkGen(path string, gen int64, advance bool) error {
	if gen == 0 {
		return nil
	}
	base, err := s.localPath(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	seen, ok := s.gens[base]
	if !ok {
		seen = scanGens(base)
	}
	if gen > seen {
		s.gens[base] = gen
	} else {
		s.gens[base] = seen
	}
	s.mu.Unlock()
	if gen < seen {
		s.events.Emit(obs.EventStaleGen, s.component(), map[string]string{
			"path":      path,
			"req_gen":   strconv.FormatInt(gen, 10),
			"known_gen": strconv.FormatInt(seen, 10),
		})
		return fmt.Errorf("stale generation: request addresses %s at g%d but the server has seen g%d (file removed and recreated; re-open it)", path, gen, seen)
	}
	if advance && gen > seen && seen > 0 {
		// This generation supersedes older on-disk subfiles (a remove
		// that failed mid-way can leave them); they are dead weight and
		// must not be double-counted by usage.
		s.removeOldGens(base, gen)
	}
	return nil
}

// scanGens returns the highest @g generation present on disk for base
// (0 when none). Called once per base, under s.mu.
func scanGens(base string) int64 {
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		return 0
	}
	prefix := filepath.Base(base) + "@g"
	var max int64
	for _, e := range entries {
		g, ok := parseGen(e.Name(), prefix)
		if ok && g > max {
			max = g
		}
	}
	return max
}

func parseGen(name, prefix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	g, err := strconv.ParseInt(name[len(prefix):], 10, 64)
	if err != nil || g <= 0 {
		return 0, false
	}
	return g, true
}

// removeOldGens deletes on-disk generations of base older than gen.
func (s *Server) removeOldGens(base string, gen int64) {
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		return
	}
	prefix := filepath.Base(base) + "@g"
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), prefix); ok && g < gen {
			local := filepath.Join(filepath.Dir(base), e.Name())
			s.drop(local)
			_ = os.Remove(local)
		}
	}
}

// localPath maps a DPFS subfile name to a path under Root, rejecting
// escapes.
func (s *Server) localPath(p string) (string, error) {
	if p == "" {
		return "", errors.New("empty subfile path")
	}
	norm := strings.ReplaceAll(p, "\\", "/")
	for _, part := range strings.Split(norm, "/") {
		if part == ".." {
			return "", fmt.Errorf("invalid subfile path %q", p)
		}
	}
	return filepath.Join(s.cfg.Root, filepath.Clean("/"+norm)), nil
}

// open returns a cached handle for the subfile, creating it (and its
// parent directories) when create is set.
func (s *Server) open(p string, create bool) (*subfile, error) {
	local, err := s.localPath(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Gate on the file table, not the closed flag: a draining server
	// is closed to new requests but must still serve the ones it
	// claimed; only after closeFiles has run is the table gone.
	if s.files == nil {
		return nil, errors.New("server closed")
	}
	if sf, ok := s.files[local]; ok {
		return sf, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
		if err := os.MkdirAll(filepath.Dir(local), 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(local, flags, 0o644)
	if err != nil {
		return nil, err
	}
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	sf := &subfile{f: f, raw: raw}
	s.files[local] = sf
	return sf, nil
}

// drop closes and forgets a cached handle.
func (s *Server) drop(local string) {
	s.mu.Lock()
	if sf, ok := s.files[local]; ok {
		sf.f.Close()
		delete(s.files, local)
	}
	s.mu.Unlock()
}

// checkExtents validates a data op's extents and returns the bytes
// they cover. It runs before any buffer is taken or span opened, so
// the I/O loops below need no early exits for malformed input.
func checkExtents(op string, exts []wire.Extent) (int64, error) {
	var total int64
	for _, e := range exts {
		// An end past MaxInt64 is refused here, not found by the disk
		// (a failed pwrite marks the server degraded): every offset the
		// loops compute inside an extent then fits too.
		if e.Len < 0 || e.Off < 0 || e.Off > math.MaxInt64-e.Len {
			return 0, fmt.Errorf("invalid extent at %d of %d bytes", e.Off, e.Len)
		}
		// The running sum is bounded at every extent, so it cannot wrap
		// back into range.
		if e.Len > wire.MaxMessage-total {
			return 0, fmt.Errorf("%s of more than %d bytes out of range", op, wire.MaxMessage)
		}
		total += e.Len
	}
	return total, nil
}

// preadFull reads len(dst) bytes of the subfile at off and returns how
// many the file held; bytes past EOF read as zeros (hole semantics). A
// failure counts as a disk error.
func (s *Server) preadFull(sf *subfile, dst []byte, off int64) (int, error) {
	n, err := sf.f.ReadAt(dst, off)
	if err != nil && err != io.EOF {
		s.reg.Counter(MetricDiskErrors).Inc()
		return n, err
	}
	clear(dst[n:])
	return n, nil
}

// opRead serves a read. With a sink (every request off the wire) the
// payload streams as DATA frames and only the last chunk — for a read of
// up to StreamChunk bytes, the only one — is returned as the response's
// Data, so it leaves in the same write as the RESP trailer; without one
// the whole payload is. Either way the caller returns Data with
// putReadBuf. With zc, full frames of plain extents leave by sendfile
// (streamExtents). The storage model is charged one positioning per
// extent and the bytes shipped: a sieved extent is still one positioned
// sweep of the device, and what it skips never reaches the link.
func (s *Server) opRead(ctx context.Context, req *wire.Request, emit func([]byte) error, zc *zeroCopy) (*wire.Response, error) {
	if _, err := checkExtents("read", req.Extents); err != nil {
		return nil, err
	}
	sels, total, err := wire.ParseSelections(req.Sel, req.Extents)
	if err != nil {
		return nil, err
	}
	if _, err := s.cfg.Model.Delay(ctx, len(req.Extents), total); err != nil {
		return nil, err
	}
	if err := s.checkGen(req.Path, req.Gen, false); err != nil {
		return nil, err
	}
	tail, err := s.readExtents(ctx, req.Path, req.Gen, req.Extents, sels, total, emit, zc)
	if err != nil {
		return nil, err
	}
	return &wire.Response{Data: tail, N: total}, nil
}

// readExtents reads exts (already validated; total bytes once narrowed
// by sels) of one generationed subfile, bypassing the generation check:
// the caller has already enforced it, or is opCopy deliberately reading
// a superseded generation as its local copy source. The bytes pass
// through one pooled buffer (return it with putReadBuf): with a sink it
// holds at most StreamChunk, is emitted each time it fills and more
// follows, and comes back holding the unemitted tail; without one it
// holds everything. A missing subfile and bytes past EOF read as zeros,
// matching hole semantics (client-side geometry guarantees the extents
// are within the file's logical size).
func (s *Server) readExtents(ctx context.Context, path string, gen int64, exts []wire.Extent, sels []wire.Selection, total int64, emit func([]byte) error, zc *zeroCopy) ([]byte, error) {
	sf, err := s.open(subfileName(path, gen), false)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	size := total
	if emit != nil {
		size = min(total, wire.StreamChunk)
	}
	out := readSink{chunk: getReadBuf(size)}
	sio := s.beginSubfileIO(ctx, "read", exts, total)
	var swept int64
	if sf == nil {
		err = out.zeros(total, emit)
	} else {
		swept, err = s.streamExtents(sf, exts, sels, &out, emit, zc)
	}
	if sio.sub != nil {
		sio.sub.Swept = swept
	}
	sio.end(s)
	s.reg.Counter(MetricSubfileBytesRead).Add(swept)
	if err != nil {
		putReadBuf(out.chunk)
		return nil, err
	}
	return out.chunk[:out.pend], nil
}

// readSink is where a read's extent loop puts its bytes: chunk fills
// from the front and is emitted each time it is full and more follows,
// so what remains at the end is the unemitted tail chunk[:pend]. The
// sink function is handed to each method rather than kept here: held
// in a struct it would escape, and every read would allocate its
// caller's closures.
type readSink struct {
	chunk []byte
	pend  int
}

// flush emits chunk if it is full: the caller has more to put in.
func (o *readSink) flush(emit func([]byte) error) error {
	if o.pend == len(o.chunk) {
		if err := emit(o.chunk); err != nil {
			return err
		}
		o.pend = 0
	}
	return nil
}

// room returns the free part of chunk, emitting a full one first; the
// caller advances pend by what it fills.
func (o *readSink) room(emit func([]byte) error) ([]byte, error) {
	if err := o.flush(emit); err != nil {
		return nil, err
	}
	return o.chunk[o.pend:], nil
}

// write copies src in.
func (o *readSink) write(src []byte, emit func([]byte) error) error {
	for len(src) > 0 {
		dst, err := o.room(emit)
		if err != nil {
			return err
		}
		n := copy(dst, src)
		o.pend += n
		src = src[n:]
	}
	return nil
}

// zeros puts n zero bytes in: the chunk is cleared once and emitted as
// often as it takes.
func (o *readSink) zeros(n int64, emit func([]byte) error) error {
	clear(o.chunk)
	for ; n > int64(len(o.chunk)); n -= int64(len(o.chunk)) {
		if err := emit(o.chunk); err != nil {
			return err
		}
	}
	o.pend = int(n)
	return nil
}

// streamExtents is the one extent loop of every read: it moves exts of
// sf into out and returns how many bytes it read from the subfile. A
// plain extent is read straight into out's chunk, except that with zc,
// wherever out is empty and the extent still holds a whole frame, that
// frame goes from sf to the conn by sendfile and never enters the
// server's memory; frame boundaries fall exactly where the copy path
// puts them. An extent narrowed by a selection is sieved: its whole
// range is read, exactly as if it were plain, through a pooled window
// of at most StreamChunk, and only the selected pieces are copied on —
// so memory stays O(StreamChunk) whatever the range or the selection
// says.
func (s *Server) streamExtents(sf *subfile, exts []wire.Extent, sels []wire.Selection, out *readSink, emit func([]byte) error, zc *zeroCopy) (swept int64, err error) {
	var win []byte
	if len(sels) > 0 {
		var widest int64
		for _, sel := range sels {
			widest = max(widest, exts[sel.Extent].Len)
		}
		win = getReadBuf(min(widest, wire.StreamChunk))
		defer putReadBuf(win)
	}
	for i, e := range exts {
		if len(sels) == 0 || sels[0].Extent != i {
			for off, end := e.Off, e.Off+e.Len; off < end; {
				if err := out.flush(emit); err != nil {
					return swept, err
				}
				if zc != nil && out.pend == 0 && end-off >= wire.StreamChunk {
					n, err := zc.frame(sf, off)
					swept += n
					if err != nil {
						return swept, err
					}
					off += wire.StreamChunk
					continue
				}
				dst := out.chunk[out.pend:]
				dst = dst[:min(end-off, int64(len(dst)))]
				n, err := s.preadFull(sf, dst, off)
				swept += int64(n)
				if err != nil {
					return swept, err
				}
				out.pend += len(dst)
				off += int64(len(dst))
			}
			continue
		}
		runs := sels[0].Runs
		sels = sels[1:]
		ri, pi := 0, int64(0) // the piece being gathered: its run, its index in it
		for wlo := int64(0); wlo < e.Len; wlo += int64(len(win)) {
			w := win[:min(int64(len(win)), e.Len-wlo)]
			n, err := s.preadFull(sf, w, e.Off+wlo)
			swept += int64(n)
			if err != nil {
				return swept, err
			}
			for whi := wlo + int64(len(w)); ri < len(runs); {
				r := runs[ri]
				lo := r.Off + pi*r.Stride
				hi := lo + r.Len
				if lo >= whi {
					break
				}
				// A piece straddling the window's end is finished from
				// the next window.
				if err := out.write(w[max(lo, wlo)-wlo:min(hi, whi)-wlo], emit); err != nil {
					return swept, err
				}
				if hi > whi {
					break
				}
				if pi++; pi == r.Count {
					ri, pi = ri+1, 0
				}
			}
		}
	}
	return swept, nil
}

// subfileIO covers one data op's local I/O loop: the server.subfile
// child span under the request's span (nil when the request is
// untraced) and the start of the time MetricSubfileIO records. Every
// path out of the loop goes through end.
type subfileIO struct {
	sub   *obs.Span
	start time.Time
}

func (s *Server) beginSubfileIO(ctx context.Context, op string, exts []wire.Extent, total int64) subfileIO {
	var sub *obs.Span
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sub = sp.Child("server.subfile")
		sub.Op = op
		sub.Extents = len(exts)
		sub.Bytes = total
	}
	return subfileIO{sub: sub, start: time.Now()}
}

func (io subfileIO) end(s *Server) {
	if io.sub != nil {
		io.sub.End()
	}
	s.reg.Histogram(MetricSubfileIO).Record(time.Since(io.start).Microseconds())
}

// opWrite serves a write: the mirror of opRead. The payload holds the
// bytes of each extent in order, of its selected pieces only where a
// selection narrows it, and everything about the request is checked
// before the first byte lands. The storage model is charged as for a
// read: one positioning per extent and the bytes shipped.
func (s *Server) opWrite(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if _, err := checkExtents("write", req.Extents); err != nil {
		return nil, err
	}
	sels, total, err := wire.ParseSelections(req.Sel, req.Extents)
	if err != nil {
		return nil, err
	}
	if total != int64(len(req.Data)) {
		return nil, fmt.Errorf("write carries %d bytes for %d bytes of extents", len(req.Data), total)
	}
	if _, err := s.cfg.Model.Delay(ctx, len(req.Extents), total); err != nil {
		return nil, err
	}
	if err := s.checkGen(req.Path, req.Gen, true); err != nil {
		return nil, err
	}
	sf, err := s.open(subfileName(req.Path, req.Gen), true)
	if err != nil {
		return nil, err
	}
	sio := s.beginSubfileIO(ctx, "write", req.Extents, total)
	err = s.scatterExtents(sf, req.Extents, sels, req.Data)
	sio.end(s)
	if err != nil {
		return nil, err
	}
	return &wire.Response{N: total}, nil
}

// scatterExtents is the one extent loop of every write: it stores data,
// the bytes of exts narrowed by sels in order, into sf. A plain extent
// is one pwrite; a narrowed one is a pwrite per selected piece straight
// out of data, and the bytes between the pieces are never read or
// written — so writers of interleaved pieces of one span (ranks writing
// neighbouring columns of a brick) need no lock between them, which a
// read-modify-write of the span would.
func (s *Server) scatterExtents(sf *subfile, exts []wire.Extent, sels []wire.Selection, data []byte) error {
	put := func(off, n int64) error {
		_, err := sf.f.WriteAt(data[:n], off)
		if err != nil {
			s.reg.Counter(MetricDiskErrors).Inc()
		}
		data = data[n:]
		return err
	}
	for i, e := range exts {
		if len(sels) == 0 || sels[0].Extent != i {
			if err := put(e.Off, e.Len); err != nil {
				return err
			}
			continue
		}
		for _, r := range sels[0].Runs {
			for k := int64(0); k < r.Count; k++ {
				if err := put(e.Off+r.Off+k*r.Stride, r.Len); err != nil {
					return err
				}
			}
		}
		sels = sels[1:]
	}
	return nil
}

func (s *Server) opRemove(req *wire.Request) (*wire.Response, error) {
	if err := s.checkGen(req.Path, req.Gen, false); err != nil {
		return nil, err
	}
	local, err := s.localPath(subfileName(req.Path, req.Gen))
	if err != nil {
		return nil, err
	}
	s.drop(local)
	if err := os.Remove(local); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return &wire.Response{}, nil
}

func (s *Server) opStat(req *wire.Request) (*wire.Response, error) {
	if err := s.checkGen(req.Path, req.Gen, false); err != nil {
		return nil, err
	}
	local, err := s.localPath(subfileName(req.Path, req.Gen))
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(local)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return &wire.Response{N: 0}, nil
		}
		return nil, err
	}
	return &wire.Response{N: st.Size()}, nil
}

// opUsage walks the root and sums stored bytes: the live counterpart of
// the DPFS-SERVER capacity bookkeeping.
func (s *Server) opUsage() (*wire.Response, error) {
	var total int64
	err := filepath.WalkDir(s.cfg.Root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		s.reg.Counter(MetricDiskErrors).Inc()
		return nil, err
	}
	return &wire.Response{N: total}, nil
}

// opRename moves a subfile to a new name (both confined under Root).
// Renaming a subfile that does not exist yet succeeds: sparse DPFS
// files may have no bricks on some servers.
func (s *Server) opRename(req *wire.Request) (*wire.Response, error) {
	if err := s.checkGen(req.Path, req.Gen, false); err != nil {
		return nil, err
	}
	// The destination inherits the generation; advance its base so dead
	// leftovers under the new name are cleared.
	if err := s.checkGen(string(req.Data), req.Gen, true); err != nil {
		return nil, err
	}
	oldLocal, err := s.localPath(subfileName(req.Path, req.Gen))
	if err != nil {
		return nil, err
	}
	newLocal, err := s.localPath(subfileName(string(req.Data), req.Gen))
	if err != nil {
		return nil, err
	}
	s.drop(oldLocal)
	s.drop(newLocal)
	if err := os.MkdirAll(filepath.Dir(newLocal), 0o755); err != nil {
		return nil, err
	}
	if err := os.Rename(oldLocal, newLocal); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return &wire.Response{}, nil
		}
		return nil, err
	}
	return &wire.Response{N: 1}, nil
}

func (s *Server) opTruncate(req *wire.Request) (*wire.Response, error) {
	if len(req.Extents) != 1 {
		return nil, errors.New("truncate needs exactly one extent")
	}
	if err := s.checkGen(req.Path, req.Gen, true); err != nil {
		return nil, err
	}
	sf, err := s.open(subfileName(req.Path, req.Gen), true)
	if err != nil {
		return nil, err
	}
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if err := sf.f.Truncate(req.Extents[0].Len); err != nil {
		return nil, err
	}
	return &wire.Response{}, nil
}
