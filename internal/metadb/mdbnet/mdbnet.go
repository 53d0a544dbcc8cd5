// Package mdbnet exposes a metadb database over TCP, playing the role
// POSTGRES plays in the paper: the DPFS meta-data lives in one database
// process somewhere on the network and every client performs catalog
// operations by sending SQL to it (Section 5).
//
// The protocol is internal/wire's tagged frames with bodies in
// internal/metadb's catalog codec. A request is one FrameSQL carrying
// an ordered batch of statements, each a text with the arguments for
// its '?' placeholders; the server runs them in order on the
// connection's session, stops at the first that fails, and answers
// with one FrameSQLResult under the same tag: the results so far and
// that error (metadb.Session.Batch has the exact rules, including the
// shared snapshot a batch of SELECTs reads). One request is one round
// trip however many statements it carries. Each connection owns one
// database session, so BEGIN/COMMIT/ROLLBACK have connection scope
// exactly like a real database connection; a dropped connection aborts
// its open transaction. A frame the server cannot read — another
// protocol, another kind, an undecodable body — drops the connection
// with nothing executed.
package mdbnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// Metadata network server metric names. Latencies are microseconds.
const (
	MetricActiveConns = "active_conns"
	MetricConnsTotal  = "conns_total"
	MetricRequests    = "requests_total"
	MetricErrors      = "errors_total"
	MetricRequestUS   = "request_us"
)

// request is one batch of statements from client to server. The trace
// fields are optional wire-propagated identity (zero TraceID means
// untraced); they ride in the frame's trace prefix and flags.
type request struct {
	Stmts   []metadb.Stmt
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// response carries the batch's outcome back: one result per statement
// that succeeded and, when one failed or the gate refused the batch,
// its error — so len(Results) is the index of the failing statement.
// Trace, when non-empty, is the server's span tree in obs.EncodeSpans
// format so the client can stitch the database's side into its own
// trace.
type response struct {
	Results []*metadb.Result
	Err     string
	Trace   []byte
}

// writeRequest sends req as one FrameSQL under tag, building its body
// in buf, and returns buf for reuse.
func writeRequest(fw *wire.FrameWriter, buf []byte, tag uint32, req *request) ([]byte, error) {
	buf, flags := wire.AppendTrace(buf[:0], req.TraceID, req.SpanID, req.Sampled)
	buf = metadb.AppendStmts(buf, req.Stmts)
	return buf, fw.WriteFrame(wire.FrameHeader{Kind: wire.FrameSQL, Flags: flags, Tag: tag}, buf)
}

// writeResponse sends resp as one FrameSQLResult under tag, building
// its body in buf, and returns buf for reuse.
func writeResponse(fw *wire.FrameWriter, buf []byte, tag uint32, resp *response) ([]byte, error) {
	buf = metadb.AppendResults(buf[:0], resp.Results)
	buf = metadb.AppendString(buf, resp.Err)
	buf = metadb.AppendBytes(buf, resp.Trace)
	return buf, fw.WriteFrame(wire.FrameHeader{Kind: wire.FrameSQLResult, Tag: tag}, buf)
}

// readFrame reads the next frame, which must be of kind want, into buf
// (grown as needed) and returns its header and body.
func readFrame(r io.Reader, want wire.FrameKind, buf []byte) (wire.FrameHeader, []byte, error) {
	h, err := wire.ReadFrameHeader(r)
	if err != nil {
		return h, buf, err
	}
	if h.Kind != want {
		return h, buf, fmt.Errorf("mdbnet: frame kind %d, want %d", h.Kind, want)
	}
	buf = slices.Grow(buf[:0], int(h.Len))[:h.Len]
	_, err = io.ReadFull(r, buf)
	return h, buf, err
}

// decodeRequest decodes the body of a FrameSQL.
func decodeRequest(h wire.FrameHeader, body []byte) (*request, error) {
	req := &request{}
	var err error
	if req.TraceID, req.SpanID, req.Sampled, body, err = wire.ParseTrace(h, body); err != nil {
		return nil, err
	}
	d := metadb.NewDecoder(body)
	req.Stmts = d.Stmts()
	return req, d.Finish()
}

// decodeResponse decodes the body of a FrameSQLResult. Nothing in the
// response aliases body.
func decodeResponse(body []byte) (*response, error) {
	d := metadb.NewDecoder(body)
	resp := &response{Results: d.Results(), Err: d.Text(), Trace: bytes.Clone(d.Bytes())}
	return resp, d.Finish()
}

// serverTraceCap bounds the metadata server's local trace ring.
const serverTraceCap = 256

// Server serves a metadb database to network clients.
type Server struct {
	db     *metadb.DB
	lis    net.Listener
	reg    *obs.Registry
	traces *obs.TraceLog

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	closed   bool
	draining bool
	wg       sync.WaitGroup

	gate atomic.Pointer[func() error]
}

// SetGate installs an admission check made once per request: when it
// returns an error, the whole batch is rejected with that error and
// none of its statements reaches the database. A replica group uses
// this to bounce SQL off followers with a NotPrimaryError redirect
// (DESIGN.md §13); nil removes the gate. A rejected batch never
// executed, so clients may safely resend it elsewhere.
func (s *Server) SetGate(gate func() error) {
	if gate == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&gate)
}

// connState tracks whether a connection is mid-statement, so a drain
// can let it flush its response before closing.
type connState struct {
	busy bool
}

// NewServer starts serving db on lis. It returns immediately; use
// Close to stop.
func NewServer(db *metadb.DB, lis net.Listener) *Server {
	s := &Server{
		db:     db,
		lis:    lis,
		reg:    obs.NewRegistry(),
		traces: obs.NewTraceLog(serverTraceCap),
		conns:  make(map[net.Conn]*connState),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Metrics returns the server's connection and request metrics.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Traces returns the server's local trace log: one single-span trace
// per statement that arrived carrying trace context.
func (s *Server) Traces() *obs.TraceLog { return s.traces }

// Listen starts a server on the given TCP address ("" or ":0" picks an
// ephemeral port).
func Listen(db *metadb.DB, addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mdbnet: listen: %w", err)
	}
	return NewServer(db, lis), nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, drops all connections and waits for handlers.
// The underlying database is not closed.
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

	err := s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server: it stops accepting, closes idle
// connections immediately, and lets connections that are mid-statement
// finish and flush their response before closing. ctx bounds the
// wait — on expiry the remaining connections are cut and ctx's error
// returned. The underlying database is not closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	for c, st := range s.conns {
		if !st.busy {
			c.Close()
		}
	}
	s.mu.Unlock()

	err := s.lis.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
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
	return err
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
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
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

	sess := s.db.Session()
	defer sess.Abort() // a dropped connection abandons its transaction

	br := bufio.NewReader(conn)
	fw := wire.NewFrameWriter(conn)
	var buf []byte // each request's body, then its response's
	for {
		h, body, err := readFrame(br, wire.FrameSQL, buf)
		buf = body
		if err != nil {
			return
		}
		req, err := decodeRequest(h, body)
		if err != nil {
			return
		}
		s.mu.Lock()
		st := s.conns[conn]
		if st == nil || s.draining {
			s.mu.Unlock()
			return
		}
		st.busy = true
		s.mu.Unlock()
		resp := s.serve(sess, req)
		s.reg.Counter(MetricRequests).Inc()
		if resp.Err != "" {
			s.reg.Counter(MetricErrors).Inc()
		}
		buf, err = writeResponse(fw, buf, h.Tag, resp)
		s.mu.Lock()
		st.busy = false
		drain := s.draining
		s.mu.Unlock()
		if err != nil || drain {
			return
		}
	}
}

// serve runs one request's batch on the connection's session, unless
// the gate refuses it, and builds the response.
func (s *Server) serve(sess *metadb.Session, req *request) *response {
	if g := s.gate.Load(); g != nil {
		if err := (*g)(); err != nil {
			return &response{Err: err.Error()}
		}
	}
	var sp *obs.Span
	if req.TraceID != 0 && req.Sampled {
		sp = obs.StartRemote("metadb.exec", obs.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID, Sampled: true})
		sp.Op = batchLabel(req.Stmts)
	}
	start := time.Now()
	results, err := sess.Batch(req.Stmts)
	s.reg.Histogram(MetricRequestUS).Record(time.Since(start).Microseconds())
	resp := &response{Results: results}
	if err != nil {
		resp.Err = err.Error()
	}
	if sp != nil {
		sp.End()
		s.traces.Add(&obs.Trace{Root: sp})
		resp.Trace = obs.EncodeSpans(sp)
	}
	return resp
}

// Client is a connection to an mdbnet server. A Client owns one
// database session; it is safe for concurrent use (statements are
// serialized on the connection). A broken connection heals itself: the
// statement that observes the break fails, and the next statement
// redials (getting a fresh server-side session). The failed statement
// is never resent — a COMMIT whose acknowledgement was lost must not
// be applied twice.
type Client struct {
	trace atomic.Pointer[obs.Span]

	addr string
	dial DialFunc

	mu  sync.Mutex // serializes round trips and guards the fields below it
	br  *bufio.Reader
	fw  *wire.FrameWriter
	tag uint32 // the last request's
	buf []byte // a request's body, then its response's

	// cmu guards conn and closed. It is never held across I/O, so Close
	// does not wait for a statement in flight: it closes the connection
	// under it, and the statement fails with a *TransportError.
	cmu    sync.Mutex
	conn   net.Conn // nil while broken; set with mu and cmu both held
	closed bool
}

// SetTraceSpan makes subsequent statements record "metadb.rpc" child
// spans under parent and propagate its trace context to the server
// (whose "metadb.exec" span comes back stitched below them). A nil or
// untraced parent turns propagation off. Tracing is best-effort and
// last-setter-wins: concurrent requests with different parents each
// attach to whichever parent was current when they started.
func (c *Client) SetTraceSpan(parent *obs.Span) {
	c.trace.Store(parent)
}

// DialFunc opens the transport for a client connection. Tests and
// fault injectors substitute their own.
type DialFunc func(addr string) (net.Conn, error)

// Dial connects to an mdbnet server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	return DialWith(addr, func(a string) (net.Conn, error) {
		return net.DialTimeout("tcp", a, d)
	})
}

// DialWith connects through a custom transport dialer and remembers
// it for reconnects: when the connection later breaks (server restart,
// injected fault), the next statement redials before executing.
func DialWith(addr string, dial DialFunc) (*Client, error) {
	c := &Client{addr: addr, dial: dial}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("mdbnet: dial %s: %w", addr, err)
	}
	c.attach(conn)
	return c, nil
}

var errClientClosed = errors.New("mdbnet: client closed")

// attach installs a fresh transport connection, unless the client was
// closed meanwhile. Caller holds c.mu.
func (c *Client) attach(conn net.Conn) error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed {
		conn.Close()
		return errClientClosed
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReader(conn)
	} else {
		c.br.Reset(conn)
	}
	c.fw = wire.NewFrameWriter(conn)
	return nil
}

// drop discards a broken connection so the next Exec redials. Caller
// holds c.mu.
func (c *Client) drop() {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Exec sends one SQL statement, with args for its '?' placeholders, and
// waits for its result.
func (c *Client) Exec(sql string, args ...metadb.Value) (*metadb.Result, error) {
	return first(c.Batch([]metadb.Stmt{{SQL: sql, Args: args}}))
}

// first is the outcome of a one-statement batch.
func first(res []*metadb.Result, err error) (*metadb.Result, error) {
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Batch sends stmts as one request and waits for the one response: the
// server runs them in order on this connection's session and stops at
// the first that fails. It returns the results of the statements that
// succeeded — their count is the failing statement's index — and that
// statement's error; a *TransportError instead means the request may
// or may not have run, in part or whole.
func (c *Client) Batch(stmts []metadb.Stmt) ([]*metadb.Result, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	req := request{Stmts: stmts}
	var sp *obs.Span
	if parent := c.trace.Load(); parent != nil && parent.TraceID != 0 {
		sp = parent.Child("metadb.rpc")
		sp.Op = batchLabel(stmts)
		defer sp.End()
		tc := sp.Context()
		req.TraceID, req.SpanID, req.Sampled = tc.TraceID, tc.SpanID, tc.Sampled
	}
	resp, err := c.roundTrip(&req)
	if err != nil {
		return nil, err
	}
	if sp != nil && len(resp.Trace) > 0 {
		if remote, derr := obs.DecodeSpans(resp.Trace); derr == nil {
			for _, rs := range remote {
				sp.Adopt(rs)
			}
		}
	}
	switch n := len(resp.Results); {
	case resp.Err != "" && n < len(stmts):
		return resp.Results, errors.New(resp.Err)
	case resp.Err == "" && n == len(stmts):
		return resp.Results, nil
	default:
		return nil, fmt.Errorf("mdbnet: malformed response: %d results for %d statements (error %q)", n, len(stmts), resp.Err)
	}
}

// roundTrip writes one request and reads its response, redialing first
// if the previous exchange broke the connection.
func (c *Client) roundTrip(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cmu.Lock()
	conn, closed := c.conn, c.closed
	c.cmu.Unlock()
	if closed {
		return nil, errClientClosed
	}
	if conn == nil {
		// The previous request broke the connection; reconnect with a
		// fresh server-side session before sending this one.
		conn, err := c.dial(c.addr)
		if err != nil {
			return nil, &TransportError{Op: "redial", Addr: c.addr, Err: err}
		}
		if err := c.attach(conn); err != nil {
			return nil, err
		}
	}
	c.tag++
	var err error
	if c.buf, err = writeRequest(c.fw, c.buf, c.tag, req); err != nil {
		c.drop()
		return nil, &TransportError{Op: "send", Addr: c.addr, Err: err}
	}
	h, body, err := readFrame(c.br, wire.FrameSQLResult, c.buf)
	c.buf = body
	var resp *response
	if err == nil && h.Tag != c.tag {
		err = fmt.Errorf("mdbnet: response for tag %d, want %d", h.Tag, c.tag)
	}
	if err == nil {
		resp, err = decodeResponse(body)
	}
	if err != nil {
		c.drop()
		return nil, &TransportError{Op: "receive", Addr: c.addr, Err: err}
	}
	return resp, nil
}

// sqlKeyword returns the statement's leading keyword, lower-cased
// ("select", "insert", ...), for span labelling.
func sqlKeyword(sql string) string {
	f := strings.Fields(sql)
	if len(f) == 0 {
		return ""
	}
	return strings.ToLower(f[0])
}

// batchLabel labels a request's span: its first statement's keyword,
// and how many more statements ride along ("begin+3").
func batchLabel(stmts []metadb.Stmt) string {
	switch len(stmts) {
	case 0:
		return ""
	case 1:
		return sqlKeyword(stmts[0].SQL)
	}
	return fmt.Sprintf("%s+%d", sqlKeyword(stmts[0].SQL), len(stmts)-1)
}

// Close tears the connection down (aborting any open transaction on
// the server side) and disables reconnects.
func (c *Client) Close() error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
