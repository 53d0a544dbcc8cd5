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
	"unicode"

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

// NewServer starts serving db on lis, behind gate when it is non-nil
// (SetGate, installed before the first request is read). It returns
// immediately; use Close to stop.
func NewServer(db *metadb.DB, lis net.Listener, gate func() error) *Server {
	s := &Server{
		db:     db,
		lis:    lis,
		reg:    obs.NewRegistry(),
		traces: obs.NewTraceLog(serverTraceCap),
		conns:  make(map[net.Conn]*connState),
	}
	s.SetGate(gate)
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
	return NewServer(db, lis, nil), nil
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

// Client is a connection to one catalog: a plain mdbnet server, or the
// replica group whose SQL addresses it was given (DESIGN.md §13). It is
// safe for concurrent use; requests are serialized on its one
// connection, which owns one database session. Two error classes drive
// reconnection and failover:
//
//   - A *TransportError means the request may have executed, in part or
//     whole, so it is never resent, not even to another replica: a
//     COMMIT whose acknowledgement was lost must not be applied twice.
//     The connection is dropped (the server aborts any open
//     transaction) and the next request dials the next address.
//   - A NotPrimaryError rejection is a follower's gate refusing a whole
//     request, so none of it ran: the client follows the redirect (or
//     rotates to the next address) and resends it. Inside a
//     transaction it does not: the transaction's earlier statements ran
//     on the deposed primary and die with the connection, so the
//     rejection surfaces as "transaction aborted by failover" for the
//     caller to retry the transaction whole.
type Client struct {
	trace atomic.Pointer[obs.Span]

	addrs []string
	dial  DialFunc

	mu   sync.Mutex // serializes round trips and guards the fields below it
	cur  int        // index into addrs of the believed primary
	inTx bool       // a BEGIN ran on this connection with no COMMIT/ROLLBACK yet
	br   *bufio.Reader
	fw   *wire.FrameWriter
	tag  uint32 // the last request's
	buf  []byte // a request's body, then its response's

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

// dialTCP is the default transport: TCP with a 10 s connect bound.
func dialTCP(addr string) (net.Conn, error) {
	return (&net.Dialer{Timeout: 10 * time.Second}).Dial("tcp", addr)
}

// Dial connects to one catalog server.
func Dial(addr string) (*Client, error) {
	return DialGroup([]string{addr}, nil)
}

// DialWith connects to one catalog server through a custom transport
// dialer and remembers it for reconnects: when the connection later
// breaks (server restart, injected fault), the next statement redials
// before executing.
func DialWith(addr string, dial DialFunc) (*Client, error) {
	return DialGroup([]string{addr}, dial)
}

// DialGroup connects to a catalog given its SQL address list: one
// address for a plain catalog, every replica's for a replica group
// (the same list, in the same order, on every client). A nil dial uses
// TCP. Dialing succeeds as long as one address accepts; a group's
// primary is found lazily, by redirect.
func DialGroup(addrs []string, dial DialFunc) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("mdbnet: empty catalog address list")
	}
	if dial == nil {
		dial = dialTCP
	}
	c := &Client{addrs: addrs, dial: dial}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

var errClientClosed = errors.New("mdbnet: client closed")

// connect dials addrs[cur], advancing through the list until one
// address accepts, and installs the connection unless the client was
// closed meanwhile. Caller holds c.mu.
func (c *Client) connect() error {
	var err error
	for range c.addrs {
		var conn net.Conn
		if conn, err = c.dial(c.addrs[c.cur]); err == nil {
			return c.attach(conn)
		}
		err = fmt.Errorf("mdbnet: dial %s: %w", c.addrs[c.cur], err)
		c.cur = (c.cur + 1) % len(c.addrs)
	}
	if len(c.addrs) > 1 {
		err = fmt.Errorf("mdbnet: no replica reachable in %v: %w", c.addrs, err)
	}
	return err
}

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

// drop discards the connection, and with it the server-side session
// and any transaction open on it, so the next request redials. Caller
// holds c.mu.
func (c *Client) drop() {
	c.cmu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.cmu.Unlock()
	c.inTx = false
}

// retarget points the client at a redirect address when it is in the
// list, or at the next address otherwise. Caller holds c.mu.
func (c *Client) retarget(redirect string) {
	if i := slices.Index(c.addrs, redirect); redirect != "" && i >= 0 {
		c.cur = i
		return
	}
	c.cur = (c.cur + 1) % len(c.addrs)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	// One redirect per address plus one rotation covers any single
	// failover; beyond that the group is unstable and the caller should
	// see the error.
	var rejected string
	for range len(c.addrs) + 1 {
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
		if resp.Err == "" {
			c.trackTx(stmts)
			return resp.Results, nil
		}
		redirect, ok := ParseNotPrimary(resp.Err)
		if !ok {
			// An ordinary SQL error: the statements before it ran, and so
			// did it as far as transaction state goes (a failed COMMIT
			// still ends the transaction).
			c.trackTx(stmts[:len(resp.Results)+1])
			return resp.Results, errors.New(resp.Err)
		}
		inTx := c.inTx
		c.drop()
		c.retarget(redirect)
		if inTx {
			return nil, fmt.Errorf("%w (transaction aborted by failover): %s", ErrNotPrimary, resp.Err)
		}
		rejected = resp.Err // never executed: safe to resend at the new target
	}
	return nil, fmt.Errorf("%w: no stable primary: %s", ErrNotPrimary, rejected)
}

// roundTrip writes one request and reads its response, redialing first
// if the previous exchange broke the connection. A transport failure
// drops the connection and moves the client on to the next address.
// Caller holds c.mu.
func (c *Client) roundTrip(req *request) (*response, error) {
	c.cmu.Lock()
	conn, closed := c.conn, c.closed
	c.cmu.Unlock()
	if closed {
		return nil, errClientClosed
	}
	if conn == nil {
		// The previous request broke the connection; reconnect with a
		// fresh server-side session before sending this one.
		if err := c.connect(); err != nil {
			if errors.Is(err, errClientClosed) {
				return nil, err
			}
			return nil, &TransportError{Op: "redial", Addr: c.addrs[c.cur], Err: err}
		}
	}
	addr := c.addrs[c.cur]
	c.tag++
	var err error
	if c.buf, err = writeRequest(c.fw, c.buf, c.tag, req); err != nil {
		return nil, c.fail("send", addr, err)
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
	if err == nil {
		// All results and no error, or the results before the error.
		if n, want := len(resp.Results), len(req.Stmts); (resp.Err == "") != (n == want) || n > want {
			err = fmt.Errorf("mdbnet: malformed response: %d results for %d statements (error %q)", n, want, resp.Err)
		}
	}
	if err != nil {
		return nil, c.fail("receive", addr, err)
	}
	return resp, nil
}

// fail drops the connection after a transport failure and rotates to
// the next address, so only the next request tries another replica.
// Caller holds c.mu.
func (c *Client) fail(op, addr string, err error) error {
	c.drop()
	c.cur = (c.cur + 1) % len(c.addrs)
	return &TransportError{Op: op, Addr: addr, Err: err}
}

// trackTx follows the session's transaction state through the
// statements that ran, by leading keyword. Caller holds c.mu.
func (c *Client) trackTx(ran []metadb.Stmt) {
	for i := range ran {
		switch kw := keyword(ran[i].SQL); {
		case strings.EqualFold(kw, "begin"):
			c.inTx = true
		case strings.EqualFold(kw, "commit"), strings.EqualFold(kw, "rollback"):
			c.inTx = false
		}
	}
}

// keyword returns the statement's leading word as written, without
// allocating.
func keyword(sql string) string {
	sql = strings.TrimLeftFunc(sql, unicode.IsSpace)
	if i := strings.IndexFunc(sql, unicode.IsSpace); i >= 0 {
		return sql[:i]
	}
	return sql
}

// batchLabel labels a request's span: its first statement's keyword,
// lower-cased, and how many more statements ride along ("begin+3").
func batchLabel(stmts []metadb.Stmt) string {
	switch len(stmts) {
	case 0:
		return ""
	case 1:
		return strings.ToLower(keyword(stmts[0].SQL))
	}
	return fmt.Sprintf("%s+%d", strings.ToLower(keyword(stmts[0].SQL)), len(stmts)-1)
}

// Close tears the connection down (aborting any open transaction on
// the server side) and disables reconnects. It does not wait for a
// statement in flight, which fails with a *TransportError.
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
