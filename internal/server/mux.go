package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dpfs/internal/wire"
)

// DefaultMuxWindow is the per-connection in-flight request bound used
// when ClientConfig does not specify one. A mux client opens another
// connection only when every existing one already carries this many
// outstanding tags, so steady-state fan-out rides one or two conns
// per server instead of one conn per concurrent request.
const DefaultMuxWindow = 32

// muxReadSlack pads the demux reader's connection read deadline beyond
// the latest per-call deadline. Per-call timeouts are enforced by the
// callers' own timers (which abandon the tag and leave the conn
// usable); the conn deadline is only the backstop that unwedges a
// reader whose peer stopped talking entirely.
const muxReadSlack = 500 * time.Millisecond

// errClientClosed fails calls in flight when the mux shuts down.
var errClientClosed = errors.New("dpfs: client closed")

// mux multiplexes a Client's requests over a small set of
// connections: each request gets a tag, frames of different tags
// interleave on one conn, and a per-conn demux reader routes response
// frames back to waiting callers. The reader's blocked read is also the
// liveness check of an idle conn: when the peer closes or resets it the
// read fails, the conn is retired (one conn_evictions_total) and the
// next request dials fresh.
type mux struct {
	c      *Client
	window int

	mu       sync.Mutex
	conns    []*muxConn
	closed   bool
	dialing  bool          // a dial is in flight (single-flight)
	dialDone chan struct{} // closed when the in-flight dial finishes
}

// muxConn is one connection and its demultiplexing state.
type muxConn struct {
	m    *mux
	conn net.Conn

	// wmu serializes frame writes and guards fw. A request's REQ+DATA
	// frames are written under one hold (the server reads payloads
	// inline, so they must stay contiguous); CANCEL frames use TryLock
	// and skip when the conn is busy writing.
	wmu sync.Mutex
	fw  *wire.FrameWriter

	// inflight reserves window slots: incremented under mux.mu when a
	// caller picks this conn, decremented (atomically, lock-free) when
	// the call finishes however it finishes.
	inflight atomic.Int64

	mu      sync.Mutex
	pending map[uint32]*muxCall
	nextTag uint32
	armed   time.Time // currently-set conn read deadline (zero = none)
	dead    bool
	active  bool // pending non-empty; mirrors the conn gauges
}

// muxCall is one in-flight tagged request.
type muxCall struct {
	deadline time.Time // per-attempt deadline (zero = unbounded)
	resp     *wire.Response
	err      error
	done     chan struct{}

	// data is the response payload landed so far. It starts as the
	// caller's scratch, emptied, and the demux reader reads DATA frames
	// straight into it. The caller takes its scratch back the moment it
	// gives up on the call, so the reader touches data only under
	// landing, which it takes (under muxConn.mu, while the tag is still
	// pending) for the length of one frame body; whoever retires the tag
	// without the reader — abandon, a conn failure — removes it from
	// pending and then waits landing out, after which the reader can
	// never reach data again.
	landing sync.Mutex
	data    []byte
}

func newMux(c *Client, window int) *mux {
	if window <= 0 {
		window = DefaultMuxWindow
	}
	return &mux{c: c, window: window}
}

// attempt performs one exchange over a muxed conn: reserve a window
// slot, register a tag, write the frames, wait for the demux reader to
// deliver the response (or abandon the tag on timeout/cancel).
func (m *mux) attempt(ctx context.Context, req *wire.Request, scratch []byte) (*wire.Response, error) {
	mc, err := m.grab(ctx)
	if err != nil {
		return nil, err
	}
	defer mc.inflight.Add(-1)

	deadline, hasDeadline := ctx.Deadline()
	if t := m.c.retry.RequestTimeout; t > 0 {
		if d := time.Now().Add(t); !hasDeadline || d.Before(deadline) {
			deadline, hasDeadline = d, true
		}
	}
	call := &muxCall{data: scratch[:0], done: make(chan struct{})}
	if hasDeadline {
		call.deadline = deadline
	}
	tag, err := mc.register(call)
	if err != nil {
		return nil, fmt.Errorf("dpfs server %s: send: %w", m.c.addr, err)
	}

	mc.wmu.Lock()
	if hasDeadline {
		_ = mc.conn.SetWriteDeadline(deadline)
	} else {
		_ = mc.conn.SetWriteDeadline(time.Time{})
	}
	err = mc.fw.WriteRequest(tag, req)
	mc.wmu.Unlock()
	if err != nil {
		// A partial frame write desynchronizes the stream for every tag
		// on this conn; fail them all (idempotent if the reader already
		// noticed). The retry ladder redials.
		mc.fail(fmt.Errorf("dpfs server %s: send: %w", m.c.addr, err))
		<-call.done
		return nil, fmt.Errorf("dpfs server %s: send: %w", m.c.addr, err)
	}

	var timeout <-chan time.Time
	if hasDeadline {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-call.done:
	case <-ctx.Done():
		if mc.abandon(tag) {
			return nil, fmt.Errorf("dpfs server %s: %w", m.c.addr, ctx.Err())
		}
		<-call.done // delivery or conn death won the race; take its result
	case <-timeout:
		if mc.abandon(tag) {
			return nil, fmt.Errorf("dpfs server %s: receive: %w", m.c.addr, os.ErrDeadlineExceeded)
		}
		<-call.done
	}
	if call.err != nil {
		return nil, fmt.Errorf("dpfs server %s: receive: %w", m.c.addr, call.err)
	}
	return call.resp, nil
}

// grab picks the least-loaded live conn with window room, dialing a new
// one when all are full (or none exist). The returned conn has one
// in-flight slot reserved for the caller. Dials are single-flighted: a
// concurrent burst arriving on a fresh mux waits for one dial and then
// shares the conn, instead of every caller opening its own — that
// collapse from conns-per-request to conns-per-window is the point of
// the mux.
func (m *mux) grab(ctx context.Context) (*muxConn, error) {
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return nil, errClientClosed
		}
		var best *muxConn
		for _, mc := range m.conns {
			n := mc.inflight.Load()
			if n >= int64(m.window) {
				continue
			}
			if best == nil || n < best.inflight.Load() {
				best = mc
			}
		}
		if best != nil {
			best.inflight.Add(1)
			m.mu.Unlock()
			return best, nil
		}
		if !m.dialing {
			break
		}
		done := m.dialDone
		m.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, fmt.Errorf("dpfs server %s: dial: %w", m.c.addr, ctx.Err())
		}
		m.mu.Lock()
	}
	m.dialing = true
	m.dialDone = make(chan struct{})
	m.mu.Unlock()

	conn, err := m.c.dial(ctx, m.c.addr)
	m.mu.Lock()
	m.dialing = false
	close(m.dialDone)
	if err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("dpfs server %s: dial: %w", m.c.addr, err)
	}
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return nil, errClientClosed
	}
	mc := &muxConn{m: m, conn: conn, fw: wire.NewFrameWriter(conn), pending: make(map[uint32]*muxCall)}
	m.conns = append(m.conns, mc)
	mc.inflight.Add(1)
	m.mu.Unlock()
	m.c.reg.Gauge(MetricClientConnsIdle).Inc()
	go mc.readLoop()
	return mc, nil
}

// remove detaches a dead conn from the mux.
func (m *mux) remove(mc *muxConn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, c := range m.conns {
		if c == mc {
			m.conns = append(m.conns[:i], m.conns[i+1:]...)
			return
		}
	}
}

// Close fails every in-flight call and closes all conns.
func (m *mux) Close() {
	m.mu.Lock()
	m.closed = true
	conns := append([]*muxConn(nil), m.conns...)
	m.mu.Unlock()
	for _, mc := range conns {
		mc.failQuiet(errClientClosed)
	}
}

// register allocates a tag for call and arms the conn's backstop read
// deadline.
func (mc *muxConn) register(call *muxCall) (uint32, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.dead {
		return 0, errors.New("connection closed")
	}
	for {
		mc.nextTag++
		if mc.nextTag == 0 {
			mc.nextTag = 1
		}
		if _, taken := mc.pending[mc.nextTag]; !taken {
			break
		}
	}
	mc.pending[mc.nextTag] = call
	mc.transitionLocked()
	mc.updateDeadlineLocked()
	return mc.nextTag, nil
}

// abandon gives up on tag (caller timeout or context cancel). It
// reports whether the tag was still pending: false means delivery or
// conn failure claimed it first and the caller must take the result
// from call.done instead. After a true return the demux reader is done
// with the caller's scratch for good (see muxCall.landing), so the
// caller may reuse it at once. A best-effort CANCEL frame tells the
// server to stop working on the tag; the demux reader discards any
// frames that were already in flight for it.
func (mc *muxConn) abandon(tag uint32) bool {
	mc.mu.Lock()
	call, ok := mc.pending[tag]
	if !ok {
		mc.mu.Unlock()
		return false
	}
	delete(mc.pending, tag)
	mc.transitionLocked()
	if !call.landing.TryLock() {
		// The reader is inside a DATA frame of this very tag. The rest
		// of that frame is normally microseconds away; a peer that
		// stalls mid-frame is cut off by the backstop deadline, which
		// cannot move while mc.mu is held.
		mc.armLocked(time.Now().Add(muxReadSlack))
		call.landing.Lock()
	}
	call.landing.Unlock()
	mc.updateDeadlineLocked()
	mc.mu.Unlock()

	if mc.wmu.TryLock() {
		_ = mc.conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = mc.fw.WriteCancel(tag)
		_ = mc.conn.SetWriteDeadline(time.Time{})
		mc.wmu.Unlock()
	}
	return true
}

// transitionLocked maintains the client_conns_idle/active gauges as the
// conn's pending set empties and fills. Called with mc.mu held.
func (mc *muxConn) transitionLocked() {
	active := len(mc.pending) > 0
	if active == mc.active {
		return
	}
	mc.active = active
	idleG := mc.m.c.reg.Gauge(MetricClientConnsIdle)
	activeG := mc.m.c.reg.Gauge(MetricClientConnsActive)
	if active {
		idleG.Add(-1)
		activeG.Inc()
	} else {
		activeG.Add(-1)
		idleG.Inc()
	}
}

// updateDeadlineLocked re-arms the conn's backstop read deadline: the
// latest pending per-call deadline plus slack, or none at all when a
// pending call is unbounded. Crucially, the deadline is CLEARED the
// moment the pending set empties — an idle muxed conn must never sit
// armed with a stale deadline, or the reader would wrongly kill it on
// the next quiet stretch. Called with mc.mu held.
func (mc *muxConn) updateDeadlineLocked() {
	if mc.dead {
		return
	}
	var max time.Time
	for _, c := range mc.pending {
		if c.deadline.IsZero() {
			max = time.Time{}
			break
		}
		if d := c.deadline.Add(muxReadSlack); d.After(max) {
			max = d
		}
	}
	mc.armLocked(max)
}

// armLocked sets the conn's read deadline to d (zero clears it),
// skipping the call when it is already armed so. Called with mc.mu
// held.
func (mc *muxConn) armLocked(d time.Time) {
	if !d.Equal(mc.armed) {
		_ = mc.conn.SetReadDeadline(d)
		mc.armed = d
	}
}

// readLoop is the demux reader: it owns the conn's read side, landing
// DATA frames directly in their callers' buffers and routing RESP
// frames to the waiting callers. Any read or framing error is a conn
// fault that fails exactly the tags in flight on this conn.
func (mc *muxConn) readLoop() {
	br := bufio.NewReaderSize(mc.conn, 64<<10)
	for {
		h, err := wire.ReadFrameHeader(br)
		if err != nil {
			mc.fail(err)
			return
		}
		switch h.Kind {
		case wire.FrameData:
			mc.mu.Lock()
			call := mc.pending[h.Tag]
			if call != nil {
				call.landing.Lock()
			}
			mc.mu.Unlock()
			if call == nil {
				// Abandoned or unknown tag: drain and drop.
				err = wire.DiscardFrameBody(br, h)
			} else {
				var data []byte
				if data, err = wire.ReadDataInto(br, call.data, int(h.Len)); err == nil {
					call.data = data
				}
				call.landing.Unlock()
			}
			if err != nil {
				mc.fail(err)
				return
			}
		case wire.FrameResp:
			body := make([]byte, h.Len)
			if _, err := io.ReadFull(br, body); err != nil {
				mc.fail(err)
				return
			}
			resp, dataLen, derr := wire.DecodeResponseMetaV2(body)
			if derr != nil {
				// Undecodable metadata means lost framing sync.
				mc.fail(derr)
				return
			}
			mc.deliver(h.Tag, resp, dataLen)
		default:
			// Unknown kinds (and stray CANCELs) must never wedge the mux
			// or fail an unrelated request: skip the body and move on.
			if err := wire.DiscardFrameBody(br, h); err != nil {
				mc.fail(err)
				return
			}
		}
	}
}

// deliver completes tag with resp. Only the reader lands data and only
// the reader delivers, so the payload is complete here; closing done
// hands it to the caller.
func (mc *muxConn) deliver(tag uint32, resp *wire.Response, dataLen int64) {
	mc.mu.Lock()
	call := mc.pending[tag]
	if call == nil {
		mc.mu.Unlock()
		return
	}
	delete(mc.pending, tag)
	mc.transitionLocked()
	mc.updateDeadlineLocked()
	mc.mu.Unlock()

	// An error reported mid-stream abandons whatever data preceded it.
	if resp.Err == "" {
		if dataLen != int64(len(call.data)) {
			call.err = fmt.Errorf("wire: response announced %d data bytes, received %d", dataLen, len(call.data))
		} else if len(call.data) > 0 {
			resp.Data = call.data
		}
	}
	call.resp = resp
	close(call.done)
}

// fail kills the conn and fails every pending tag with err — the
// fault boundary: a conn fault takes down exactly the requests
// multiplexed onto that conn, nothing else. Idempotent.
func (mc *muxConn) fail(err error) {
	if mc.failQuiet(err) {
		mc.m.c.reg.Counter(MetricConnEvictions).Inc()
	}
}

// failQuiet is fail without the eviction metric (clean shutdown).
// It reports whether this call transitioned the conn to dead.
func (mc *muxConn) failQuiet(err error) bool {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return false
	}
	mc.dead = true
	pending := mc.pending
	mc.pending = nil
	if mc.active {
		mc.m.c.reg.Gauge(MetricClientConnsActive).Add(-1)
	} else {
		mc.m.c.reg.Gauge(MetricClientConnsIdle).Add(-1)
	}
	mc.mu.Unlock()

	mc.conn.Close()
	mc.m.remove(mc)
	for _, call := range pending {
		// Closing the conn has thrown the reader out of any frame it
		// was landing; wait that out before the caller gets its scratch
		// back.
		call.landing.Lock()
		call.landing.Unlock() //nolint:staticcheck // empty critical section: a barrier, not a guard
		call.err = err
		close(call.done)
	}
	return true
}
