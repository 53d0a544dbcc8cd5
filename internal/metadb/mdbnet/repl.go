package mdbnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/wire"
)

// This file is the wire side of metadata replication (DESIGN.md §13):
// the long-lived protocol replica-group members speak to each other on
// their replication port, next to the SQL protocol clients speak. Each
// message is one wire.FrameRepl whose body is the ReplMsg in the
// catalog codec. One ReplMsg grammar carries everything — the shipping
// stream (hello, snapshot, record, heartbeat, ack) and elections
// (vote-req, vote) — so the whole group protocol is visible in one
// type.

// ReplMsg kinds.
const (
	// ReplHello opens a shipping stream: the primary announces its
	// epoch, ID and log position; the follower answers with an ack
	// carrying its own position (Seq -1 demands a snapshot).
	ReplHello = "hello"
	// ReplSnapshot carries a full metadb.StateSnapshot to replace the
	// follower's state.
	ReplSnapshot = "snapshot"
	// ReplRecord ships one commit record (epoch-stamped, in order).
	ReplRecord = "record"
	// ReplHeartbeat keeps the lease alive when no records flow.
	ReplHeartbeat = "heartbeat"
	// ReplAck reports the follower's durable log position back.
	ReplAck = "ack"
	// ReplVoteReq asks for a vote: a candidate's new epoch and its
	// last record's (epoch, seq) position.
	ReplVoteReq = "vote-req"
	// ReplVote answers a vote request (Ok = granted).
	ReplVote = "vote"
	// ReplError rejects the stream (stale epoch — the sender must step
	// down).
	ReplError = "error"
)

// ReplMsg is one message of the replication protocol. Fields are used
// per kind; unused ones stay zero.
type ReplMsg struct {
	Kind      string
	From      int   // sender's replica ID
	Epoch     int64 // sender's epoch (fencing: receivers reject stale epochs)
	Seq       int64 // log position (record seq, ack watermark, candidate's last seq)
	LastEpoch int64 // epoch of the sender's last log record (vote-req, hello)
	Ops       []metadb.RedoOp
	Snap      []byte
	Ok        bool
	Err       string
}

// AppendTo appends m's frame body: the scalar fields, the redo
// operations and the snapshot, in the catalog codec.
func (m *ReplMsg) AppendTo(b []byte) []byte {
	b = metadb.AppendString(b, m.Kind)
	b = binary.AppendVarint(b, int64(m.From))
	b = binary.AppendVarint(b, m.Epoch)
	b = binary.AppendVarint(b, m.Seq)
	b = binary.AppendVarint(b, m.LastEpoch)
	b = metadb.AppendRedoOps(b, m.Ops)
	b = metadb.AppendBytes(b, m.Snap)
	b = metadb.AppendBool(b, m.Ok)
	return metadb.AppendString(b, m.Err)
}

// DecodeReplMsg decodes a frame body AppendTo wrote. The message's
// Snap aliases body.
func DecodeReplMsg(body []byte) (*ReplMsg, error) {
	d := metadb.NewDecoder(body)
	m := &ReplMsg{
		Kind:      d.Text(),
		From:      int(d.Int()),
		Epoch:     d.Int(),
		Seq:       d.Int(),
		LastEpoch: d.Int(),
		Ops:       d.RedoOps(),
		Snap:      d.Bytes(),
		Ok:        d.Bool(),
		Err:       d.Text(),
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReplConn is one replication-protocol connection: one FrameRepl per
// ReplMsg in both directions. Send is safe for concurrent use; Recv
// must stay on one goroutine.
type ReplConn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // guards fw and buf
	fw  *wire.FrameWriter
	buf []byte
}

// DialRepl opens a replication connection to a group member's
// replication address.
func DialRepl(addr string, dial DialFunc) (*ReplConn, error) {
	if dial == nil {
		dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, 5*time.Second)
		}
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("mdbnet: dial repl %s: %w", addr, err)
	}
	return newReplConn(conn), nil
}

func newReplConn(conn net.Conn) *ReplConn {
	return &ReplConn{conn: conn, br: bufio.NewReader(conn), fw: wire.NewFrameWriter(conn)}
}

// Send writes one message.
func (c *ReplConn) Send(m *ReplMsg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.buf = m.AppendTo(c.buf[:0])
	err := c.fw.WriteFrame(wire.FrameHeader{Kind: wire.FrameRepl}, c.buf)
	if cap(c.buf) > 1<<20 {
		c.buf = nil // do not hold a snapshot's worth of buffer
	}
	return err
}

// Recv reads the next message. A frame of another protocol or kind,
// or one that does not decode, is an error.
func (c *ReplConn) Recv() (*ReplMsg, error) {
	_, body, err := readFrame(c.br, wire.FrameRepl, nil)
	if err != nil {
		return nil, err
	}
	return DecodeReplMsg(body)
}

// Close tears the connection down.
func (c *ReplConn) Close() error { return c.conn.Close() }

// ReplListener accepts replication connections for one replica.
type ReplListener struct {
	lis net.Listener
}

// ListenRepl starts a replication listener ("" or ":0" picks an
// ephemeral port).
func ListenRepl(addr string) (*ReplListener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mdbnet: listen repl: %w", err)
	}
	return &ReplListener{lis: lis}, nil
}

// Addr returns the listen address.
func (l *ReplListener) Addr() string { return l.lis.Addr().String() }

// Accept waits for the next replication connection.
func (l *ReplListener) Accept() (*ReplConn, error) {
	conn, err := l.lis.Accept()
	if err != nil {
		return nil, err
	}
	return newReplConn(conn), nil
}

// Close stops the listener.
func (l *ReplListener) Close() error { return l.lis.Close() }

// ErrNotPrimary is the sentinel inside a follower's statement
// rejection. SQL errors cross the wire as strings, so after a network
// hop the sentinel is recognized by ParseNotPrimary instead of
// errors.Is; GroupClient re-wraps with the sentinel on the client
// side.
var ErrNotPrimary = errors.New("mdbnet: not primary")

// notPrimaryPrefix is ErrNotPrimary's wire form.
const notPrimaryPrefix = "mdbnet: not primary"

// NotPrimaryError builds the rejection a follower's statement gate
// returns, carrying the current primary's client address (empty when
// unknown — mid-election) and epoch so clients can re-resolve.
func NotPrimaryError(primaryAddr string, epoch int64) error {
	return fmt.Errorf("%w (primary=%s epoch=%d)", ErrNotPrimary, primaryAddr, epoch)
}

// ParseNotPrimary recognizes a NotPrimaryError that crossed the wire
// and extracts the redirect address (possibly empty).
func ParseNotPrimary(msg string) (addr string, ok bool) {
	if !strings.HasPrefix(msg, notPrimaryPrefix) {
		return "", false
	}
	if i := strings.Index(msg, "primary="); i >= 0 {
		rest := msg[i+len("primary="):]
		if j := strings.IndexAny(rest, " )"); j >= 0 {
			rest = rest[:j]
		}
		addr = rest
	}
	return addr, true
}

// TransportError marks a statement that failed in transit: the request
// may or may not have executed, so it must not be resent — not even to
// another replica. Contrast with a NotPrimaryError rejection, which
// guarantees the statement never ran.
type TransportError struct {
	Op   string // "redial", "send", "receive"
	Addr string
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("mdbnet: %s %s: %v", e.Op, e.Addr, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }
