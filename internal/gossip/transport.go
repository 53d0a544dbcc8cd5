package gossip

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Magic is the first byte of a gossip connection. The I/O server's
// accept loop sniffs it alongside the frame magic (0xDA) and hands
// matching connections to the gossip node, so the health plane rides
// the existing data port.
const Magic = 0xDB

// maxWireMessage bounds one gob-encoded gossip message on the wire;
// anything larger is a protocol violation and the connection is
// dropped.
const maxWireMessage = 1 << 20

// MemNet is a deterministic in-process transport for simulation:
// exchanges are synchronous calls into the target node, and an
// optional Fail hook injects partitions. It backs the 100+ node
// convergence tests and the chaos gossip sweeps.
type MemNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	fail  func(from, to string) bool
	sends int64
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{nodes: make(map[string]*Node)}
}

// Add registers a node under its own ID.
func (m *MemNet) Add(n *Node) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[n.Self()] = n
}

// SetFail installs (or clears, with nil) the partition hook: an
// exchange from→to for which fail returns true errors without
// reaching the target.
func (m *MemNet) SetFail(fail func(from, to string) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fail = fail
}

// Sends returns how many exchanges were attempted through this
// network.
func (m *MemNet) Sends() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sends
}

// Exchange implements Transport by calling the target node directly.
func (m *MemNet) Exchange(_ context.Context, to string, msg *Message) (*Message, error) {
	m.mu.Lock()
	m.sends++
	fail := m.fail
	target := m.nodes[to]
	m.mu.Unlock()
	if fail != nil && msg != nil && fail(msg.From, to) {
		return nil, fmt.Errorf("gossip: partitioned from %s", to)
	}
	if target == nil {
		return nil, fmt.Errorf("gossip: no such node %s", to)
	}
	return target.HandleMessage(msg), nil
}

// NetTransport carries gossip exchanges over TCP: one connection per
// exchange, opened with the gossip magic byte so the server's accept
// loop routes it, then a gob-encoded Message each way. Dial is
// pluggable so internal/fault's injector can storm the gossip plane
// in chaos tests.
type NetTransport struct {
	// Dial opens connections; nil uses net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Timeout bounds one whole exchange (default 2s).
	Timeout time.Duration
}

// Exchange implements Transport over a fresh connection to the
// peer's data port.
func (t *NetTransport) Exchange(ctx context.Context, to string, msg *Message) (*Message, error) {
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	dial := t.Dial
	if dial == nil {
		var d net.Dialer
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, to)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if _, err := conn.Write([]byte{Magic}); err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(conn).Encode(msg); err != nil {
		return nil, err
	}
	if msg.Kind != KindPull {
		// Wait for the receiver to process and close: pushes are
		// fire-and-forget in spirit, but the close-wait makes a
		// dropped push surface as an error and keeps tests
		// deterministic.
		var one [1]byte
		conn.Read(one[:])
		return nil, nil
	}
	var reply Message
	if err := gob.NewDecoder(io.LimitReader(conn, maxWireMessage)).Decode(&reply); err != nil {
		return nil, err
	}
	if len(reply.Recs) > maxRecordsPerMessage || len(reply.IDs) > maxReplyIDs {
		return nil, fmt.Errorf("gossip: oversized reply from %s", to)
	}
	return &reply, nil
}

// ServeConn handles one inbound gossip connection on the server
// side: the magic byte has already been consumed by the accept
// loop's sniffer; what remains is one gob-encoded Message, answered
// with the node's reply when the message is a pull.
func ServeConn(conn net.Conn, n *Node) error {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var msg Message
	if err := gob.NewDecoder(io.LimitReader(conn, maxWireMessage)).Decode(&msg); err != nil {
		return fmt.Errorf("gossip: decode: %w", err)
	}
	if len(msg.Recs) > maxRecordsPerMessage || len(msg.IDs) > maxReplyIDs {
		return fmt.Errorf("gossip: oversized message from %s", msg.From)
	}
	reply := n.HandleMessage(&msg)
	if reply == nil {
		return nil
	}
	if err := gob.NewEncoder(conn).Encode(reply); err != nil {
		return fmt.Errorf("gossip: encode reply: %w", err)
	}
	return nil
}
