package gossip

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"dpfs/internal/codec"
	"dpfs/internal/wire"
)

// maxWireMessage bounds one encoded gossip message; anything larger
// is a protocol violation and the exchange fails.
const maxWireMessage = 1 << 20

// MemNet is a deterministic in-process transport for simulation:
// exchanges are synchronous calls into the target node, and an
// optional Fail hook injects partitions. It backs the 100+ node
// convergence tests and the chaos gossip sweeps.
type MemNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	fail  func(from, to string) bool
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

// Exchange implements Transport by calling the target node directly.
func (m *MemNet) Exchange(_ context.Context, to string, msg *Message) (*Message, error) {
	m.mu.Lock()
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

// NetTransport carries gossip exchanges to the peers' data ports: one
// wire.OpGossip request per exchange on a connection dialed for it,
// the encoded Message in Request.Data and a pull's reply in
// Response.Data. The server hands the request to Node.Answer. Dial is
// pluggable so internal/fault's injector can storm the gossip plane
// in chaos tests.
type NetTransport struct {
	// Dial opens connections; nil uses net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Timeout bounds one whole exchange (default 2s).
	Timeout time.Duration
}

// Exchange implements Transport with one OpGossip request. A push is
// answered too (with nothing), so a dropped push surfaces as an error.
func (t *NetTransport) Exchange(ctx context.Context, to string, msg *Message) (*Message, error) {
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := wire.Call(ctx, t.Dial, to, &wire.Request{Op: wire.OpGossip, Data: encodeMessage(msg)})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("gossip: %s", resp.Err)
	}
	if msg.Kind != KindPull {
		return nil, nil
	}
	return decodeMessage(resp.Data)
}

// Answer serves one OpGossip request on the receiving server: it
// decodes the message, merges it, and returns the encoded reply (nil
// for a push).
func (n *Node) Answer(data []byte) ([]byte, error) {
	msg, err := decodeMessage(data)
	if err != nil {
		return nil, err
	}
	if reply := n.HandleMessage(msg); reply != nil {
		return encodeMessage(reply), nil
	}
	return nil, nil
}

// encodeMessage writes m as an OpGossip payload, little-endian:
//
//	u8 kind | str from | strs ids | u16 count | records
//	record: the delta record (appendRecord) | i64 diskErrors |
//	        i64 copyPeerErrors | strs observers
//	strs: u16 count | str...   str: u16 length | bytes
//
// Records appendRecord refuses and entries past the message caps are
// left out.
func encodeMessage(m *Message) []byte {
	b := appendString([]byte{byte(m.Kind)}, m.From)
	b = appendStrings(b, m.IDs, maxReplyIDs)
	at := len(b)
	b = append(b, 0, 0)
	count := 0
	for i := range m.Recs {
		if count == maxRecordsPerMessage {
			break
		}
		r := &m.Recs[i]
		next, ok := appendRecord(b, r)
		if !ok {
			continue
		}
		next = binary.LittleEndian.AppendUint64(next, uint64(r.DiskErrors))
		next = binary.LittleEndian.AppendUint64(next, uint64(r.CopyPeerErrors))
		b = appendStrings(next, r.Observers, maxObservers)
		count++
	}
	binary.LittleEndian.PutUint16(b[at:], uint16(count))
	return b
}

// appendStrings appends a u16 count and the first max strings of ss.
func appendStrings(b []byte, ss []string, max int) []byte {
	ss = ss[:min(len(ss), max)]
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// minRecord is the smallest encoding of one message record (one-byte
// address, no name, no observers): a record count is checked against
// it before anything is allocated for the records.
const minRecord = 1 + 8 + 3 + 2 + 8 + 8 + 2

// readStrings reads what appendStrings wrote.
func readStrings(d *codec.Decoder, max int) []string {
	n := int(d.U16())
	if n > max {
		d.Fail(fmt.Errorf("list of %d strings out of range", n))
	}
	if n = d.Count(uint64(n), 2); n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = string(d.Bytes(int(d.U16())))
	}
	return ss
}

// decodeMessage parses what encodeMessage wrote. It refuses anything
// encodeMessage would not produce — an unknown kind, an oversized
// list, an unknown state, trailing bytes — so what decodes re-encodes
// to the same bytes.
func decodeMessage(data []byte) (*Message, error) {
	if len(data) > maxWireMessage {
		return nil, fmt.Errorf("gossip: message of %d bytes exceeds %d", len(data), maxWireMessage)
	}
	d := codec.NewDecoder(data)
	m := &Message{Kind: int(d.U8()), From: string(d.Bytes(int(d.U16()))), IDs: readStrings(&d, maxReplyIDs)}
	n := int(d.U16())
	if n > maxRecordsPerMessage {
		d.Fail(fmt.Errorf("%d records out of range", n))
	}
	if n = d.Count(uint64(n), minRecord); n > 0 {
		m.Recs = make([]Record, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		r := readRecord(&d)
		r.DiskErrors, r.CopyPeerErrors = int64(d.U64()), int64(d.U64())
		r.Observers = readStrings(&d, maxObservers)
		m.Recs = append(m.Recs, r)
	}
	if d.Err() == nil && (m.Kind < KindPush || m.Kind > KindReply) {
		d.Fail(fmt.Errorf("unknown kind %d", m.Kind))
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("gossip: message: %w", err)
	}
	return m, nil
}
