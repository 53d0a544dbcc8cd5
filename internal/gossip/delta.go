package gossip

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Server-table deltas are the client-facing face of the gossip
// plane: the I/O server appends a compact encoding of recently
// changed records to RPC responses it was sending anyway, so a
// client learns about address changes, drains and confirmed deaths
// at RPC latency instead of waiting out its metadata-cache TTL.
//
// The encoding is deliberately tiny and self-contained (no gob):
//
//	4-byte magic "DPgd" | u8 version | u16 count | entries
//	entry: u8 state | i64 inc | i64 gen | u16 addrLen | addr |
//	       u16 nameLen | name
//
// all little-endian. Decoding is strict — any truncation, length
// overrun or unknown state yields an error — but callers treat a
// failed decode as "no delta": a damaged piggyback must never fail
// the RPC that carried it (the same best-effort contract as the
// response's span trailer).

// DeltaMagic is the 4-byte marker opening an encoded delta.
var DeltaMagic = [4]byte{'D', 'P', 'g', 'd'}

// deltaVersion is the current delta encoding version.
const deltaVersion = 1

// Caps on one encoded delta: a piggyback must stay a small fraction
// of the response it rides.
const (
	// MaxDeltaRecords bounds how many records one delta may carry.
	MaxDeltaRecords = 256
	// MaxDeltaBytes bounds the encoded size of one delta.
	MaxDeltaBytes = 64 << 10
)

// deltaStates maps Record.State to its wire byte and back.
var deltaStates = map[string]byte{
	StateAlive:    0,
	StateDraining: 1,
	StateSuspect:  2,
	StateDead:     3,
}

var deltaStateNames = [...]string{StateAlive, StateDraining, StateSuspect, StateDead}

// EncodeDelta serializes records into the delta wire format.
// Observer sets and health counters are dropped — clients need only
// identity, state, incarnation and the generation mark. Records
// beyond MaxDeltaRecords or bytes beyond MaxDeltaBytes are truncated
// (non-alive records are kept preferentially).
func EncodeDelta(recs []Record) []byte {
	if len(recs) == 0 {
		return nil
	}
	if len(recs) > MaxDeltaRecords {
		sorted := append([]Record(nil), recs...)
		sort.SliceStable(sorted, func(i, j int) bool {
			return prec(sorted[i].State) > prec(sorted[j].State)
		})
		recs = sorted[:MaxDeltaRecords]
	}
	buf := make([]byte, 0, 64*len(recs)+8)
	buf = append(buf, DeltaMagic[:]...)
	buf = append(buf, deltaVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // count patched below
	count := 0
	for _, r := range recs {
		st, ok := deltaStates[r.State]
		if !ok || r.Addr == "" || len(r.Addr) > 0xFFFF || len(r.Name) > 0xFFFF {
			continue
		}
		entry := make([]byte, 0, 24+len(r.Addr)+len(r.Name))
		entry = append(entry, st)
		entry = binary.LittleEndian.AppendUint64(entry, uint64(r.Inc))
		entry = binary.LittleEndian.AppendUint64(entry, uint64(r.Gen))
		entry = binary.LittleEndian.AppendUint16(entry, uint16(len(r.Addr)))
		entry = append(entry, r.Addr...)
		entry = binary.LittleEndian.AppendUint16(entry, uint16(len(r.Name)))
		entry = append(entry, r.Name...)
		if len(buf)+len(entry) > MaxDeltaBytes {
			break
		}
		buf = append(buf, entry...)
		count++
	}
	if count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint16(buf[5:7], uint16(count))
	return buf
}

// DecodeDelta parses a delta produced by EncodeDelta. Any deviation
// — short buffer, bad magic or version, count overrun, unknown state
// — returns an error; callers must treat that as "no delta", never
// as an RPC failure.
func DecodeDelta(data []byte) ([]Record, error) {
	if len(data) < 7 {
		return nil, fmt.Errorf("gossip: delta too short (%d bytes)", len(data))
	}
	if len(data) > MaxDeltaBytes {
		return nil, fmt.Errorf("gossip: delta oversized (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != DeltaMagic {
		return nil, fmt.Errorf("gossip: bad delta magic")
	}
	if data[4] != deltaVersion {
		return nil, fmt.Errorf("gossip: unknown delta version %d", data[4])
	}
	count := int(binary.LittleEndian.Uint16(data[5:7]))
	if count == 0 || count > MaxDeltaRecords {
		return nil, fmt.Errorf("gossip: delta record count %d out of range", count)
	}
	p := 7
	recs := make([]Record, 0, count)
	for i := 0; i < count; i++ {
		if p+21 > len(data) {
			return nil, fmt.Errorf("gossip: delta truncated in entry %d", i)
		}
		st := data[p]
		if int(st) >= len(deltaStateNames) {
			return nil, fmt.Errorf("gossip: delta entry %d has unknown state %d", i, st)
		}
		inc := int64(binary.LittleEndian.Uint64(data[p+1 : p+9]))
		gen := int64(binary.LittleEndian.Uint64(data[p+9 : p+17]))
		alen := int(binary.LittleEndian.Uint16(data[p+17 : p+19]))
		p += 19
		if p+alen+2 > len(data) {
			return nil, fmt.Errorf("gossip: delta entry %d address overruns buffer", i)
		}
		addr := string(data[p : p+alen])
		p += alen
		nlen := int(binary.LittleEndian.Uint16(data[p : p+2]))
		p += 2
		if p+nlen > len(data) {
			return nil, fmt.Errorf("gossip: delta entry %d name overruns buffer", i)
		}
		name := string(data[p : p+nlen])
		p += nlen
		if addr == "" {
			return nil, fmt.Errorf("gossip: delta entry %d has empty address", i)
		}
		if name == "" {
			name = addr
		}
		recs = append(recs, Record{Addr: addr, Name: name, Inc: inc, Gen: gen, State: deltaStateNames[st]})
	}
	if p != len(data) {
		return nil, fmt.Errorf("gossip: %d trailing bytes after delta", len(data)-p)
	}
	return recs, nil
}

// DeltaSince encodes every record that changed after table version
// v, returning the encoded delta (nil when nothing changed or
// nothing encodable) and the version the caller should remember.
// The I/O server calls this per connection, so each client conn sees
// each change exactly once.
func (n *Node) DeltaSince(v uint64) ([]byte, uint64) {
	n.mu.Lock()
	cur := n.version
	if cur == v {
		n.mu.Unlock()
		return nil, cur
	}
	changed := make([]Record, 0, 8)
	for _, addr := range sortedTableKeys(n.table) {
		e := n.table[addr]
		if e.ver > v {
			changed = append(changed, cloneRecord(e.rec))
		}
	}
	n.mu.Unlock()
	if len(changed) == 0 {
		return nil, cur
	}
	return EncodeDelta(changed), cur
}
