package gossip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dpfs/internal/codec"
)

// Server-table deltas are the client-facing face of the gossip
// plane: the I/O server appends a compact encoding of recently
// changed records to RPC responses it was sending anyway, so a
// client learns about address changes, drains and confirmed deaths
// at RPC latency instead of waiting out its metadata-cache TTL.
//
// The encoding is deliberately tiny and self-contained:
//
//	4-byte magic "DPgd" | u8 version | u16 count | records
//	record: u8 state | i64 inc | u16 addrLen | addr | u16 nameLen | name
//
// all little-endian. The record is the one gossip exchanges carry too
// (encodeMessage extends it with the health fields). Decoding is
// strict — any truncation, length overrun or unknown state yields an
// error — but callers treat a failed decode as "no delta": a damaged
// piggyback must never fail the RPC that carried it (the same
// best-effort contract as the response's span trailer).

// DeltaMagic is the 4-byte marker opening an encoded delta.
var DeltaMagic = [4]byte{'D', 'P', 'g', 'd'}

// deltaVersion is the current delta encoding version. Version 1
// carried a generation mark per record that nothing read.
const deltaVersion = 2

// Caps on one encoded delta: a piggyback must stay a small fraction
// of the response it rides.
const (
	// MaxDeltaRecords bounds how many records one delta may carry.
	MaxDeltaRecords = 256
	// MaxDeltaBytes bounds the encoded size of one delta.
	MaxDeltaBytes = 64 << 10
)

// stateCodes maps Record.State to its wire byte; stateNames maps back.
var stateCodes = map[string]byte{
	StateAlive:    0,
	StateDraining: 1,
	StateSuspect:  2,
	StateDead:     3,
}

var stateNames = [...]string{StateAlive, StateDraining, StateSuspect, StateDead}

// maxString is the longest string a u16 length prefix can carry;
// appendString cuts anything longer.
const maxString = 0xFFFF

func appendString(b []byte, s string) []byte {
	s = s[:min(len(s), maxString)]
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// appendRecord appends r's state, incarnation, address and name — the
// record encoding deltas and exchanges share. A record without an
// address or in an unknown state is not encodable: appendRecord then
// reports false and appends nothing.
func appendRecord(b []byte, r *Record) ([]byte, bool) {
	st, ok := stateCodes[r.State]
	if !ok || r.Addr == "" {
		return b, false
	}
	b = append(b, st)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Inc))
	return appendString(appendString(b, r.Addr), r.Name), true
}

// readRecord reads what appendRecord wrote.
func readRecord(d *codec.Decoder) Record {
	st, inc := d.U8(), int64(d.U64())
	addr, name := string(d.Bytes(int(d.U16()))), string(d.Bytes(int(d.U16())))
	switch {
	case d.Err() != nil:
	case int(st) >= len(stateNames):
		d.Fail(fmt.Errorf("unknown state %d", st))
	case addr == "":
		d.Fail(errors.New("empty address"))
	default:
		return Record{Addr: addr, Name: name, Inc: inc, State: stateNames[st]}
	}
	return Record{}
}

// EncodeDelta serializes records into the delta wire format.
// Observer sets and health counters are dropped — clients need only
// identity, state and incarnation. Records beyond MaxDeltaRecords or
// bytes beyond MaxDeltaBytes are truncated (non-alive records are kept
// preferentially).
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
	buf = append(buf, deltaVersion, 0, 0) // count patched below
	count := 0
	for i := range recs {
		next, ok := appendRecord(buf, &recs[i])
		if !ok {
			continue
		}
		if len(next) > MaxDeltaBytes {
			break
		}
		buf = next
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
	if len(data) > MaxDeltaBytes {
		return nil, fmt.Errorf("gossip: delta oversized (%d bytes)", len(data))
	}
	d := codec.NewDecoder(data)
	magic, version, count := d.Bytes(len(DeltaMagic)), d.U8(), int(d.U16())
	switch {
	case d.Err() != nil:
	case !bytes.Equal(magic, DeltaMagic[:]):
		d.Fail(errors.New("bad magic"))
	case version != deltaVersion:
		d.Fail(fmt.Errorf("unknown version %d", version))
	case count == 0 || count > MaxDeltaRecords:
		d.Fail(fmt.Errorf("record count %d out of range", count))
	}
	var recs []Record
	for i := 0; i < count && d.Err() == nil; i++ {
		r := readRecord(&d)
		if r.Name == "" {
			r.Name = r.Addr
		}
		recs = append(recs, r)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("gossip: delta: %w", err)
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
