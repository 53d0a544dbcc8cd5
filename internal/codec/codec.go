// Package codec holds the tree's one decoder of binary formats: the
// data port's frames, the catalog codec, the gossip payloads and the
// span trailer all read through it. Every read is checked against the
// bytes left, and a count is checked before anything is sized from it,
// so a short or hostile input is an error, never a panic or an
// allocation larger than a small multiple of the input. The formats
// themselves, and the errors that name them, stay with their packages.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of the input, or a count the
// bytes left cannot back.
var ErrTruncated = errors.New("truncated")

// A Decoder reads little-endian fixed-width fields, varints and byte
// strings from a byte slice. Errors are sticky: the first one is kept,
// the rest of the input is dropped, and every later read returns a
// zero value.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder reading b. It is a value, so a decoder
// local to one function stays on the stack.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records err, unless an error is already recorded, and drops the
// rest of the input. Callers report the format's own violations (an
// unknown kind, an out-of-range count) through it.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Err returns the first error recorded.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes left.
func (d *Decoder) Len() int { return len(d.b) }

// Finish returns the first error recorded, or an error if bytes remain
// unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	return d.err
}

// Bytes reads n bytes. The result aliases the input, with its capacity
// cut at n; it is nil after an error.
func (d *Decoder) Bytes(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.Fail(ErrTruncated)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// zero backs the fixed-width reads that fail.
var zero [8]byte

// fixed reads n <= 8 bytes, or returns n zeros once the decoder has
// failed.
func (d *Decoder) fixed(n int) []byte {
	if n > len(d.b) {
		d.Fail(ErrTruncated)
		return zero[:n]
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 { return d.fixed(1)[0] }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 { return binary.LittleEndian.Uint16(d.fixed(2)) }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count checks a count n of elements whose encodings take at least
// minBytes (>= 1) each against the bytes left, and returns it as an
// int. A count the bytes left cannot back fails the decoder and returns
// 0, before the caller sizes anything from it.
func (d *Decoder) Count(n uint64, minBytes int) int {
	if n > uint64(len(d.b)/minBytes) {
		d.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}
