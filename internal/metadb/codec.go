package metadb

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The catalog codec: the binary form statements, results and redo
// operations take on the network (mdbnet's SQL batches and
// replication stream). Encoders append to a caller's buffer; a Decoder
// reads them back with every length and count checked against the
// bytes left, so a short or hostile body is an error, never a panic
// or an allocation larger than a small multiple of the body.
//
// Layout: counts and lengths are uvarints, integers zigzag varints, a
// string is its length then its bytes, a bool or a Kind one byte. A
// Value is its Kind then, for INTEGER, the integer or, for TEXT, the
// string. Empty slices decode as nil, as they did under gob.

// AppendString appends s in the codec's string form.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p in the codec's string form.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendValue appends one SQL value.
func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = binary.AppendVarint(b, v.Int)
	case KindText:
		b = AppendString(b, v.Str)
	}
	return b
}

func appendValues(b []byte, vals []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

// AppendStmts appends a batch of statements: each its text and its
// arguments.
func AppendStmts(b []byte, stmts []Stmt) []byte {
	b = binary.AppendUvarint(b, uint64(len(stmts)))
	for _, st := range stmts {
		b = AppendString(b, st.SQL)
		b = appendValues(b, st.Args)
	}
	return b
}

// AppendResults appends statement results: each its column names, its
// rows and its affected-row count.
func AppendResults(b []byte, res []*Result) []byte {
	b = binary.AppendUvarint(b, uint64(len(res)))
	for _, r := range res {
		b = binary.AppendUvarint(b, uint64(len(r.Cols)))
		for _, c := range r.Cols {
			b = AppendString(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(r.Rows)))
		for _, row := range r.Rows {
			b = appendValues(b, row)
		}
		b = binary.AppendVarint(b, r.RowsAffected)
	}
	return b
}

// appendColumnDef appends one column definition.
func appendColumnDef(b []byte, c ColumnDef) []byte {
	b = AppendString(b, c.Name)
	b = append(b, byte(c.Type))
	b = AppendBool(b, c.PrimaryKey)
	return AppendBool(b, c.NotNull)
}

// AppendRedoOps appends a commit's redo operations.
func AppendRedoOps(b []byte, ops []RedoOp) []byte {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = AppendString(b, op.Kind)
		b = AppendString(b, op.Table)
		b = binary.AppendVarint(b, op.RowID)
		b = appendValues(b, op.Vals)
		b = binary.AppendUvarint(b, uint64(len(op.Cols)))
		for _, c := range op.Cols {
			b = appendColumnDef(b, c)
		}
		b = AppendString(b, op.Index)
		b = AppendString(b, op.Col)
	}
	return b
}

// Smallest encodings, which bound what a count may claim.
const (
	minValue     = 1 // a NULL
	minStmt      = 2 // empty text, no arguments
	minResult    = 3 // no columns, no rows, zero count
	minColumnDef = 4 // empty name, kind, two flags
	minRedoOp    = 7 // five empty strings, a zero row id, no values, no columns
)

var errTruncated = errors.New("metadb: truncated catalog codec body")

// A Decoder reads what the Append functions wrote. Errors are sticky:
// after the first, every read returns a zero value and Finish reports
// that error.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Finish reports the first decoding error, or an error if bytes remain
// unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("metadb: %d trailing bytes in catalog codec body", len(d.b))
	}
	return d.err
}

// uvarint reads a uvarint.
func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// byte reads one byte.
func (d *Decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads a bool; any byte but 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(errors.New("metadb: bad bool in catalog codec body"))
	return false
}

// count reads a count of elements whose encodings take at least min
// bytes each, refusing one the bytes left cannot hold.
func (d *Decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the
// decoder's input; an empty one is nil.
func (d *Decoder) Bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Text reads a string.
func (d *Decoder) Text() string { return string(d.Bytes()) }

// value reads one SQL value.
func (d *Decoder) value() Value {
	switch k := Kind(d.byte()); k {
	case KindNull:
		return Value{}
	case KindInt:
		return Value{Kind: KindInt, Int: d.Int()}
	case KindText:
		return Value{Kind: KindText, Str: d.Text()}
	default:
		d.fail(fmt.Errorf("metadb: bad value kind %d in catalog codec body", k))
		return Value{}
	}
}

func (d *Decoder) values() []Value {
	n := d.count(minValue)
	if n == 0 {
		return nil
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = d.value()
	}
	return vals
}

// Stmts reads a batch of statements.
func (d *Decoder) Stmts() []Stmt {
	n := d.count(minStmt)
	if n == 0 {
		return nil
	}
	stmts := make([]Stmt, n)
	for i := range stmts {
		stmts[i] = Stmt{SQL: d.Text(), Args: d.values()}
	}
	return stmts
}

// Results reads statement results.
func (d *Decoder) Results() []*Result {
	n := d.count(minResult)
	if n == 0 {
		return nil
	}
	res := make([]*Result, n)
	for i := range res {
		r := &Result{}
		if nc := d.count(1); nc > 0 {
			r.Cols = make([]string, nc)
			for j := range r.Cols {
				r.Cols[j] = d.Text()
			}
		}
		if nr := d.count(1); nr > 0 {
			r.Rows = make([][]Value, nr)
			for j := range r.Rows {
				r.Rows[j] = d.values()
			}
		}
		r.RowsAffected = d.Int()
		res[i] = r
	}
	return res
}

// columnDef reads one column definition.
func (d *Decoder) columnDef() ColumnDef {
	return ColumnDef{Name: d.Text(), Type: Kind(d.byte()), PrimaryKey: d.Bool(), NotNull: d.Bool()}
}

// RedoOps reads a commit's redo operations.
func (d *Decoder) RedoOps() []RedoOp {
	n := d.count(minRedoOp)
	if n == 0 {
		return nil
	}
	ops := make([]RedoOp, n)
	for i := range ops {
		op := RedoOp{Kind: d.Text(), Table: d.Text(), RowID: d.Int(), Vals: d.values()}
		if nc := d.count(minColumnDef); nc > 0 {
			op.Cols = make([]ColumnDef, nc)
			for j := range op.Cols {
				op.Cols[j] = d.columnDef()
			}
		}
		op.Index, op.Col = d.Text(), d.Text()
		ops[i] = op
	}
	return ops
}
