// Package metadb is a small embedded relational database engine used as
// the DPFS meta-data repository. The paper stores DPFS meta data in
// POSTGRES and accesses it with standard SQL (Section 5); this package
// is the from-scratch substitute. Its SQL is the dialect the catalog of
// internal/meta speaks and nothing else: CREATE TABLE/INDEX, INSERT,
// SELECT with JOIN/WHERE/GROUP BY/ORDER BY and COUNT(*)/SUM, UPDATE and
// DELETE over INTEGER and TEXT columns, '?' parameters, and EXPLAIN
// SELECT. Around it sit transactions (BEGIN/COMMIT/ROLLBACK) with undo
// logging and durable storage via a write-ahead log plus snapshot
// checkpoints. A TCP front end lives in the mdbnet subpackage.
package metadb

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of SQL values.
type Kind uint8

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindText is a string. The numbers are on disk and on the wire; 2
	// was REAL.
	KindText Kind = 3
)

// String names the kind like the SQL type keywords do.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindText:
		return "TEXT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a SQL runtime value.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// Null, I and S are value constructors.
func Null() Value      { return Value{Kind: KindNull} }
func I(v int64) Value  { return Value{Kind: KindInt, Int: v} }
func S(v string) Value { return Value{Kind: KindText, Str: v} }
func B(v bool) Value {
	if v {
		return I(1)
	}
	return I(0)
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truth reports whether the value counts as true in a WHERE clause
// (non-zero number, non-empty handled as error elsewhere; NULL is
// false).
func (v Value) Truth() bool {
	switch v.Kind {
	case KindInt:
		return v.Int != 0
	case KindText:
		return v.Str != ""
	}
	return false
}

// String renders the value as SQL literal text.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindText:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	}
	return "?"
}

// Compare orders two values: NULL sorts before everything, then
// integers, then text (bytewise).
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindInt:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	case KindText:
		return strings.Compare(a.Str, b.Str)
	}
	return 0
}

// ParseType maps a SQL column type keyword to a Kind.
func ParseType(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER":
		return KindInt, nil
	case "TEXT":
		return KindText, nil
	}
	return 0, fmt.Errorf("metadb: unknown column type %q", name)
}

// coerce checks v for storage into a column of kind k: it must have
// that kind or be NULL.
func coerce(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.Kind == k {
		return v, nil
	}
	return Value{}, fmt.Errorf("metadb: cannot store %s value %s in %s column", v.Kind, v, k)
}
