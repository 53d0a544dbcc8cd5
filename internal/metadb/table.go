package metadb

import (
	"fmt"
	"sort"
)

// Table is an in-memory relation: a schema, rows addressed by a
// monotonically increasing rowid (which also gives stable scan order),
// a hash index on the primary key, and optional non-unique secondary
// indexes (CREATE INDEX).
type Table struct {
	Name      string
	Cols      []ColumnDef
	colIdx    map[string]int
	rows      map[int64][]Value
	pk        int             // index of the primary-key column, -1 if none
	pkIdx     map[Value]int64 // pk value -> rowid
	secondary map[string]*secondaryIndex
	nextRow   int64
}

// secondaryIndex is a non-unique hash index over one column.
type secondaryIndex struct {
	name string
	col  int
	m    map[Value]map[int64]struct{}
}

func (ix *secondaryIndex) add(v Value, rid int64) {
	if v.IsNull() {
		return
	}
	set, ok := ix.m[v]
	if !ok {
		set = make(map[int64]struct{})
		ix.m[v] = set
	}
	set[rid] = struct{}{}
}

func (ix *secondaryIndex) remove(v Value, rid int64) {
	if v.IsNull() {
		return
	}
	if set, ok := ix.m[v]; ok {
		delete(set, rid)
		if len(set) == 0 {
			delete(ix.m, v)
		}
	}
}

// createIndex registers and builds a secondary index.
func (t *Table) createIndex(name, col string) error {
	ci, err := t.ColIndex(col)
	if err != nil {
		return err
	}
	if _, dup := t.secondary[name]; dup {
		return fmt.Errorf("metadb: index %q already exists on table %q", name, t.Name)
	}
	ix := &secondaryIndex{name: name, col: ci, m: make(map[Value]map[int64]struct{})}
	for rid, vals := range t.rows {
		ix.add(vals[ci], rid)
	}
	if t.secondary == nil {
		t.secondary = make(map[string]*secondaryIndex)
	}
	t.secondary[name] = ix
	return nil
}

// dropIndex removes a secondary index (the undo of createIndex).
func (t *Table) dropIndex(name string) { delete(t.secondary, name) }

// indexOn returns a secondary index covering the column, if any.
func (t *Table) indexOn(col int) *secondaryIndex {
	for _, ix := range t.secondary {
		if ix.col == col {
			return ix
		}
	}
	return nil
}

// NewTable builds an empty table from column definitions.
func NewTable(name string, cols []ColumnDef) (*Table, error) {
	t := &Table{
		Name:    name,
		Cols:    cols,
		colIdx:  make(map[string]int, len(cols)),
		rows:    make(map[int64][]Value),
		pk:      -1,
		nextRow: 1,
	}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("metadb: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[c.Name] = i
		if c.PrimaryKey {
			if t.pk >= 0 {
				return nil, fmt.Errorf("metadb: table %q has multiple primary keys", name)
			}
			t.pk = i
			t.pkIdx = make(map[Value]int64)
		}
	}
	return t, nil
}

// ColIndex returns the position of the named column.
func (t *Table) ColIndex(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("metadb: no column %q in table %q", name, t.Name)
	}
	return i, nil
}

// checkRow coerces values to column types and validates constraints
// (NOT NULL, primary key). excludeRow is skipped during the uniqueness
// check (used when updating a row in place).
func (t *Table) checkRow(vals []Value, excludeRow int64) ([]Value, error) {
	out, err := t.coerceRow(vals)
	if err != nil {
		return nil, err
	}
	if err := t.conflict(out, excludeRow); err != nil {
		return nil, err
	}
	return out, nil
}

// coerceRow coerces values to column types and enforces NOT NULL.
func (t *Table) coerceRow(vals []Value) ([]Value, error) {
	if len(vals) != len(t.Cols) {
		return nil, fmt.Errorf("metadb: table %q has %d columns, got %d values", t.Name, len(t.Cols), len(vals))
	}
	out := make([]Value, len(vals))
	for i, c := range t.Cols {
		v, err := coerce(vals[i], c.Type)
		if err != nil {
			return nil, fmt.Errorf("metadb: column %q: %w", c.Name, err)
		}
		if v.IsNull() && c.NotNull {
			return nil, fmt.Errorf("metadb: column %q must not be NULL", c.Name)
		}
		out[i] = v
	}
	return out, nil
}

// conflict reports the primary key a coerced row shares with a row
// other than excludeRow.
func (t *Table) conflict(vals []Value, excludeRow int64) error {
	if t.pk >= 0 {
		if rid, ok := t.pkIdx[vals[t.pk]]; ok && rid != excludeRow {
			return fmt.Errorf("metadb: duplicate primary key %s in table %q", vals[t.pk], t.Name)
		}
	}
	return nil
}

// insert adds a validated row and returns its rowid. When rid > 0 the
// caller (WAL replay) dictates the rowid.
func (t *Table) insert(vals []Value, rid int64) int64 {
	if rid <= 0 {
		rid = t.nextRow
	}
	if rid >= t.nextRow {
		t.nextRow = rid + 1
	}
	t.rows[rid] = vals
	if t.pk >= 0 {
		t.pkIdx[vals[t.pk]] = rid
	}
	for _, ix := range t.secondary {
		ix.add(vals[ix.col], rid)
	}
	return rid
}

// delete removes a row by id, returning its values.
func (t *Table) delete(rid int64) ([]Value, bool) {
	vals, ok := t.rows[rid]
	if !ok {
		return nil, false
	}
	delete(t.rows, rid)
	if t.pk >= 0 {
		delete(t.pkIdx, vals[t.pk])
	}
	for _, ix := range t.secondary {
		ix.remove(vals[ix.col], rid)
	}
	return vals, true
}

// update replaces a row's values in place, maintaining indexes.
func (t *Table) update(rid int64, vals []Value) ([]Value, bool) {
	old, ok := t.rows[rid]
	if !ok {
		return nil, false
	}
	if t.pk >= 0 {
		delete(t.pkIdx, old[t.pk])
		t.pkIdx[vals[t.pk]] = rid
	}
	for _, ix := range t.secondary {
		ix.remove(old[ix.col], rid)
		ix.add(vals[ix.col], rid)
	}
	t.rows[rid] = vals
	return old, true
}

// scanIDs returns all rowids in insertion (rowid) order.
func (t *Table) scanIDs() []int64 {
	ids := make([]int64, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// probe returns, in rowid order, the rows whose column ci equals v when
// the column is the primary key or covered by a secondary index; ok is
// false when it is neither and the caller must scan. v must already
// have the column's type; NULL matches nothing.
func (t *Table) probe(ci int, v Value) (ids []int64, ok bool) {
	if ci == t.pk {
		if rid, found := t.pkIdx[v]; found {
			return []int64{rid}, true
		}
		return nil, true
	}
	ix := t.indexOn(ci)
	if ix == nil {
		return nil, false
	}
	set := ix.m[v]
	ids = make([]int64, 0, len(set))
	for rid := range set {
		ids = append(ids, rid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, true
}

// probeName names the index probe would use on column ci ("" when the
// column has none).
func (t *Table) probeName(ci int) string {
	if ci == t.pk {
		return "PRIMARY KEY"
	}
	if ix := t.indexOn(ci); ix != nil {
		return ix.name
	}
	return ""
}
