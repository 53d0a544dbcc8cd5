package metadb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// tableRef binds a FROM or JOIN table to its alias.
type tableRef struct {
	alias string
	t     *Table
}

// binding is one joined row: values aligned with the executor's table
// refs.
type binding [][]Value

// execSelect runs a SELECT with args bound to its placeholders:
// nested-loop joins (index-probed where possible), WHERE, optional
// GROUP BY with aggregates and ORDER BY. Caller holds at least a read
// lock.
func (db *DB) execSelect(st Select, args []Value) (*Result, error) {
	refs, err := db.resolveRefs(st)
	if err != nil {
		return nil, err
	}

	rows, err := db.joinRows(st, refs, args)
	if err != nil {
		return nil, err
	}

	items, names, err := expandItems(st.Items, refs)
	if err != nil {
		return nil, err
	}

	grouped := len(st.GroupBy) > 0
	if !grouped {
		for _, it := range items {
			if hasAgg(it) {
				grouped = true
				break
			}
		}
	}
	res := &Result{Cols: names}
	if grouped {
		if err := db.evalGrouped(st, refs, rows, items, args, res); err != nil {
			return nil, err
		}
	} else {
		if err := db.evalPlain(st, refs, rows, items, args, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resolveRefs looks up the FROM table and all join tables.
func (db *DB) resolveRefs(st Select) ([]tableRef, error) {
	base, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	alias := st.Alias
	if alias == "" {
		alias = st.Table
	}
	refs := []tableRef{{alias: alias, t: base}}
	for _, j := range st.Joins {
		t, err := db.table(j.Table)
		if err != nil {
			return nil, err
		}
		a := j.Alias
		if a == "" {
			a = j.Table
		}
		for _, r := range refs {
			if r.alias == a {
				return nil, fmt.Errorf("metadb: duplicate table alias %q", a)
			}
		}
		refs = append(refs, tableRef{alias: a, t: t})
	}
	return refs, nil
}

// resolveCol finds the tables among refs that a column reference can
// name: n is how many do, and for n == 1 ref and ci locate the column.
func resolveCol(refs []tableRef, c Col) (ref, ci, n int) {
	for i, r := range refs {
		if c.Qual != "" && c.Qual != r.alias && c.Qual != r.t.Name {
			continue
		}
		if idx, ok := r.t.colIdx[c.Name]; ok {
			ref, ci = i, idx
			n++
		}
	}
	return ref, ci, n
}

// bindEnv resolves column references against the first bound tables of
// a (possibly partial) binding.
func bindEnv(refs []tableRef, b binding, bound int) env {
	return func(qual, name string) (Value, error) {
		ref, ci, n := resolveCol(refs[:bound], Col{Qual: qual, Name: name})
		switch {
		case n > 1:
			return Value{}, fmt.Errorf("metadb: ambiguous column %q", name)
		case n == 0 && qual != "":
			return Value{}, fmt.Errorf("metadb: no column %s.%s", qual, name)
		case n == 0:
			return Value{}, fmt.Errorf("metadb: no column %q", name)
		}
		return b[ref][ci], nil
	}
}

// joinRows produces all bindings satisfying the join conditions and
// the WHERE clause. Candidate rows come from an index where one
// applies (pruneBase for the base table, joinProbe for a joined one)
// and from a scan otherwise; ON and WHERE are evaluated on every
// candidate either way, so the indexes only prune.
func (db *DB) joinRows(st Select, refs []tableRef, args []Value) ([]binding, error) {
	var out []binding

	baseIDs := pruneBase(st, refs, args)
	var (
		probes []joinProbe // per joined table (index 0 unused)
		scans  [][]int64   // a joined table's scan order, built once
	)
	if len(refs) > 1 {
		probes, scans = make([]joinProbe, len(refs)), make([][]int64, len(refs))
		for level := 1; level < len(refs); level++ {
			probes[level] = findJoinProbe(refs, level, st.Joins[level-1].On)
		}
	}

	cur := make(binding, len(refs))
	ctx := &evalCtx{args: args}
	var walk func(level int) error
	walk = func(level int) error {
		if level == len(refs) {
			if st.Where != nil {
				ctx.lookup = bindEnv(refs, cur, len(refs))
				v, err := eval(st.Where, ctx)
				if err != nil {
					return err
				}
				if v.IsNull() || !v.Truth() {
					return nil
				}
			}
			row := make(binding, len(refs))
			copy(row, cur)
			out = append(out, row)
			return nil
		}
		t := refs[level].t
		ids := baseIDs
		if level > 0 {
			if pr := probes[level]; pr.ok {
				ids, _ = t.probe(pr.innerCol, cur[pr.outer][pr.outerCol])
			} else {
				if scans[level] == nil {
					scans[level] = t.scanIDs()
				}
				ids = scans[level]
			}
		}
		for _, rid := range ids {
			cur[level] = t.rows[rid]
			if level > 0 {
				on := st.Joins[level-1].On
				if on != nil {
					ctx.lookup = bindEnv(refs, cur, level+1)
					v, err := eval(on, ctx)
					if err != nil {
						return err
					}
					if v.IsNull() || !v.Truth() {
						continue
					}
				}
			}
			if err := walk(level + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return out, nil
}

// joinProbe says how to find a joined table's candidate rows for one
// outer binding without scanning it: look the value of column outerCol
// of the already-bound table outer up in the index on innerCol.
type joinProbe struct {
	ok              bool
	outer, outerCol int
	innerCol        int
}

// findJoinProbe recognizes a join condition "x.a = y.b" where one side
// is a primary-key or secondary-indexed column of the table joined at
// level and the other a column of exactly one earlier table. Both
// columns must have the same type: stored values then compare equal
// exactly when they are the same index key, which is what makes the
// probe agree with evaluating ON (a mixed-type ON is an error, and the
// nested loop reports it).
func findJoinProbe(refs []tableRef, level int, on Expr) joinProbe {
	b, ok := on.(Binary)
	if !ok || b.Op != "=" {
		return joinProbe{}
	}
	l, lok := b.L.(Col)
	r, rok := b.R.(Col)
	if !lok || !rok {
		return joinProbe{}
	}
	lref, lci, ln := resolveCol(refs[:level+1], l)
	rref, rci, rn := resolveCol(refs[:level+1], r)
	if ln != 1 || rn != 1 {
		return joinProbe{}
	}
	if lref == level {
		lref, lci, rref, rci = rref, rci, lref, lci
	}
	// Now (rref, rci) should be the joined table's side.
	if rref != level || lref == level {
		return joinProbe{}
	}
	inner := refs[level].t
	if refs[lref].t.Cols[lci].Type != inner.Cols[rci].Type || inner.probeName(rci) == "" {
		return joinProbe{}
	}
	return joinProbe{ok: true, outer: lref, outerCol: lci, innerCol: rci}
}

// eqPredicate recognizes e as "col = constant" (either way round) over
// table t, where col may be qualified by the table's name or alias and
// a constant is a literal or a placeholder. It is the one place that
// decides what an index may be probed with.
func eqPredicate(t *Table, alias string, e Expr) (ci int, constant Expr, ok bool) {
	b, isBin := e.(Binary)
	if !isBin || b.Op != "=" {
		return 0, nil, false
	}
	for _, side := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
		c, isCol := side[0].(Col)
		if !isCol || (c.Qual != "" && c.Qual != t.Name && c.Qual != alias) {
			continue
		}
		switch side[1].(type) {
		case Lit, Param:
		default:
			continue
		}
		if ci, found := t.colIdx[c.Name]; found {
			return ci, side[1], true
		}
	}
	return 0, nil, false
}

// pointLookup returns the rows of t that an index says satisfy where;
// ok is false when where is not an eqPredicate over an indexed column
// and the caller must scan.
func pointLookup(t *Table, alias string, where Expr, args []Value) (ids []int64, ok bool) {
	ci, constant, isEq := eqPredicate(t, alias, where)
	if !isEq {
		return nil, false
	}
	v, err := eval(constant, &evalCtx{args: args})
	if err != nil {
		return nil, false // the scan reports a placeholder without argument
	}
	if v, err = coerce(v, t.Cols[ci].Type); err != nil {
		return nil, true // a mistyped probe matches nothing
	}
	return t.probe(ci, v)
}

// pruneBase returns the candidate rowids of the base table: an index
// point lookup when the query is single-table with a simple equality
// WHERE (the WHERE is still re-evaluated per row afterwards, so pruning
// is purely an optimization), otherwise a full scan.
func pruneBase(st Select, refs []tableRef, args []Value) []int64 {
	if len(refs) == 1 {
		if ids, ok := pointLookup(refs[0].t, refs[0].alias, st.Where, args); ok {
			return ids
		}
	}
	return refs[0].t.scanIDs()
}

// expandItems expands * into per-column references and derives output
// names.
func expandItems(items []SelectItem, refs []tableRef) ([]Expr, []string, error) {
	var exprs []Expr
	var names []string
	for _, it := range items {
		if it.Star {
			for _, r := range refs {
				for _, c := range r.t.Cols {
					exprs = append(exprs, Col{Qual: r.alias, Name: c.Name})
					names = append(names, c.Name)
				}
			}
			continue
		}
		var name string
		switch e := it.Expr.(type) {
		case Col:
			name = e.Name
		case AggExpr:
			name = e.Fn
		default:
			name = fmt.Sprintf("col%d", len(exprs)+1)
		}
		exprs = append(exprs, it.Expr)
		names = append(names, name)
	}
	if len(exprs) == 0 {
		return nil, nil, errors.New("metadb: empty select list")
	}
	return exprs, names, nil
}

// outRows collects a SELECT's output rows with their ORDER BY keys.
type outRows struct {
	orderBy []Expr
	rows    []outRow
}

type outRow struct{ out, keys []Value }

// add evaluates items and the ORDER BY keys against ctx and appends the
// row.
func (o *outRows) add(items []Expr, ctx *evalCtx) error {
	r := outRow{out: make([]Value, len(items)), keys: make([]Value, len(o.orderBy))}
	for i, e := range items {
		v, err := eval(e, ctx)
		if err != nil {
			return err
		}
		r.out[i] = v
	}
	for i, k := range o.orderBy {
		v, err := eval(k, ctx)
		if err != nil {
			return err
		}
		r.keys[i] = v
	}
	o.rows = append(o.rows, r)
	return nil
}

// into sorts the rows by their keys, ascending and stable, and moves
// them into res.
func (o *outRows) into(res *Result) {
	if len(o.orderBy) > 0 {
		sort.SliceStable(o.rows, func(i, j int) bool {
			for k := range o.orderBy {
				if c := Compare(o.rows[i].keys[k], o.rows[j].keys[k]); c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	for _, r := range o.rows {
		res.Rows = append(res.Rows, r.out)
	}
}

// evalPlain evaluates items per row, then sorts.
func (db *DB) evalPlain(st Select, refs []tableRef, rows []binding, items []Expr, args []Value, res *Result) error {
	o := outRows{orderBy: st.OrderBy, rows: make([]outRow, 0, len(rows))}
	for _, b := range rows {
		if err := o.add(items, &evalCtx{args: args, lookup: bindEnv(refs, b, len(refs))}); err != nil {
			return err
		}
	}
	o.into(res)
	return nil
}

// evalGrouped buckets rows by the GROUP BY keys (one global bucket if
// none) and evaluates items with aggregate support.
func (db *DB) evalGrouped(st Select, refs []tableRef, rows []binding, items []Expr, args []Value, res *Result) error {
	var buckets [][]binding
	index := map[string]int{} // group key -> its bucket
	for _, b := range rows {
		ctx := &evalCtx{args: args, lookup: bindEnv(refs, b, len(refs))}
		var key strings.Builder
		for _, c := range st.GroupBy {
			v, err := eval(c, ctx)
			if err != nil {
				return err
			}
			key.WriteString(v.String())
			key.WriteByte('\x00')
		}
		i, ok := index[key.String()]
		if !ok {
			i = len(buckets)
			index[key.String()] = i
			buckets = append(buckets, nil)
		}
		buckets[i] = append(buckets[i], b)
	}
	// An ungrouped aggregate over zero rows still yields one row.
	if len(buckets) == 0 && len(st.GroupBy) == 0 {
		buckets = append(buckets, nil)
	}

	o := outRows{orderBy: st.OrderBy}
	for _, group := range buckets {
		ctx := &evalCtx{args: args, agg: func(a AggExpr) (Value, error) { return aggregate(a, refs, group, args) }}
		if len(group) > 0 {
			ctx.lookup = bindEnv(refs, group[0], len(refs))
		}
		if err := o.add(items, ctx); err != nil {
			return err
		}
	}
	o.into(res)
	return nil
}

// aggregate computes COUNT(*) or SUM(x) over a bucket; SUM skips NULLs
// and is NULL over none.
func aggregate(a AggExpr, refs []tableRef, rows []binding, args []Value) (Value, error) {
	if a.X == nil {
		return I(int64(len(rows))), nil
	}
	var sum, count int64
	for _, b := range rows {
		v, err := eval(a.X, &evalCtx{args: args, lookup: bindEnv(refs, b, len(refs))})
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if v.Kind != KindInt {
			return Value{}, fmt.Errorf("metadb: %s requires numeric values", a.Fn)
		}
		sum += v.Int
		count++
	}
	if count == 0 {
		return Null(), nil
	}
	return I(sum), nil
}
