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
// GROUP BY/HAVING with aggregates, ORDER BY and LIMIT. Caller holds at
// least a read lock.
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
	if !grouped && st.Having != nil {
		return nil, errors.New("metadb: HAVING requires aggregation or GROUP BY")
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
	if st.Distinct {
		res.Rows = dedupeRows(res.Rows)
	}
	if st.Limit != nil && int64(len(res.Rows)) > *st.Limit {
		res.Rows = res.Rows[:*st.Limit]
	}
	return res, nil
}

// dedupeRows drops duplicate output rows, keeping first occurrences
// (so an ORDER BY sort is preserved).
func dedupeRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('\x00')
		}
		k := sb.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
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
// is a primary-key, UNIQUE or secondary-indexed column of the table
// joined at level and the other a column of exactly one earlier table.
// Both columns must have the same non-REAL type: stored values then
// compare equal exactly when they are the same index key, which is what
// makes the probe agree with evaluating ON (a mixed-type ON is an
// error or a numeric comparison, and the nested loop reports either).
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
	inner, kind := refs[level].t, refs[level].t.Cols[rci].Type
	if kind == KindFloat || refs[lref].t.Cols[lci].Type != kind || inner.probeName(rci) == "" {
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
		name := it.Alias
		if name == "" {
			switch e := it.Expr.(type) {
			case Col:
				name = e.Name
			case AggExpr:
				name = e.Fn
			default:
				name = fmt.Sprintf("col%d", len(exprs)+1)
			}
		}
		exprs = append(exprs, it.Expr)
		names = append(names, name)
	}
	if len(exprs) == 0 {
		return nil, nil, errors.New("metadb: empty select list")
	}
	return exprs, names, nil
}

// evalPlain evaluates items per row, then sorts.
func (db *DB) evalPlain(st Select, refs []tableRef, rows []binding, items []Expr, args []Value, res *Result) error {
	type sortedRow struct {
		out  []Value
		keys []Value
	}
	srows := make([]sortedRow, 0, len(rows))
	for _, b := range rows {
		ctx := &evalCtx{args: args, lookup: bindEnv(refs, b, len(refs))}
		out := make([]Value, len(items))
		for i, e := range items {
			v, err := eval(e, ctx)
			if err != nil {
				return err
			}
			out[i] = v
		}
		keys, err := orderKeys(st.OrderBy, ctx, out, res.Cols)
		if err != nil {
			return err
		}
		srows = append(srows, sortedRow{out: out, keys: keys})
	}
	sortByKeys(st.OrderBy, func(i, j int) bool { return lessKeys(st.OrderBy, srows[i].keys, srows[j].keys) },
		len(srows), func(less func(i, j int) bool) {
			sort.SliceStable(srows, less)
		})
	for _, r := range srows {
		res.Rows = append(res.Rows, r.out)
	}
	return nil
}

// evalGrouped buckets rows by the GROUP BY keys (one global bucket if
// none), applies HAVING, and evaluates items with aggregate support.
func (db *DB) evalGrouped(st Select, refs []tableRef, rows []binding, items []Expr, args []Value, res *Result) error {
	type bucket struct {
		key  string
		rows []binding
	}
	var buckets []*bucket
	index := map[string]*bucket{}
	for _, b := range rows {
		key := ""
		if len(st.GroupBy) > 0 {
			ctx := &evalCtx{args: args, lookup: bindEnv(refs, b, len(refs))}
			var sb strings.Builder
			for _, ge := range st.GroupBy {
				v, err := eval(ge, ctx)
				if err != nil {
					return err
				}
				sb.WriteString(v.String())
				sb.WriteByte('\x00')
			}
			key = sb.String()
		}
		bk, ok := index[key]
		if !ok {
			bk = &bucket{key: key}
			index[key] = bk
			buckets = append(buckets, bk)
		}
		bk.rows = append(bk.rows, b)
	}
	// An ungrouped aggregate over zero rows still yields one row.
	if len(buckets) == 0 && len(st.GroupBy) == 0 {
		buckets = append(buckets, &bucket{})
	}

	type sortedRow struct {
		out  []Value
		keys []Value
	}
	var srows []sortedRow
	for _, bk := range buckets {
		ctx := &evalCtx{args: args, agg: func(a AggExpr) (Value, error) { return db.aggregate(a, refs, bk.rows, args) }}
		if len(bk.rows) > 0 {
			ctx.lookup = bindEnv(refs, bk.rows[0], len(refs))
		}
		if st.Having != nil {
			v, err := eval(st.Having, ctx)
			if err != nil {
				return err
			}
			if v.IsNull() || !v.Truth() {
				continue
			}
		}
		out := make([]Value, len(items))
		for i, e := range items {
			v, err := eval(e, ctx)
			if err != nil {
				return err
			}
			out[i] = v
		}
		keys, err := orderKeys(st.OrderBy, ctx, out, res.Cols)
		if err != nil {
			return err
		}
		srows = append(srows, sortedRow{out: out, keys: keys})
	}
	sortByKeys(st.OrderBy, func(i, j int) bool { return lessKeys(st.OrderBy, srows[i].keys, srows[j].keys) },
		len(srows), func(less func(i, j int) bool) {
			sort.SliceStable(srows, less)
		})
	for _, r := range srows {
		res.Rows = append(res.Rows, r.out)
	}
	return nil
}

// aggregate computes one aggregate over a bucket.
func (db *DB) aggregate(a AggExpr, refs []tableRef, rows []binding, args []Value) (Value, error) {
	if a.Star {
		if a.Fn != "COUNT" {
			return Value{}, fmt.Errorf("metadb: %s(*) is not valid", a.Fn)
		}
		return I(int64(len(rows))), nil
	}
	var (
		count int64
		sumF  float64
		sumI  int64
		allI  = true
		best  Value
		first = true
	)
	for _, b := range rows {
		v, err := eval(a.X, &evalCtx{args: args, lookup: bindEnv(refs, b, len(refs))})
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch a.Fn {
		case "SUM", "AVG":
			f, ok := v.AsFloat()
			if !ok {
				return Value{}, fmt.Errorf("metadb: %s requires numeric values", a.Fn)
			}
			sumF += f
			if v.Kind == KindInt {
				sumI += v.Int
			} else {
				allI = false
			}
		case "MIN":
			if first || Compare(v, best) < 0 {
				best = v
			}
		case "MAX":
			if first || Compare(v, best) > 0 {
				best = v
			}
		}
		first = false
	}
	switch a.Fn {
	case "COUNT":
		return I(count), nil
	case "SUM":
		if count == 0 {
			return Null(), nil
		}
		if allI {
			return I(sumI), nil
		}
		return F(sumF), nil
	case "AVG":
		if count == 0 {
			return Null(), nil
		}
		return F(sumF / float64(count)), nil
	case "MIN", "MAX":
		if count == 0 {
			return Null(), nil
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("metadb: unknown aggregate %q", a.Fn)
}

// orderKeys evaluates ORDER BY keys for one output row. Keys may be
// arbitrary expressions, an output column name, or a 1-based output
// position.
func orderKeys(keys []OrderKey, ctx *evalCtx, out []Value, names []string) ([]Value, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	vals := make([]Value, len(keys))
	for i, k := range keys {
		// ORDER BY 2 — output position.
		if lit, ok := k.Expr.(Lit); ok && lit.V.Kind == KindInt {
			pos := int(lit.V.Int)
			if pos < 1 || pos > len(out) {
				return nil, fmt.Errorf("metadb: ORDER BY position %d out of range", pos)
			}
			vals[i] = out[pos-1]
			continue
		}
		// ORDER BY alias — output column name takes priority when the
		// expression is a bare, unqualified name matching an output.
		if c, ok := k.Expr.(Col); ok && c.Qual == "" {
			if j := indexOfName(names, c.Name); j >= 0 {
				// Prefer the row column when it resolves (plain
				// selects); fall back to the output column (grouped
				// selects where the alias names an aggregate).
				if ctx.lookup != nil {
					if v, err := ctx.lookup("", c.Name); err == nil {
						vals[i] = v
						continue
					}
				}
				vals[i] = out[j]
				continue
			}
		}
		v, err := eval(k.Expr, ctx)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

func indexOfName(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

func lessKeys(keys []OrderKey, a, b []Value) bool {
	for k := range keys {
		c := Compare(a[k], b[k])
		if c == 0 {
			continue
		}
		if keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// sortByKeys applies the sort only when ORDER BY is present.
func sortByKeys(keys []OrderKey, less func(i, j int) bool, n int, do func(func(i, j int) bool)) {
	if len(keys) == 0 || n < 2 {
		return
	}
	do(less)
}
