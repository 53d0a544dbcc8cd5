package metadb

import (
	"fmt"
	"strings"
)

// Explain is EXPLAIN SELECT ...: it returns the executor's access plan
// as rows of text instead of running the query.
type Explain struct {
	Stmt Select
}

func (Explain) stmt() {}

// explainSelect renders the plan the executor would follow.
func (db *DB) explainSelect(st Select) (*Result, error) {
	refs, err := db.resolveRefs(st)
	if err != nil {
		return nil, err
	}
	var lines []string

	// Base table access method.
	base := refs[0]
	access := fmt.Sprintf("SCAN %s (%d rows)", base.t.Name, len(base.t.rows))
	if len(refs) == 1 {
		if ci, _, ok := eqPredicate(base.t, base.alias, st.Where); ok {
			if by := base.t.probeName(ci); by != "" {
				kind := "INDEX" // a secondary index may hold several rows per key
				if by == "PRIMARY KEY" || by == "UNIQUE" {
					kind = "POINT"
				}
				access = fmt.Sprintf("%s LOOKUP %s BY %s (%s)", kind, base.t.Name, by, base.t.Cols[ci].Name)
			}
		}
	}
	lines = append(lines, access)

	for i, j := range st.Joins {
		t := refs[i+1].t
		if pr := findJoinProbe(refs, i+1, j.On); pr.ok {
			lines = append(lines, fmt.Sprintf("INDEX NESTED LOOP JOIN %s BY %s (%s) ON %s",
				t.Name, t.probeName(pr.innerCol), t.Cols[pr.innerCol].Name, ExprString(j.On)))
			continue
		}
		lines = append(lines, fmt.Sprintf("NESTED LOOP JOIN %s (%d rows) ON %s",
			t.Name, len(t.rows), ExprString(j.On)))
	}
	if st.Where != nil {
		lines = append(lines, "FILTER "+ExprString(st.Where))
	}
	if len(st.GroupBy) > 0 {
		keys := make([]string, len(st.GroupBy))
		for i, g := range st.GroupBy {
			keys[i] = ExprString(g)
		}
		lines = append(lines, "GROUP BY "+strings.Join(keys, ", "))
	} else {
		agg := false
		for _, it := range st.Items {
			if it.Expr != nil && hasAgg(it.Expr) {
				agg = true
			}
		}
		if agg {
			lines = append(lines, "AGGREGATE (single group)")
		}
	}
	if st.Having != nil {
		lines = append(lines, "HAVING "+ExprString(st.Having))
	}
	if len(st.OrderBy) > 0 {
		keys := make([]string, len(st.OrderBy))
		for i, k := range st.OrderBy {
			keys[i] = ExprString(k.Expr)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		lines = append(lines, "SORT BY "+strings.Join(keys, ", "))
	}
	if st.Distinct {
		lines = append(lines, "DISTINCT")
	}
	if st.Limit != nil {
		lines = append(lines, fmt.Sprintf("LIMIT %d", *st.Limit))
	}

	res := &Result{Cols: []string{"plan"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []Value{S(l)})
	}
	return res, nil
}

// ExprString renders an expression roughly as SQL (used by EXPLAIN and
// error messages).
func ExprString(e Expr) string {
	switch n := e.(type) {
	case nil:
		return "<nil>"
	case Lit:
		return n.V.String()
	case Param:
		return "?"
	case Col:
		if n.Qual != "" {
			return n.Qual + "." + n.Name
		}
		return n.Name
	case Unary:
		if n.Op == "NOT" {
			return "NOT " + ExprString(n.X)
		}
		return n.Op + ExprString(n.X)
	case Binary:
		return "(" + ExprString(n.L) + " " + n.Op + " " + ExprString(n.R) + ")"
	case IsNull:
		if n.Not {
			return ExprString(n.X) + " IS NOT NULL"
		}
		return ExprString(n.X) + " IS NULL"
	case InList:
		items := make([]string, len(n.List))
		for i, x := range n.List {
			items[i] = ExprString(x)
		}
		op := " IN ("
		if n.Not {
			op = " NOT IN ("
		}
		return ExprString(n.X) + op + strings.Join(items, ", ") + ")"
	case Call:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = ExprString(a)
		}
		return n.Name + "(" + strings.Join(args, ", ") + ")"
	case AggExpr:
		if n.Star {
			return n.Fn + "(*)"
		}
		return n.Fn + "(" + ExprString(n.X) + ")"
	}
	return fmt.Sprintf("<%T>", e)
}
