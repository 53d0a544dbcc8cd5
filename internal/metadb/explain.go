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
				if by == "PRIMARY KEY" {
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
		lines = append(lines, "GROUP BY "+exprList(st.GroupBy))
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
	if len(st.OrderBy) > 0 {
		lines = append(lines, "SORT BY "+exprList(st.OrderBy))
	}

	res := &Result{Cols: []string{"plan"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []Value{S(l)})
	}
	return res, nil
}

func exprList(list []Expr) string {
	keys := make([]string, len(list))
	for i, e := range list {
		keys[i] = ExprString(e)
	}
	return strings.Join(keys, ", ")
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
	case Binary:
		return "(" + ExprString(n.L) + " " + n.Op + " " + ExprString(n.R) + ")"
	case AggExpr:
		if n.X == nil {
			return n.Fn + "(*)"
		}
		return n.Fn + "(" + ExprString(n.X) + ")"
	}
	return fmt.Sprintf("<%T>", e)
}
