package meta

import (
	"reflect"
	"strings"
	"testing"

	"dpfs/internal/metadb"
)

// refusedStatements holds one statement per construct metadb had and the
// catalog never used, with the token Parse must name when it refuses
// it.
var refusedStatements = []struct{ sql, token string }{
	{`SELECT filename FROM dpfs_file_attr WHERE filename LIKE '/d/%'`, `"LIKE"`},
	{`SELECT filename FROM dpfs_file_attr WHERE size IN (1, 2)`, `"IN"`},
	{`SELECT filename FROM dpfs_file_attr WHERE size NOT IN (1, 2)`, `"NOT"`},
	{`SELECT filename FROM dpfs_file_attr WHERE owner IS NULL`, `"IS"`},
	{`SELECT filename FROM dpfs_file_attr WHERE owner IS NOT NULL`, `"IS"`},
	{`SELECT filename FROM dpfs_file_attr WHERE size = 1 OR size = 2`, `"OR"`},
	{`SELECT filename FROM dpfs_file_attr WHERE NOT size = 1`, `"NOT"`},
	{`SELECT DISTINCT owner FROM dpfs_file_attr`, `"owner"`}, // DISTINCT reads as a column
	{`SELECT server, COUNT(*) FROM dpfs_file_distribution GROUP BY server HAVING COUNT(*) = 1`, `"HAVING"`},
	{`SELECT filename FROM dpfs_file_attr LIMIT 1`, `"1"`}, // LIMIT reads as a table alias
	{`SELECT filename FROM dpfs_file_attr ORDER BY filename DESC`, `"DESC"`},
	{`SELECT filename AS f FROM dpfs_file_attr`, `"AS"`},
	{`DROP TABLE dpfs_file_attr`, `"DROP"`},
	{`DROP INDEX dist_by_file ON dpfs_file_distribution`, `"DROP"`},
	{`CREATE TABLE t (a INT UNIQUE)`, `"UNIQUE"`},
	{`CREATE TABLE t (a REAL)`, `"REAL"`},
	{`CREATE TABLE t (a VARCHAR(64))`, `"VARCHAR"`},
	{`SELECT LENGTH(owner) FROM dpfs_file_attr`, `"("`},
	{`SELECT UPPER(owner) FROM dpfs_file_attr`, `"("`},
	{`SELECT LOWER(owner) FROM dpfs_file_attr`, `"("`},
	{`SELECT ABS(size) FROM dpfs_file_attr`, `"("`},
	{`SELECT COALESCE(owner, '') FROM dpfs_file_attr`, `"("`},
	{`SELECT AVG(size) FROM dpfs_file_attr`, `"("`},
	{`SELECT MIN(size) FROM dpfs_file_attr`, `"("`},
	{`SELECT MAX(size) FROM dpfs_file_attr`, `"("`},
	{`SELECT COUNT(size) FROM dpfs_file_attr`, `"size"`},
	{`SELECT owner || 'x' FROM dpfs_file_attr`, `'|'`},
	{`SELECT size / 2 FROM dpfs_file_attr`, `'/'`},
	{`SELECT size % 2 FROM dpfs_file_attr`, `'%'`},
	{`SELECT size - 2 FROM dpfs_file_attr`, `"-"`},
	{`SELECT -size FROM dpfs_file_attr`, `"size"`},
	{`SELECT filename FROM dpfs_file_attr WHERE size < 2`, `'<'`},
	{`SELECT filename FROM dpfs_file_attr WHERE size > 2`, `'>'`},
	{`SELECT filename FROM dpfs_file_attr WHERE size != 2`, `'!'`},
	{`SELECT filename FROM dpfs_file_attr WHERE size = 2.5`, `"."`},
	{`SELECT "filename" FROM dpfs_file_attr`, `'"'`},
	{`SELECT filename FROM dpfs_file_attr;`, `';'`},
	{`BEGIN TRANSACTION`, `"TRANSACTION"`},
}

// benchmarkStatements are the three texts benchmark/adapter.go sends on
// its own, each paired with the catalog statement that must return the
// same rows.
var benchmarkStatements = []struct {
	sql, same string
	args      []metadb.Value
}{
	{`SELECT owner, permission, size, filelevel, elem_size, dims, brick_bytes, tile, pattern, grid, placement, replicas FROM dpfs_file_attr WHERE filename = '/d/f'`,
		sqlReadAttr, []metadb.Value{str("/d/f")}},
	{`SELECT d.server, SUM(d.brick_count * a.slot_bytes) FROM dpfs_file_distribution d JOIN dpfs_file_attr a ON d.filename = a.filename GROUP BY d.server`,
		sqlUsedBytes, nil},
	{`SELECT filename FROM dpfs_file_attr WHERE filename = '/no/such/file'`,
		`SELECT filename FROM dpfs_file_attr WHERE filename = ?`, []metadb.Value{str("/no/such/file")}},
}

// TestDialectIsTheCatalogs pins both edges of metadb's SQL: every
// construct outside the catalog's statements is a parse error that names
// the offending token — over the network too, where it costs the
// connection nothing — and the benchmark's own texts still run.
func TestDialectIsTheCatalogs(t *testing.T) {
	for _, st := range refusedStatements {
		_, err := metadb.Parse(st.sql)
		if err == nil {
			t.Errorf("Parse(%q) accepted", st.sql)
		} else if !strings.Contains(err.Error(), st.token) {
			t.Errorf("Parse(%q): %v, want the error to name %s", st.sql, err, st.token)
		}
	}

	c := newRemoteCatalog(t)
	refused := refusedStatements[0]
	res, err := c.db.Batch([]metadb.Stmt{q(sqlListFiles), q(refused.sql), q(sqlListFiles)})
	if err == nil || !strings.Contains(err.Error(), refused.token) || len(res) != 1 {
		t.Fatalf("Batch with %q: %d results, err %v", refused.sql, len(res), err)
	}
	if err := c.Mkdir("/after"); err != nil {
		t.Fatalf("the connection after a refused statement: %v", err)
	}

	db := statementFixture(t)
	for _, st := range benchmarkStatements {
		got, err := db.Exec(st.sql)
		if err != nil {
			t.Errorf("Exec(%q): %v", st.sql, err)
			continue
		}
		if want, _ := db.Exec(st.same, st.args...); !reflect.DeepEqual(got, want) {
			t.Errorf("Exec(%q) = %v, want %v", st.sql, got, want)
		}
	}
}

// exprs lists the expressions of a parsed statement.
func exprs(st metadb.Statement) []metadb.Expr {
	var out []metadb.Expr
	switch st := st.(type) {
	case metadb.Explain:
		return exprs(st.Stmt)
	case metadb.Select:
		for _, it := range st.Items {
			if !it.Star {
				out = append(out, it.Expr)
			}
		}
		for _, j := range st.Joins {
			out = append(out, j.On)
		}
		out = append(out, st.GroupBy...)
		out = append(out, st.OrderBy...)
		out = append(out, st.Where)
	case metadb.Insert:
		for _, row := range st.Rows {
			out = append(out, row...)
		}
	case metadb.Update:
		out = append(append(out, st.Exprs...), st.Where)
	case metadb.Delete:
		out = append(out, st.Where)
	}
	return out
}

// FuzzParse feeds the parser what the network can: it never panics, and
// whatever it accepts is made of expressions whose EXPLAIN rendering
// (ExprString) parses back to the same rendering.
func FuzzParse(f *testing.F) {
	for _, st := range catalogStatements {
		f.Add(st.sql)
	}
	for _, st := range benchmarkStatements {
		f.Add(st.sql)
	}
	for _, st := range refusedStatements {
		f.Add(st.sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := metadb.Parse(sql)
		if err != nil {
			return
		}
		for _, e := range exprs(st) {
			if e == nil {
				continue // no WHERE
			}
			text := metadb.ExprString(e)
			again, err := metadb.Parse("SELECT " + text + " FROM t")
			if err != nil {
				t.Fatalf("%q: expression %s does not parse back: %v", sql, text, err)
			}
			if got := metadb.ExprString(again.(metadb.Select).Items[0].Expr); got != text {
				t.Fatalf("%q: expression %s parses back as %s", sql, text, got)
			}
		}
	})
}
