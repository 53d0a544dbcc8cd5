package metadb

import (
	"fmt"
	"strings"
	"testing"
)

// catalogFixture loads a miniature of the DPFS schema: servers and
// file-distribution rows, the tables joins naturally apply to.
func catalogFixture(t *testing.T) *Session {
	t.Helper()
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE srv (name TEXT PRIMARY KEY, class TEXT, perf INT)`)
	mustExec(t, s, `CREATE TABLE dist (server TEXT, filename TEXT, bricks INT)`)
	mustExec(t, s, `INSERT INTO srv VALUES
		('a', 'class1', 1), ('b', 'class1', 1), ('c', 'class3', 3), ('d', 'class3', 3)`)
	mustExec(t, s, `INSERT INTO dist VALUES
		('a', '/f1', 12), ('b', '/f1', 12), ('c', '/f1', 4), ('d', '/f1', 4),
		('a', '/f2', 8), ('c', '/f2', 8)`)
	return s
}

func TestInnerJoin(t *testing.T) {
	s := catalogFixture(t)
	res := mustExec(t, s, `SELECT d.filename, s.class, d.bricks
		FROM dist d JOIN srv s ON d.server = s.name
		WHERE d.filename = '/f1' ORDER BY d.bricks, s.class`)
	if len(res.Rows) != 4 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	if res.Rows[0][1].Str != "class3" || res.Rows[0][2].Int != 4 {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[3][1].Str != "class1" || res.Rows[3][2].Int != 12 {
		t.Fatalf("row 3 = %v", res.Rows[3])
	}

	// Table-name qualifiers.
	res = mustExec(t, s, `SELECT COUNT(*) FROM dist JOIN srv ON dist.server = srv.name`)
	if res.Rows[0][0].Int != 6 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestJoinStarExpansion(t *testing.T) {
	s := catalogFixture(t)
	res := mustExec(t, s, `SELECT * FROM dist d JOIN srv s ON d.server = s.name`)
	// dist has 3 columns + srv has 3.
	if len(res.Cols) != 6 {
		t.Fatalf("star cols = %v", res.Cols)
	}
}

func TestThreeWayJoin(t *testing.T) {
	s := catalogFixture(t)
	mustExec(t, s, `CREATE TABLE cls (class TEXT PRIMARY KEY, bw INT)`)
	mustExec(t, s, `INSERT INTO cls VALUES ('class1', 100), ('class3', 33)`)
	res := mustExec(t, s, `SELECT d.server, c.bw
		FROM dist d
		JOIN srv s ON d.server = s.name
		JOIN cls c ON s.class = c.class
		WHERE d.filename = '/f2' ORDER BY d.server`)
	if len(res.Rows) != 2 || res.Rows[0][1].Int != 100 || res.Rows[1][1].Int != 33 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinErrors(t *testing.T) {
	s := catalogFixture(t)
	bad := []string{
		`SELECT * FROM dist JOIN nosuch ON 1 = 1`,
		`SELECT * FROM dist d JOIN srv d ON 1 = 1`, // duplicate alias
		`SELECT nosuch FROM dist d JOIN srv s ON d.server = s.name`,
		`SELECT x.name FROM dist d JOIN srv s ON d.server = s.name`, // unknown qualifier
		`SELECT * FROM dist JOIN srv`,                               // missing ON
	}
	for _, sql := range bad {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	// Ambiguous unqualified column across joined tables.
	mustExec(t, s, `CREATE TABLE other (server TEXT)`)
	mustExec(t, s, `INSERT INTO other VALUES ('z')`)
	if _, err := s.Exec(`SELECT server FROM dist JOIN other ON 1 = 1`); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestGroupBy(t *testing.T) {
	s := catalogFixture(t)
	// Brick count per server across all files: the DPFS load report.
	res := mustExec(t, s, `SELECT server, SUM(bricks), COUNT(*) FROM dist
		GROUP BY server ORDER BY server`)
	want := []struct {
		srv    string
		bricks int64
		files  int64
	}{{"a", 20, 2}, {"b", 12, 1}, {"c", 12, 2}, {"d", 4, 1}}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %v", res.Rows)
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Str != w.srv || r[1].Int != w.bricks || r[2].Int != w.files {
			t.Fatalf("group %d = %v, want %+v", i, r, w)
		}
	}
}

func TestGroupByWithJoinAndHaving(t *testing.T) {
	s := catalogFixture(t)
	// Total bricks per storage class: the greedy algorithm's 3:1 split
	// made visible via pure SQL.
	res := mustExec(t, s, `SELECT s.class, SUM(d.bricks)
		FROM dist d JOIN srv s ON d.server = s.name
		WHERE d.filename = '/f1'
		GROUP BY s.class
		ORDER BY 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "class3" || res.Rows[0][1].Int != 8 || res.Rows[1][0].Str != "class1" || res.Rows[1][1].Int != 24 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregateExpressions(t *testing.T) {
	s := catalogFixture(t)
	res := mustExec(t, s, `SELECT SUM(bricks) * 2 + 1 FROM dist WHERE filename = '/f2'`)
	if res.Rows[0][0].Int != 33 {
		t.Fatalf("expr = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, `SELECT SUM(bricks * 2) + COUNT(*) FROM dist WHERE filename = '/f1'`)
	if res.Rows[0][0].Int != 68 {
		t.Fatalf("expr = %v", res.Rows[0][0])
	}
	// Aggregates are rejected in WHERE.
	if _, err := s.Exec(`SELECT server FROM dist WHERE COUNT(*) = 1`); err == nil {
		t.Error("aggregate in WHERE should fail")
	}
	// ... and in UPDATE/INSERT values.
	if _, err := s.Exec(`UPDATE dist SET bricks = COUNT(*)`); err == nil {
		t.Error("aggregate in UPDATE should fail")
	}
}

func TestOrderByPositionAndAlias(t *testing.T) {
	s := catalogFixture(t)
	res := mustExec(t, s, `SELECT server, SUM(bricks) FROM dist GROUP BY server ORDER BY 2, 1`)
	if len(res.Rows) != 4 || res.Rows[0][0].Str != "d" || res.Rows[1][0].Str != "b" || res.Rows[3][0].Str != "a" {
		t.Fatalf("order by position: %v", res.Rows)
	}
	for _, sql := range []string{`SELECT server FROM dist ORDER BY 9`, `SELECT server FROM dist ORDER BY 0`} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q): out-of-range position should fail", sql)
		}
	}
}

func TestGroupByEmptyTable(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, b INT)`)
	res := mustExec(t, s, `SELECT a, COUNT(*) FROM t GROUP BY a`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Without GROUP BY, an empty aggregate still yields a row.
	res = mustExec(t, s, `SELECT COUNT(*) FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSecondaryIndex(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE dist (server TEXT, filename TEXT, bricks INT)`)
	for f := 0; f < 50; f++ {
		for srvID := 0; srvID < 4; srvID++ {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO dist VALUES ('s%d', '/file%d', %d)`, srvID, f, f+srvID))
		}
	}
	mustExec(t, s, `CREATE INDEX dist_file ON dist (filename)`)

	res := mustExec(t, s, `SELECT server, bricks FROM dist WHERE filename = '/file7' ORDER BY server`)
	if len(res.Rows) != 4 || res.Rows[0][0].Str != "s0" || res.Rows[0][1].Int != 7 {
		t.Fatalf("indexed lookup = %v", res.Rows)
	}
	// Index stays correct across update/delete.
	mustExec(t, s, `UPDATE dist SET filename = '/renamed' WHERE filename = '/file7'`)
	if res := mustExec(t, s, `SELECT COUNT(*) FROM dist WHERE filename = '/file7'`); res.Rows[0][0].Int != 0 {
		t.Fatal("index saw stale rows after update")
	}
	if res := mustExec(t, s, `SELECT COUNT(*) FROM dist WHERE filename = '/renamed'`); res.Rows[0][0].Int != 4 {
		t.Fatal("index missed moved rows")
	}
	mustExec(t, s, `DELETE FROM dist WHERE filename = '/renamed'`)
	if res := mustExec(t, s, `SELECT COUNT(*) FROM dist WHERE filename = '/renamed'`); res.Rows[0][0].Int != 0 {
		t.Fatal("index saw deleted rows")
	}

	// Dup / IF NOT EXISTS / missing column.
	if _, err := s.Exec(`CREATE INDEX dist_file ON dist (filename)`); err == nil {
		t.Error("duplicate index should fail")
	}
	mustExec(t, s, `CREATE INDEX IF NOT EXISTS dist_file ON dist (filename)`)
	if _, err := s.Exec(`CREATE INDEX bad ON dist (nosuch)`); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := s.Exec(`CREATE INDEX bad ON nosuch (x)`); err == nil {
		t.Error("index on missing table should fail")
	}
}

func TestIndexTransactionality(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (x INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (2)`)

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `CREATE INDEX ix ON t (x)`)
	mustExec(t, s, `ROLLBACK`)
	// Rolled back: creating again must work.
	mustExec(t, s, `CREATE INDEX ix ON t (x)`)

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	mustExec(t, s, `UPDATE t SET x = 2 WHERE x = 1`)
	mustExec(t, s, `ROLLBACK`)
	// The index follows the rows back.
	if res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE x = 2`); res.Rows[0][0].Int != 2 {
		t.Fatal("index wrong after rollback")
	}
}

func TestIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (x INT, y TEXT)`)
	mustExec(t, s, `CREATE INDEX t_x ON t (x)`)
	mustExec(t, s, `INSERT INTO t VALUES (5, 'five'), (5, 'cinq'), (6, 'six')`)
	db.Close() // snapshot path

	db2 := openDir(t, dir)
	s2 := db2.Session()
	if res := mustExec(t, s2, `SELECT COUNT(*) FROM t WHERE x = 5`); res.Rows[0][0].Int != 2 {
		t.Fatal("index lost after snapshot recovery")
	}
	// Index survives WAL-only recovery too.
	mustExec(t, s2, `CREATE INDEX t_x2 ON t (y)`)
	mustExec(t, s2, `INSERT INTO t VALUES (7, 'seven')`)
	// Crash without Close.
	db3 := openDir(t, dir)
	defer db3.Close()
	s3 := db3.Session()
	if res := mustExec(t, s3, `SELECT x FROM t WHERE y = 'seven'`); len(res.Rows) != 1 || res.Rows[0][0].Int != 7 {
		t.Fatalf("WAL-recovered index = %v", res.Rows)
	}
	db2.Close()
}

func TestTableAliasSingle(t *testing.T) {
	s := catalogFixture(t)
	res := mustExec(t, s, `SELECT x.name FROM srv x WHERE x.perf = 3 ORDER BY x.name`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "c" {
		t.Fatalf("alias rows = %v", res.Rows)
	}
}

func TestCrossJoinViaOnTrue(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE a (x INT)`)
	mustExec(t, s, `CREATE TABLE b (y INT)`)
	mustExec(t, s, `INSERT INTO a VALUES (1), (2)`)
	mustExec(t, s, `INSERT INTO b VALUES (10), (20), (30)`)
	res := mustExec(t, s, `SELECT x, y FROM a JOIN b ON 1 = 1 ORDER BY x, y`)
	if len(res.Rows) != 6 {
		t.Fatalf("cross join rows = %d", len(res.Rows))
	}
	if res.Rows[5][0].Int != 2 || res.Rows[5][1].Int != 30 {
		t.Fatalf("last row = %v", res.Rows[5])
	}
}

func TestExplain(t *testing.T) {
	s := catalogFixture(t)
	mustExec(t, s, `CREATE INDEX dist_file ON dist (filename)`)

	plan := func(sql string) string {
		res := mustExec(t, s, sql)
		var lines []string
		for _, r := range res.Rows {
			lines = append(lines, r[0].Str)
		}
		return fmt.Sprint(lines)
	}

	p := plan(`EXPLAIN SELECT * FROM dist WHERE filename = '/f1'`)
	if !contains(p, "INDEX LOOKUP dist BY dist_file") {
		t.Fatalf("plan = %s", p)
	}
	p = plan(`EXPLAIN SELECT * FROM srv WHERE name = 'a'`)
	if !contains(p, "POINT LOOKUP srv BY PRIMARY KEY") {
		t.Fatalf("plan = %s", p)
	}
	p = plan(`EXPLAIN SELECT s.class, SUM(d.bricks) FROM dist d JOIN srv s ON d.server = s.name
		WHERE d.bricks = 2 GROUP BY s.class ORDER BY s.class, 2`)
	for _, want := range []string{"SCAN dist", "NESTED LOOP JOIN srv", "FILTER (d.bricks = 2)",
		"GROUP BY s.class", "SORT BY s.class, 2"} {
		if !contains(p, want) {
			t.Fatalf("plan missing %q: %s", want, p)
		}
	}
	p = plan(`EXPLAIN SELECT COUNT(*) FROM dist`)
	if !contains(p, "AGGREGATE (single group)") {
		t.Fatalf("plan = %s", p)
	}
	if _, err := s.Exec(`EXPLAIN INSERT INTO dist VALUES ('x', 'y', 1)`); err == nil {
		t.Fatal("EXPLAIN INSERT should fail")
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}
