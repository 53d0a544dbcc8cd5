package metadb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func mustExec(t testing.TB, s *Session, sql string, args ...Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func cell(t *testing.T, s *Session, sql string) Value {
	t.Helper()
	res := mustExec(t, s, sql)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("Exec(%q): want single cell, got %d rows", sql, len(res.Rows))
	}
	return res.Rows[0][0]
}

func newTestDB(t *testing.T) *Session {
	t.Helper()
	db := Memory()
	t.Cleanup(func() { db.Close() })
	return db.Session()
}

func TestCreateInsertSelect(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE servers (name TEXT PRIMARY KEY, capacity INT, performance INT)`)
	mustExec(t, s, `INSERT INTO servers VALUES ('ccn0', 500, 1), ('aruba', 300, 2)`)
	res := mustExec(t, s, `INSERT INTO servers (name, capacity) VALUES ('moorea', 400)`)
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}

	res = mustExec(t, s, `SELECT name, capacity FROM servers ORDER BY capacity`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Str != "aruba" || res.Rows[1][0].Str != "moorea" || res.Rows[2][0].Str != "ccn0" {
		t.Fatalf("order wrong: %v", res.Rows)
	}
	// Unset column is NULL.
	v := cell(t, s, `SELECT performance FROM servers WHERE name = 'moorea'`)
	if !v.IsNull() {
		t.Fatalf("expected NULL performance, got %v", v)
	}
	// SELECT * expansion.
	res = mustExec(t, s, `SELECT * FROM servers`)
	if len(res.Cols) != 3 || res.Cols[0] != "name" {
		t.Fatalf("star cols = %v", res.Cols)
	}
}

func TestWhereAndExpressions(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, x INT, s TEXT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, 'row%d')`, i, i*i, i))
	}
	cases := []struct {
		where string
		want  int
	}{
		{`x = 49`, 1},
		{`x = 50`, 0},
		{`id = 7 AND x = 49`, 1},
		{`id = 7 AND x = 50`, 0},
		{`s = 'row10'`, 1},
		{`(id + 1) * 2 = 6`, 1},
		{`id + 1 * 2 = 6`, 1}, // * binds tighter: id = 4
		{`id * id = x`, 10},
		{`-4 + id = 0`, 1},
		{`1`, 10},
		{`0`, 0},
	}
	for _, c := range cases {
		res := mustExec(t, s, `SELECT id FROM t WHERE `+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, x INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)`)

	if res := mustExec(t, s, `SELECT id FROM t WHERE x + 1 = 11`); len(res.Rows) != 1 {
		t.Errorf("NULL should not match x + 1 = 11: %d rows", len(res.Rows))
	}
	// NULL = NULL is NULL, not true.
	if res := mustExec(t, s, `SELECT id FROM t WHERE x = NULL`); len(res.Rows) != 0 {
		t.Errorf("x = NULL matched %d rows", len(res.Rows))
	}
	// Kleene logic: NULL AND false = false, NULL AND true = NULL.
	res := mustExec(t, s, `SELECT id, x = 1000 AND 1 = 0, x = 1000 AND 1 = 1, 1 = 0 AND x = 1000 FROM t WHERE id = 2`)
	if row := res.Rows[0]; row[1] != B(false) || !row[2].IsNull() || row[3] != B(false) {
		t.Errorf("NULL AND false, NULL AND true, false AND NULL = %v", row[1:])
	}
	// NULLs sort first.
	res = mustExec(t, s, `SELECT id FROM t ORDER BY x`)
	if res.Rows[0][0].Int != 2 {
		t.Errorf("NULL should sort first: %v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, x INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)`)

	mustExec(t, s, `UPDATE t SET x = x * 10 WHERE id = 3`)
	res := mustExec(t, s, `UPDATE t SET x = x * 10 WHERE id = 4`)
	if res.RowsAffected != 1 {
		t.Fatalf("update affected %d", res.RowsAffected)
	}
	if v := cell(t, s, `SELECT x FROM t WHERE id = 4`); v.Int != 40 {
		t.Fatalf("x = %v", v)
	}

	mustExec(t, s, `DELETE FROM t WHERE x = 30`)
	res = mustExec(t, s, `DELETE FROM t WHERE x = 40`)
	if res.RowsAffected != 1 {
		t.Fatalf("delete affected %d", res.RowsAffected)
	}
	if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != 2 {
		t.Fatalf("count = %v", v)
	}
	// Update the primary key itself.
	mustExec(t, s, `UPDATE t SET id = 100 WHERE id = 1`)
	if v := cell(t, s, `SELECT x FROM t WHERE id = 100`); v.Int != 1 {
		t.Fatalf("pk move failed: %v", v)
	}
	// Delete everything.
	mustExec(t, s, `DELETE FROM t`)
	if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != 0 {
		t.Fatalf("count after delete all = %v", v)
	}
}

func TestConstraints(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, email TEXT, name TEXT NOT NULL)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'a@x', 'alice')`)

	if _, err := s.Exec(`INSERT INTO t VALUES (1, 'b@x', 'bob')`); err == nil {
		t.Error("duplicate pk should fail")
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (3, 'c@x', NULL)`); err == nil {
		t.Error("NOT NULL violation should fail")
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (NULL, 'd@x', 'dan')`); err == nil {
		t.Error("NULL pk should fail")
	}
	mustExec(t, s, `INSERT INTO t VALUES (5, NULL, 'eve'), (6, NULL, 'fay')`)
	// Update into a duplicate must fail and leave the row unchanged.
	if _, err := s.Exec(`UPDATE t SET id = 1 WHERE id = 5`); err == nil {
		t.Error("update to duplicate pk should fail")
	}
	if v := cell(t, s, `SELECT name FROM t WHERE id = 5`); v.Str != "eve" {
		t.Errorf("failed update leaked: %v", v)
	}
	// Updating a row to its own value is fine.
	mustExec(t, s, `UPDATE t SET id = 1 WHERE id = 1`)
	// Type mismatch.
	if _, err := s.Exec(`INSERT INTO t VALUES (7, 'g@x', 42)`); err == nil {
		t.Error("int into TEXT column should fail")
	}
}

func TestTypeCoercion(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, n INTEGER, s TEXT)`)
	// A value is stored only in a column of its own type; NULL fits any.
	mustExec(t, s, `INSERT INTO t VALUES (1, 2, 'two'), (2, NULL, NULL)`)
	for _, sql := range []string{
		`INSERT INTO t VALUES (3, 'three', 'three')`,
		`INSERT INTO t VALUES ('4', 4, 'four')`,
		`UPDATE t SET s = 2 WHERE id = 1`,
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (?, ?, ?)`, I(5), Value{Kind: 2}, S("five")); err == nil {
		t.Error("a value of the retired REAL kind should not be storable")
	}
}

func TestAggregates(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, x INT, grp INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 4, 0), (2, NULL, 0), (3, 2, 1), (4, 6, 1)`)

	res := mustExec(t, s, `SELECT COUNT(*), SUM(x) FROM t`)
	if row := res.Rows[0]; row[0] != I(4) || row[1] != I(12) {
		t.Errorf("COUNT(*), SUM(x) = %v, want 4, 12", row)
	}
	if res.Cols[0] != "COUNT" || res.Cols[1] != "SUM" {
		t.Errorf("cols = %v", res.Cols)
	}
	// Aggregates over empty sets.
	res = mustExec(t, s, `SELECT COUNT(*), SUM(x) FROM t WHERE id = 100`)
	if row := res.Rows[0]; row[0].Int != 0 || !row[1].IsNull() {
		t.Errorf("empty aggregates = %v", row)
	}
	// Mixing aggregates and plain columns without GROUP BY evaluates
	// the plain column on the group's first row (SQLite-style).
	res = mustExec(t, s, `SELECT id, COUNT(*) FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 1 || res.Rows[0][1].Int != 4 {
		t.Errorf("mixed select = %v", res.Rows)
	}
	if _, err := s.Exec(`SELECT SUM(id) FROM t WHERE SUM(id) = 1`); err == nil {
		t.Error("an aggregate in WHERE should fail")
	}
}

func TestTransactions(t *testing.T) {
	db := Memory()
	defer db.Close()
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, x INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 1)`)

	// Rollback undoes everything including DDL.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2, 2)`)
	mustExec(t, s, `UPDATE t SET x = 99 WHERE id = 1`)
	mustExec(t, s, `DELETE FROM t WHERE id = 1`)
	mustExec(t, s, `CREATE TABLE other (a INT)`)
	mustExec(t, s, `ROLLBACK`)

	if v := cell(t, s, `SELECT x FROM t WHERE id = 1`); v.Int != 1 {
		t.Fatalf("rollback failed: x = %v", v)
	}
	if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != 1 {
		t.Fatalf("rollback failed: count = %v", v)
	}
	if _, err := s.Exec(`SELECT * FROM other`); err == nil {
		t.Fatal("rolled-back table still exists")
	}

	// Commit keeps changes.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2, 2)`)
	mustExec(t, s, `COMMIT`)
	if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != 2 {
		t.Fatalf("commit lost rows: %v", v)
	}

	// Statement atomicity inside a transaction: a failing multi-row
	// insert leaves no partial rows, and the transaction stays usable.
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`INSERT INTO t VALUES (3, 3), (1, 1)`); err == nil {
		t.Fatal("dup pk in multi-insert should fail")
	}
	mustExec(t, s, `INSERT INTO t VALUES (4, 4)`)
	mustExec(t, s, `COMMIT`)
	if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != 3 {
		t.Fatalf("statement atomicity broken: count = %v", v)
	}
	if res := mustExec(t, s, `SELECT id FROM t WHERE id = 3`); len(res.Rows) != 0 {
		t.Fatal("partial insert leaked row 3")
	}

	// Transaction state errors.
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Error("commit without begin should fail")
	}
	if _, err := s.Exec(`ROLLBACK`); err == nil {
		t.Error("rollback without begin should fail")
	}
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`BEGIN`); err == nil {
		t.Error("nested begin should fail")
	}
	mustExec(t, s, `ROLLBACK`)

	// Read-only transaction commit is a no-op.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `SELECT * FROM t`)
	mustExec(t, s, `COMMIT`)

	// Abort releases the lock so others can proceed.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (50, 50)`)
	s.Abort()
	s2 := db.Session()
	if v := cell(t, s2, `SELECT COUNT(*) FROM t`); v.Int != 3 {
		t.Fatalf("abort did not roll back: %v", v)
	}
}

func TestTransactionIsolationAcrossSessions(t *testing.T) {
	db := Memory()
	defer db.Close()
	s1 := db.Session()
	mustExec(t, s1, `CREATE TABLE t (id INT PRIMARY KEY)`)

	mustExec(t, s1, `BEGIN`)
	mustExec(t, s1, `INSERT INTO t VALUES (1)`)

	// A second session must not observe uncommitted data; it blocks
	// until commit (strict 2PL), so run it in a goroutine.
	got := make(chan int64, 1)
	go func() {
		s2 := db.Session()
		res, err := s2.Exec(`SELECT COUNT(*) FROM t`)
		if err != nil {
			got <- -1
			return
		}
		got <- res.Rows[0][0].Int
	}()
	mustExec(t, s1, `COMMIT`)
	if n := <-got; n != 1 {
		t.Fatalf("reader saw %d rows; wants 1 (after commit)", n)
	}
}

func TestConcurrentWriters(t *testing.T) {
	db := Memory()
	defer db.Close()
	mustExec(t, db.Session(), `CREATE TABLE t (id INT PRIMARY KEY)`)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			for i := 0; i < 25; i++ {
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, w*1000+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v := cell(t, db.Session(), `SELECT COUNT(*) FROM t`); v.Int != 200 {
		t.Fatalf("count = %v, want 200", v)
	}
}

func TestParserErrors(t *testing.T) {
	s := newTestDB(t)
	bad := []string{
		``,
		`SELEC * FROM t`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`CREATE TABLE`,
		`CREATE TABLE t (x BOGUSTYPE)`,
		`CREATE TABLE t (x INT,)`,
		`INSERT INTO t VALUES`,
		`INSERT t VALUES (1)`,
		`UPDATE t x = 1`,
		`DELETE t`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t ORDER x`,
		`SELECT 'unterminated FROM t`,
		"SELECT \x01 FROM t",
		`SELECT * FROM t; SELECT * FROM t`,
		`SELECT * FROM t WHERE x NOT 5`,
		`SELECT COUNT( FROM t`,
	}
	for _, sql := range bad {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'a')`)
	bad := []string{
		`SELECT nosuch FROM t`,
		`SELECT * FROM nosuch`,
		`SELECT id + s FROM t`,
		`SELECT s * s FROM t`,
		`SELECT SUM(s) FROM t`,
		`SELECT id = s FROM t`,
		`INSERT INTO t (nosuch) VALUES (1)`,
		`INSERT INTO t (id) VALUES (1, 2)`,
		`UPDATE t SET nosuch = 1`,
		`UPDATE nosuch SET x = 1`,
		`DELETE FROM nosuch`,
		`INSERT INTO nosuch VALUES (1)`,
	}
	for _, sql := range bad {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if Null().String() != "NULL" || I(5).String() != "5" || I(-5).String() != "-5" {
		t.Error("String renders wrong")
	}
	if S("it's").String() != "'it''s'" {
		t.Errorf("quote escape = %s", S("it's").String())
	}
	if Compare(Null(), I(0)) >= 0 {
		t.Error("NULL should sort before numbers")
	}
	if Compare(I(1), S("a")) >= 0 {
		t.Error("numbers should sort before text")
	}
	if Compare(I(1<<62), I(1<<62-1)) <= 0 {
		t.Error("big int comparison must be exact")
	}
	if !B(true).Truth() || B(false).Truth() || !S("x").Truth() || S("").Truth() || Null().Truth() {
		t.Error("Truth wrong")
	}
	if k := KindText.String(); k != "TEXT" {
		t.Errorf("kind = %s", k)
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("blob should be unknown")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, b INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 2), (1, 1), (2, 9), (0, 5)`)
	res := mustExec(t, s, `SELECT a, b FROM t ORDER BY a, b`)
	want := [][2]int64{{0, 5}, {1, 1}, {1, 2}, {2, 9}}
	for i, w := range want {
		if res.Rows[i][0].Int != w[0] || res.Rows[i][1].Int != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

// TestQuotedIdentAndComments: "--" inside a string literal is text, and
// outside one it starts no comment, which the dialect does not have.
func TestQuotedIdentAndComments(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE select_t (id INT, s TEXT)`)
	mustExec(t, s, `INSERT INTO select_t VALUES (1, '-- it''s text')`)
	if v := cell(t, s, `SELECT s FROM select_t`); v.Str != "-- it's text" {
		t.Fatalf("s = %v", v)
	}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM select_t -- a comment`,
		"-- a comment line\nSELECT COUNT(*) FROM select_t",
	} {
		if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), `"-"`) {
			t.Errorf("Exec(%q): %v, want the error to name \"-\"", sql, err)
		}
	}
}

func TestPKFastPath(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (name TEXT PRIMARY KEY, x INT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES ('k%d', %d)`, i, i))
	}
	// Both orientations of the equality.
	if v := cell(t, s, `SELECT x FROM t WHERE name = 'k42'`); v.Int != 42 {
		t.Fatalf("pk lookup = %v", v)
	}
	if v := cell(t, s, `SELECT x FROM t WHERE 'k7' = name`); v.Int != 7 {
		t.Fatalf("pk lookup = %v", v)
	}
	if res := mustExec(t, s, `SELECT x FROM t WHERE name = 'missing'`); len(res.Rows) != 0 {
		t.Fatal("missing pk matched")
	}
	// Wrongly-typed pk probe matches nothing rather than erroring.
	if res := mustExec(t, s, `SELECT x FROM t WHERE name = 5`); len(res.Rows) != 0 {
		t.Fatal("typed pk probe matched")
	}
}

func TestTableNames(t *testing.T) {
	db := Memory()
	defer db.Close()
	s := db.Session()
	mustExec(t, s, `CREATE TABLE zz (a INT)`)
	mustExec(t, s, `CREATE TABLE aa (a INT)`)
	mustExec(t, s, `CREATE TABLE IF NOT EXISTS aa (other TEXT)`) // exists: left alone
	if _, err := s.Exec(`CREATE TABLE aa (a INT)`); err == nil {
		t.Fatal("creating an existing table should fail")
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "aa" || names[1] != "zz" {
		t.Fatalf("names = %v", names)
	}
}

func TestExecStmtUnknown(t *testing.T) {
	s := newTestDB(t)
	if _, err := s.execStmt(nil, nil); err == nil {
		t.Fatal("nil statement should fail")
	}
}

func TestInsertSelectRoundtripLargeText(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, blob TEXT)`)
	big := strings.Repeat("brick,", 5000)
	mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (1, '%s')`, big))
	if v := cell(t, s, `SELECT blob FROM t WHERE id = 1`); v.Str != big {
		t.Fatal("large text roundtrip mismatch")
	}
}

// TestNoLostUpdate: two transactions that read-modify-write the same
// row must serialize completely; the second may not base its write on
// a stale read (this is the directory-entry update pattern of the
// DPFS catalog).
func TestNoLostUpdate(t *testing.T) {
	db := Memory()
	defer db.Close()
	s0 := db.Session()
	mustExec(t, s0, `CREATE TABLE d (k TEXT PRIMARY KEY, list TEXT)`)
	mustExec(t, s0, `INSERT INTO d VALUES ('/', '')`)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			if _, err := s.Exec(`BEGIN`); err != nil {
				errs <- err
				return
			}
			res, err := s.Exec(`SELECT list FROM d WHERE k = '/'`)
			if err != nil {
				errs <- err
				s.Abort()
				return
			}
			cur := res.Rows[0][0].Str
			next := cur + fmt.Sprintf("f%d,", w)
			if _, err := s.Exec(fmt.Sprintf(`UPDATE d SET list = '%s' WHERE k = '/'`, next)); err != nil {
				errs <- err
				s.Abort()
				return
			}
			if _, err := s.Exec(`COMMIT`); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v := cell(t, s0, `SELECT list FROM d WHERE k = '/'`)
	got := strings.Count(v.Str, ",")
	if got != workers {
		t.Fatalf("list has %d entries (%q), want %d — lost update", got, v.Str, workers)
	}
}
