package metadb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// planLines runs an EXPLAIN and returns its plan as one string.
func planLines(t *testing.T, s *Session, sql string, args ...Value) string {
	t.Helper()
	var lines []string
	for _, r := range mustExec(t, s, sql, args...).Rows {
		lines = append(lines, r[0].Str)
	}
	return strings.Join(lines, "; ")
}

func TestPlaceholders(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE f (name TEXT PRIMARY KEY, owner TEXT, size INT)`)
	mustExec(t, s, `CREATE TABLE d (server TEXT, name TEXT, bricks INT)`)
	mustExec(t, s, `CREATE INDEX d_name ON d (name)`)
	ins := `INSERT INTO f VALUES (?, ?, ?)`
	mustExec(t, s, ins, S("/a"), S("o'brien"), I(-7))
	mustExec(t, s, ins, S("/b"), Null(), I(2))
	mustExec(t, s, `INSERT INTO d VALUES (?, ?, ?), (?, ?, ?)`, S("s0"), S("/a"), I(3), S("s1"), S("/a"), I(4))

	res := mustExec(t, s, `SELECT owner, size FROM f WHERE name = ?`, S("/a"))
	if want := [][]Value{{S("o'brien"), I(-7)}}; !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	if res := mustExec(t, s, `SELECT name FROM f WHERE owner = ?`, Null()); len(res.Rows) != 0 {
		t.Fatalf("owner = NULL matched %v", res.Rows)
	}
	// A mistyped probe matches nothing, exactly like a mistyped literal.
	if res := mustExec(t, s, `SELECT owner FROM f WHERE name = ?`, I(5)); len(res.Rows) != 0 {
		t.Fatalf("mistyped probe matched %v", res.Rows)
	}

	// A '?' inside a string literal is text, not a placeholder.
	res = mustExec(t, s, `SELECT '?', ? FROM f WHERE name = '/a'`, I(9))
	if want := [][]Value{{S("?"), I(9)}}; !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}

	// Too few or too many arguments never reach the executor.
	for _, args := range [][]Value{nil, {S("/a"), S("/b")}} {
		_, err := s.Exec(`SELECT owner FROM f WHERE name = ?`, args...)
		if err == nil || !strings.Contains(err.Error(), "1 placeholder(s)") {
			t.Fatalf("%d args: err = %v", len(args), err)
		}
	}
	if _, err := s.Exec(`SELECT owner FROM f`, I(1)); err == nil {
		t.Fatal("argument without placeholder accepted")
	}
	st, err := Parse(`SELECT owner FROM f WHERE name = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecStmt(st); err == nil || !strings.Contains(err.Error(), "placeholder 1 has no argument") {
		t.Fatalf("unbound placeholder: err = %v", err)
	}

	// A bound placeholder probes an index wherever a literal would, and
	// EXPLAIN says so.
	for sql, want := range map[string]string{
		`EXPLAIN SELECT owner FROM f WHERE name = ?`:     "POINT LOOKUP f BY PRIMARY KEY (name)",
		`EXPLAIN SELECT owner FROM f x WHERE ? = x.name`: "POINT LOOKUP f BY PRIMARY KEY (name)",
		`EXPLAIN SELECT server FROM d WHERE name = ?`:    "INDEX LOOKUP d BY d_name (name)",
		`EXPLAIN SELECT server FROM d WHERE bricks = ?`:  "SCAN d",
	} {
		if p := planLines(t, s, sql, S("/a")); !strings.Contains(p, want) || !strings.Contains(p, "?") {
			t.Errorf("%s\n  plan %q, want %q", sql, p, want)
		}
	}

	// UPDATE and DELETE take the same path.
	if res := mustExec(t, s, `UPDATE f SET size = size + ? WHERE name = ?`, I(10), S("/a")); res.RowsAffected != 1 {
		t.Fatalf("update affected %d", res.RowsAffected)
	}
	if v := cell(t, s, `SELECT size FROM f WHERE name = '/a'`); v.Int != 3 {
		t.Fatalf("size = %v", v)
	}
	if res := mustExec(t, s, `DELETE FROM d WHERE name = ?`, S("/a")); res.RowsAffected != 2 {
		t.Fatalf("delete affected %d", res.RowsAffected)
	}
	if res := mustExec(t, s, `DELETE FROM f WHERE size = ?`, I(100)); res.RowsAffected != 0 {
		t.Fatalf("scan delete affected %d", res.RowsAffected)
	}
}

func TestInsertOrIgnore(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, tag TEXT, v INT NOT NULL)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'a', 10)`)
	res := mustExec(t, s, `INSERT OR IGNORE INTO t VALUES (1, 'b', 11), (3, 'c', 13), (3, 'd', 14)`)
	if res.RowsAffected != 1 {
		t.Fatalf("affected %d, want 1 (only id 3 / tag c is new)", res.RowsAffected)
	}
	got := mustExec(t, s, `SELECT id, tag, v FROM t ORDER BY id`).Rows
	if want := [][]Value{{I(1), S("a"), I(10)}, {I(3), S("c"), I(13)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	// Only collisions are ignored; other violations still fail.
	if _, err := s.Exec(`INSERT OR IGNORE INTO t VALUES (4, 'e', NULL)`); err == nil {
		t.Fatal("NOT NULL violation ignored")
	}
	if _, err := s.Exec(`INSERT OR REPLACE INTO t VALUES (4, 'e', 1)`); err == nil {
		t.Fatal("INSERT OR REPLACE parsed")
	}
}

func TestPlanCache(t *testing.T) {
	db := Memory()
	defer db.Close()
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	size := func() int {
		db.plans.mu.Lock()
		defer db.plans.mu.Unlock()
		return len(db.plans.cur) + len(db.plans.old)
	}
	hot := `SELECT v FROM t WHERE id = ?`
	for i := 0; i <= 4*planCacheSize; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i))
		if i%(planCacheSize/4) == 0 {
			mustExec(t, s, hot, I(int64(i))) // once per generation keeps it
		}
		if n := size(); n > planCacheSize {
			t.Fatalf("after %d distinct texts the cache holds %d plans, bound %d", i+2, n, planCacheSize)
		}
	}
	db.plans.mu.Lock()
	_, inCur := db.plans.cur[hot]
	_, inOld := db.plans.old[hot]
	db.plans.mu.Unlock()
	if !inCur && !inOld {
		t.Fatal("a statement used every generation was evicted")
	}
	if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != 4*planCacheSize+1 {
		t.Fatalf("rows = %v", v)
	}
}

// A cached statement resolves tables, columns and indexes when it runs,
// so it follows every schema change made after it was parsed.
func TestPlanCacheSeesDDL(t *testing.T) {
	s := newTestDB(t)
	sel, explain := `SELECT v FROM t WHERE k = ?`, `EXPLAIN SELECT v FROM t WHERE k = ?`
	// Cached while a transaction that is then rolled back had the table
	// under another schema.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `CREATE TABLE t (k TEXT PRIMARY KEY, v TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES ('1', 'ten')`)
	if v := mustExec(t, s, sel, S("1")).Rows; len(v) != 1 || v[0][0].Str != "ten" {
		t.Fatalf("in the transaction rows = %v", v)
	}
	if p := planLines(t, s, explain, S("1")); !strings.Contains(p, "POINT LOOKUP t BY PRIMARY KEY") {
		t.Fatalf("in the transaction plan = %s", p)
	}
	mustExec(t, s, `ROLLBACK`)
	if _, err := s.Exec(sel, I(1)); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("after ROLLBACK: err = %v", err)
	}
	mustExec(t, s, `CREATE TABLE t (k INT, v INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10)`)
	if v := mustExec(t, s, sel, I(1)).Rows; len(v) != 1 || v[0][0].Int != 10 {
		t.Fatalf("rows = %v", v)
	}
	if p := planLines(t, s, explain, I(1)); !strings.Contains(p, "SCAN t") {
		t.Fatalf("plan = %s", p)
	}
	mustExec(t, s, `CREATE INDEX t_k ON t (k)`)
	if p := planLines(t, s, explain, I(1)); !strings.Contains(p, "INDEX LOOKUP t BY t_k") {
		t.Fatalf("after CREATE INDEX plan = %s", p)
	}
}

// Sessions share the plan cache: readers, writers and a churn of
// one-off texts use it at once (meaningful under -race).
func TestPlanCacheConcurrent(t *testing.T) {
	db := Memory()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.Session()
			for i := 0; i < 300; i++ {
				id := I(int64(g*1000 + i))
				if _, err := s.Exec(`INSERT INTO t VALUES (?, ?)`, id, I(int64(i))); err != nil {
					t.Error(err)
					return
				}
				res, err := s.Exec(`SELECT v FROM t WHERE id = ?`, id)
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != int64(i) {
					t.Errorf("lookup %v: %v %v", id, res, err)
					return
				}
				if _, err := s.Exec(fmt.Sprintf(`SELECT %d FROM t WHERE id = -1`, g*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBatch(t *testing.T) {
	s := newTestDB(t)
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	ins := `INSERT INTO t VALUES (?, ?)`

	// All succeed: one result each, in order.
	res, err := s.Batch([]Stmt{
		{SQL: ins, Args: []Value{I(1), I(10)}},
		{SQL: `UPDATE t SET v = v + 1 WHERE id = ?`, Args: []Value{I(1)}},
		{SQL: `SELECT v FROM t WHERE id = ?`, Args: []Value{I(1)}},
	})
	if err != nil || len(res) != 3 || res[0].RowsAffected != 1 || res[2].Rows[0][0].Int != 11 {
		t.Fatalf("res = %v, err = %v", res, err)
	}

	// The batch stops at the first failure: the results so far come
	// back, their count is the failing index, and later statements never
	// run — whether the failure is in execution, in the argument count
	// or in the syntax.
	for name, bad := range map[string]Stmt{
		"duplicate key": {SQL: ins, Args: []Value{I(1), I(0)}},
		"arg count":     {SQL: ins, Args: []Value{I(7)}},
		"syntax":        {SQL: `INSERT INTO`},
	} {
		res, err = s.Batch([]Stmt{
			{SQL: ins, Args: []Value{I(2), I(20)}},
			{SQL: `SELECT COUNT(*) FROM t`},
			bad,
			{SQL: ins, Args: []Value{I(3), I(30)}},
		})
		if err == nil || len(res) != 2 || res[1].Rows[0][0].Int != 2 {
			t.Fatalf("%s: res = %v, err = %v", name, res, err)
		}
		if v := cell(t, s, `SELECT COUNT(*) FROM t WHERE id = 3`); v.Int != 0 {
			t.Fatalf("%s: the statement after the failure ran", name)
		}
		mustExec(t, s, `DELETE FROM t WHERE id = 2`)
	}

	// A failure inside an explicit transaction leaves it open: the
	// caller decides, and ROLLBACK undoes the statements that ran.
	res, err = s.Batch([]Stmt{
		{SQL: `BEGIN`},
		{SQL: ins, Args: []Value{I(4), I(40)}},
		{SQL: ins, Args: []Value{I(4), I(41)}},
		{SQL: `COMMIT`},
	})
	if err == nil || len(res) != 2 || !s.InTx() {
		t.Fatalf("res = %v, err = %v, inTx = %v", res, err, s.InTx())
	}
	mustExec(t, s, `ROLLBACK`)
	if v := cell(t, s, `SELECT COUNT(*) FROM t WHERE id = 4`); v.Int != 0 {
		t.Fatal("rolled-back insert is visible")
	}

	// DB.Batch is a session of its own: an unfinished transaction ends
	// with it instead of holding the write lock.
	if _, err := s.db.Batch([]Stmt{{SQL: `BEGIN`}, {SQL: ins, Args: []Value{I(5), I(50)}}}); err != nil {
		t.Fatal(err)
	}
	if v := cell(t, s, `SELECT COUNT(*) FROM t WHERE id = 5`); v.Int != 0 {
		t.Fatal("DB.Batch left its transaction's insert behind")
	}
}

// A batch of SELECTs outside a transaction reads one committed state:
// a writer that keeps two tables equal is never seen half-way.
func TestBatchReadsOneSnapshot(t *testing.T) {
	db := Memory()
	defer db.Close()
	w := db.Session()
	mustExec(t, w, `CREATE TABLE a (v INT)`)
	mustExec(t, w, `CREATE TABLE b (v INT)`)
	mustExec(t, w, `INSERT INTO a VALUES (0)`)
	mustExec(t, w, `INSERT INTO b VALUES (0)`)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Two autocommitted writes: between them the tables differ.
			if _, err := w.Batch([]Stmt{
				{SQL: `UPDATE a SET v = ?`, Args: []Value{I(i)}},
				{SQL: `UPDATE b SET v = ?`, Args: []Value{I(i)}},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	r := db.Session()
	read := []Stmt{{SQL: `SELECT v FROM a`}, {SQL: `SELECT v FROM b`}}
	for i := 0; i < 2000; i++ {
		res, err := r.Batch(read)
		if err != nil {
			t.Fatal(err)
		}
		if av, bv := res[0].Rows[0][0].Int, res[1].Rows[0][0].Int; bv > av || av > bv+1 {
			t.Fatalf("a = %d, b = %d: not a state the writer produced", av, bv)
		}
	}
}
