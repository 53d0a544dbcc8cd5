package metadb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openDir(t testing.TB, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'one'), (2, 'two')`)
	mustExec(t, s, `UPDATE t SET s = 'TWO' WHERE id = 2`)
	mustExec(t, s, `DELETE FROM t WHERE id = 1`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDir(t, dir)
	defer db2.Close()
	s2 := db2.Session()
	res := mustExec(t, s2, `SELECT id, s FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 2 || res.Rows[0][1].Str != "TWO" {
		t.Fatalf("recovered rows = %v", res.Rows)
	}
	// New inserts must not collide with recovered rowids.
	mustExec(t, s2, `INSERT INTO t VALUES (3, 'three')`)
	if v := cell(t, s2, `SELECT COUNT(*) FROM t`); v.Int != 2 {
		t.Fatalf("count = %v", v)
	}
}

// TestRecoveryFromWALOnly kills the database without Close (no
// snapshot): recovery must come purely from WAL replay.
func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	mustExec(t, s, `COMMIT`)
	// A transaction that never commits must not survive.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (3)`)
	// Simulated crash: drop the DB on the floor without Close/commit.

	db2 := openDir(t, dir)
	defer db2.Close()
	if v := cell(t, db2.Session(), `SELECT COUNT(*) FROM t`); v.Int != 2 {
		t.Fatalf("recovered %v rows, want 2 (uncommitted txn must vanish)", v)
	}
}

// TestTornWALTail corrupts the last record; recovery must keep all
// earlier commits and truncate the tail.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	// Crash without Close.
	walPath := filepath.Join(dir, "wal")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop off the last 3 bytes, tearing the final record.
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := openDir(t, dir)
	defer db2.Close()
	v := cell(t, db2.Session(), `SELECT COUNT(*) FROM t`)
	if v.Int != 9 {
		t.Fatalf("recovered %v rows, want 9 (last commit torn)", v)
	}
	// The database remains writable after truncation.
	mustExec(t, db2.Session(), `INSERT INTO t VALUES (100)`)
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')`, i))
	}
	walPath := filepath.Join(dir, "wal")
	st, _ := os.Stat(walPath)
	if st.Size() == 0 {
		t.Fatal("wal unexpectedly empty before checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = os.Stat(walPath)
	if st.Size() != 0 {
		t.Fatalf("wal size after checkpoint = %d", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	db.Close()

	db2 := openDir(t, dir)
	defer db2.Close()
	if v := cell(t, db2.Session(), `SELECT COUNT(*) FROM t`); v.Int != 50 {
		t.Fatalf("count after snapshot recovery = %v", v)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)`)
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'pppppppppppppppppppppppppppp')`, i))
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("auto checkpoint never fired: %v", err)
	}
	db.Close()
	db2 := openDir(t, dir)
	defer db2.Close()
	if v := cell(t, db2.Session(), `SELECT COUNT(*) FROM t`); v.Int != 40 {
		t.Fatalf("count = %v", v)
	}
}

func TestSyncMode(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2 := openDir(t, dir)
	defer db2.Close()
	if v := cell(t, db2.Session(), `SELECT COUNT(*) FROM t`); v.Int != 1 {
		t.Fatalf("count = %v", v)
	}
}

func TestClosedDB(t *testing.T) {
	db := Memory()
	db.Close()
	if _, err := db.Exec(`CREATE TABLE t (x INT)`); err == nil {
		t.Fatal("write on closed db should fail")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint on closed db should fail")
	}
}

// Property: a random sequence of committed operations survives an
// arbitrary number of reopen cycles bit-for-bit (same SELECT results).
func TestQuickDurabilityRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "metadbq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)

		db, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		s := db.Session()
		if _, err := s.Exec(`CREATE TABLE t (id INT PRIMARY KEY, x INT)`); err != nil {
			return false
		}
		live := map[int64]int64{}
		nextID := int64(0)
		ops := 5 + r.Intn(40)
		for i := 0; i < ops; i++ {
			switch r.Intn(3) {
			case 0:
				id := nextID
				nextID++
				x := int64(r.Intn(1000))
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, id, x)); err != nil {
					return false
				}
				live[id] = x
			case 1:
				for id := range live {
					x := int64(r.Intn(1000))
					if _, err := s.Exec(fmt.Sprintf(`UPDATE t SET x = %d WHERE id = %d`, x, id)); err != nil {
						return false
					}
					live[id] = x
					break
				}
			case 2:
				for id := range live {
					if _, err := s.Exec(fmt.Sprintf(`DELETE FROM t WHERE id = %d`, id)); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			}
			// Occasionally checkpoint mid-stream.
			if r.Intn(10) == 0 {
				if err := db.Checkpoint(); err != nil {
					return false
				}
			}
		}
		db.Close()

		db2, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer db2.Close()
		res, err := db2.Exec(`SELECT id, x FROM t`)
		if err != nil {
			return false
		}
		if len(res.Rows) != len(live) {
			t.Logf("seed %d: recovered %d rows, want %d", seed, len(res.Rows), len(live))
			return false
		}
		for _, row := range res.Rows {
			if want, ok := live[row[0].Int]; !ok || want != row[1].Int {
				t.Logf("seed %d: row %v mismatch", seed, row)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
