package metadb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// seedGroupWAL builds a WAL through a group-commit database under
// real concurrency: `committers` goroutines each durably insert
// `inserts` distinct rows, so commits pile up behind the in-flight
// fsync and whole batches share one sync. The database is crashed
// without Close (the WAL is the only durable state) and the raw WAL
// bytes plus the set of committed ids are returned. The seeding
// asserts batching actually happened — fewer fsyncs than commits —
// so the crash tests below demonstrably cover batched appends.
func seedGroupWAL(t *testing.T, committers, inserts int) []byte {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(Options{
		Dir: dir, Sync: true,
		SyncDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY)`)
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.Session()
			for i := 0; i < inserts; i++ {
				if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, g*1000+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := db.Metrics().Snapshot()
	appends := snap.Counters[MetricWALAppends]
	fsyncs := snap.Counters[MetricWALFsyncs]
	if fsyncs >= appends {
		t.Fatalf("no batching happened: %d fsyncs for %d commits", fsyncs, appends)
	}
	// Simulated crash: no Close, no checkpoint.
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

// idSet dumps table t's ids.
func idSet(t *testing.T, s *Session) map[int64]bool {
	t.Helper()
	res := mustExec(t, s, `SELECT id FROM t`)
	out := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Int] = true
	}
	return out
}

// TestWALGroupCommitCrashAtEveryOffset is the batched analogue of
// TestWALCrashAtEveryOffset: a crash at every byte offset of a WAL
// written by group commit must recover exactly the whole transactions
// the prefix contains — batching shares fsyncs, but each commit is
// still its own WAL record, so durability remains all-or-nothing per
// transaction and the recovered set grows monotonically with the cut.
func TestWALGroupCommitCrashAtEveryOffset(t *testing.T) {
	wal := seedGroupWAL(t, 4, 3)
	ends := walRecordEnds(t, wal)
	if len(ends) != 4*3+1 {
		t.Fatalf("WAL holds %d records, want %d (create + 12 inserts)", len(ends), 4*3+1)
	}

	base := t.TempDir()
	prev := map[int64]bool{}
	for cut := 0; cut <= len(wal); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		complete := 0
		for _, end := range ends {
			if end <= int64(cut) {
				complete++
			}
		}
		s := db.Session()
		if complete == 0 {
			if _, err := s.Exec(`SELECT COUNT(*) FROM t`); err == nil {
				t.Fatalf("cut %d: table recovered from a torn create record", cut)
			}
		} else {
			got := idSet(t, s)
			if len(got) != complete-1 { // first complete record is the create
				t.Fatalf("cut %d: recovered %d rows, want %d", cut, len(got), complete-1)
			}
			// Prefix property: a longer prefix recovers a superset.
			for id := range prev {
				if !got[id] {
					t.Fatalf("cut %d: id %d recovered at a shorter cut is gone", cut, id)
				}
			}
			prev = got
			mustExec(t, s, `INSERT INTO t VALUES (99999)`)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// groupEquivOps generates one goroutine's deterministic operation
// sequence against its own table (disjoint tables make the final
// state independent of cross-goroutine interleaving).
func groupEquivOps(rng *rand.Rand, table string, n int) []string {
	ops := make([]string, 0, n+1)
	ops = append(ops, fmt.Sprintf(`CREATE TABLE %s (id INT PRIMARY KEY, v INT)`, table))
	live := []int{}
	next := 0
	for i := 0; i < n; i++ {
		switch k := rng.Intn(4); {
		case k <= 1 || len(live) == 0: // insert
			ops = append(ops, fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d)`, table, next, rng.Intn(100)))
			live = append(live, next)
			next++
		case k == 2: // update
			id := live[rng.Intn(len(live))]
			ops = append(ops, fmt.Sprintf(`UPDATE %s SET v = %d WHERE id = %d`, table, rng.Intn(100), id))
		default: // delete
			j := rng.Intn(len(live))
			ops = append(ops, fmt.Sprintf(`DELETE FROM %s WHERE id = %d`, table, live[j]))
			live = append(live[:j], live[j+1:]...)
		}
	}
	return ops
}

// TestWALGroupCommitEquivalence is the quickcheck satellite: for
// seeded random transaction streams run concurrently through a
// group-commit database, the table state recovered from its (batched)
// WAL must equal the state an unbatched database reaches executing
// the same streams. Each stream owns one table, so the expected state
// is interleaving-independent.
func TestWALGroupCommitEquivalence(t *testing.T) {
	const goroutines = 4
	for seed := int64(0); seed < 10; seed++ {
		streams := make([][]string, goroutines)
		for g := range streams {
			streams[g] = groupEquivOps(rand.New(rand.NewSource(seed*100+int64(g))), fmt.Sprintf("t%d", g), 15)
		}

		// Reference: the same streams, serially, no batching, no WAL.
		ref := Memory()
		for _, ops := range streams {
			s := ref.Session()
			for _, op := range ops {
				mustExec(t, s, op)
			}
		}

		// Batched: concurrent sessions over a sync group-commit DB,
		// crashed without Close so recovery replays the batched WAL.
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir, Sync: true, SyncDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(ops []string) {
				defer wg.Done()
				s := db.Session()
				for _, op := range ops {
					if _, err := s.Exec(op); err != nil {
						errs <- err
						return
					}
				}
			}(streams[g])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, "wal"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(Options{Dir: crashDir})
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}

		for g := 0; g < goroutines; g++ {
			q := fmt.Sprintf(`SELECT id, v FROM t%d ORDER BY id`, g)
			want := mustExec(t, ref.Session(), q)
			got := mustExec(t, rec.Session(), q)
			if len(want.Rows) != len(got.Rows) {
				t.Fatalf("seed %d t%d: %d rows recovered, want %d", seed, g, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				if want.Rows[i][0].Int != got.Rows[i][0].Int || want.Rows[i][1].Int != got.Rows[i][1].Int {
					t.Fatalf("seed %d t%d row %d: got (%d,%d), want (%d,%d)", seed, g, i,
						got.Rows[i][0].Int, got.Rows[i][1].Int, want.Rows[i][0].Int, want.Rows[i][1].Int)
				}
			}
		}
		db.Close()
		rec.Close()
		ref.Close()
	}
}
