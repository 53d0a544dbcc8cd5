package metadb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestQueryMetrics(t *testing.T) {
	db := Memory()
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id, v) VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT v FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELEKT"); err == nil {
		t.Fatal("expected parse error")
	}

	s := db.Metrics().Snapshot()
	// The parse error never reaches the executor, so only the three valid
	// statements count.
	if got := s.Counters[MetricQueries]; got != 3 {
		t.Fatalf("queries_total = %d, want 3", got)
	}
	for _, kind := range []string{"createtable", "insert", "select"} {
		if got := s.Histograms[QueryMetric(kind)].Count; got != 1 {
			t.Fatalf("%s count = %d, want 1", QueryMetric(kind), got)
		}
	}
}

func TestWALMetrics(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s := db.Metrics().Snapshot()
	if got := s.Counters[MetricWALAppends]; got != 2 {
		t.Fatalf("wal_appends_total = %d, want 2", got)
	}
	if s.Counters[MetricWALBytes] == 0 {
		t.Fatal("wal_bytes_total = 0")
	}
	if got := s.Counters[MetricWALFsyncs]; got != 2 {
		t.Fatalf("wal_fsyncs_total = %d, want 2 (Sync: true)", got)
	}
	if got := s.Counters[MetricWALCheckpoints]; got != 1 {
		t.Fatalf("wal_checkpoints_total = %d, want 1", got)
	}
}

// TestWALMetricsNoSync pins wal_fsyncs_total to real fsyncs: with
// Sync off the WAL is appended but never synced, so commits advance
// the append counter while the fsync counter stays at zero.
func TestWALMetricsNoSync(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	s := db.Metrics().Snapshot()
	if got := s.Counters[MetricWALAppends]; got != 2 {
		t.Fatalf("wal_appends_total = %d, want 2", got)
	}
	if got := s.Counters[MetricWALFsyncs]; got != 0 {
		t.Fatalf("wal_fsyncs_total = %d, want 0 (Sync: false, no fsyncs happen)", got)
	}
}

// TestWALMetricsGroupCommit pins the cost of the one commit path by
// count. A lone committer leads its own fsync every time: N commits,
// exactly N fsyncs, none shared. Concurrent committers then batch: fewer
// real fsyncs than commits, at least one fsync that covered a whole
// batch (wal_group_commits_total), and a batch-size histogram whose
// count is the fsync count and whose sum is the commit count — every
// commit is covered by exactly one fsync.
func TestWALMetricsGroupCommit(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Sync: true, SyncDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	const alone = 5 // commits by a lone committer, the CREATE included
	for i := 1; i < alone; i++ {
		if _, err := db.Exec("INSERT INTO t (id) VALUES (?)", I(int64(-i))); err != nil {
			t.Fatal(err)
		}
	}
	lone := db.Metrics().Snapshot()
	if a, f, g := lone.Counters[MetricWALAppends], lone.Counters[MetricWALFsyncs], lone.Counters[MetricWALGroupCommits]; a != alone || f != alone || g != 0 {
		t.Fatalf("a lone committer: %d appends, %d fsyncs, %d shared; want %d, %d, 0", a, f, g, alone, alone)
	}
	const committers, inserts = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.Session()
			for i := 0; i < inserts; i++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", g*100+i)); err != nil {
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

	s := db.Metrics().Snapshot()
	appends := s.Counters[MetricWALAppends]
	fsyncs := s.Counters[MetricWALFsyncs]
	if want := int64(committers*inserts + alone); appends != want {
		t.Fatalf("wal_appends_total = %d, want %d", appends, want)
	}
	if fsyncs >= appends || fsyncs <= alone {
		t.Fatalf("wal_fsyncs_total = %d for %d commits, want %d < fsyncs < commits (batching)", fsyncs, appends, alone)
	}
	if got := s.Counters[MetricWALGroupCommits]; got == 0 {
		t.Fatal("wal_group_commits_total = 0, want at least one multi-commit fsync")
	}
	batch := s.Histograms[MetricWALBatchSize]
	if batch.Count != fsyncs {
		t.Fatalf("wal_batch_size count = %d, want one sample per fsync (%d)", batch.Count, fsyncs)
	}
	if batch.Sum != appends {
		t.Fatalf("wal_batch_size sum = %d, want every commit covered exactly once (%d)", batch.Sum, appends)
	}
}
