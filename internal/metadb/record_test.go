package metadb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestCheckpointCrashBeforeWALReset crashes a checkpoint between the
// snapshot's rename and the WAL's reset: the WAL still holds records
// the snapshot already covers, and recovery must skip them rather than
// apply them twice.
func TestCheckpointCrashBeforeWALReset(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`)
	for i := 0; i < 5; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (?, ?)`, I(int64(i)), S(fmt.Sprint("v", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE INDEX t_by_s ON t (s)`)
	mustExec(t, s, `INSERT INTO t VALUES (5, 'v5')`)
	mustExec(t, s, `DELETE FROM t WHERE id = 0`)
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	want := dumpRows(t, db)
	wantSeq, _ := db.ReplState()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: the new snapshot is in place, the WAL never reset.
	if err := os.WriteFile(filepath.Join(dir, "wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db = openDir(t, dir)
	defer db.Close()
	if got := dumpRows(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if seq, _ := db.ReplState(); seq != wantSeq {
		t.Fatalf("recovered to seq %d, want %d", seq, wantSeq)
	}
	if p := planLines(t, db.Session(), `EXPLAIN SELECT id FROM t WHERE s = 'v3'`); !strings.Contains(p, "BY t_by_s") {
		t.Fatalf("plan %q does not use the index", p)
	}
	mustExec(t, db.Session(), `INSERT INTO t VALUES (6, 'v6')`)
}

// TestRestoreSnapshotCrashBeforeWALReset builds the directory a
// diverged follower leaves when it crashes inside RestoreSnapshot,
// between the shipped snapshot's rename and the WAL's reset: its own
// WAL, holding commits under an old epoch that never reached the new
// primary, beside the new primary's snapshot. Recovery must land on the
// snapshot's state and replay none of the diverged commits, even those
// whose seq is above the snapshot's.
func TestRestoreSnapshotCrashBeforeWALReset(t *testing.T) {
	_, records := shipBatch(t, 1) // CREATE and one insert, epoch 1

	// The follower replicates both, then commits two rows of its own
	// under epoch 1 that no other replica ever sees.
	dir := t.TempDir()
	follower := openDir(t, dir)
	if err := follower.SetReplEpoch(1, 0); err != nil {
		t.Fatal(err)
	}
	applyRecords(t, follower, records, 0)
	for i := 100; i < 102; i++ {
		mustExec(t, follower.Session(), fmt.Sprintf(`INSERT INTO t VALUES (%d, 'diverged')`, i))
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// The new primary holds the two replicated records and commits one
	// row of its own under epoch 2: its log ends at seq 3, below the
	// follower's diverged seq 4.
	primary, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	applyRecords(t, primary, records, 0)
	if err := primary.SetReplEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	mustExec(t, primary.Session(), `INSERT INTO t VALUES (50, 'epoch 2')`)
	snap, err := primary.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The crash: the shipped snapshot is in place, the WAL never reset.
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDir(t, dir)
	defer db.Close()
	if got, want := dumpT(t, db), dumpT(t, primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want the restored snapshot's %v", got, want)
	}
	if seq, epoch := db.ReplState(); seq != 3 || epoch != 2 {
		t.Fatalf("recovered to seq %d epoch %d, want the snapshot's 3, 2", seq, epoch)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal")); err != nil || st.Size() > int64(len(fileHeader)) {
		t.Fatalf("superseded WAL records left in place: %v, %v", st.Size(), err)
	}
}

// dumpRows reads every table's rows, in table order then rowid order.
func dumpRows(t testing.TB, db *DB) []string {
	t.Helper()
	var out []string
	for _, name := range db.TableNames() {
		for _, r := range mustExec(t, db.Session(), "SELECT * FROM "+name).Rows {
			out = append(out, fmt.Sprint(name, r))
		}
	}
	return out
}

// TestWALCorruptRecordNeverServed flips, one at a time, every byte of
// every committed WAL record: recovery must keep the records before the
// flipped one, truncate from it, and never return a flipped value.
func TestWALCorruptRecordNeverServed(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'zzzzzzzzzzzzzzzz')`)
	mustExec(t, s, `INSERT INTO t VALUES (2, NULL)`)
	mustExec(t, s, `UPDATE t SET s = 'yyyy' WHERE id = 2`)
	mustExec(t, s, `INSERT INTO t VALUES (-300, 'x')`)
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Record r spans bounds[r] to bounds[r+1].
	bounds := append([]int64{int64(len(fileHeader))}, walRecordEnds(t, wal)...)
	for r := range bounds[1:] {
		before := recoverWAL(t, wal[:bounds[r]])
		for i := bounds[r]; i < bounds[r+1]; i++ {
			bad := bytes.Clone(wal)
			bad[i] ^= 0x01
			if got := recoverWAL(t, bad); !reflect.DeepEqual(got, before) {
				t.Fatalf("byte %d of record %d flipped: recovered %v, want the records before it: %v", i-bounds[r], r, got, before)
			}
		}
	}
}

// recoverWAL opens a directory holding only wal and returns its tables'
// rows (nil when no table survived); the recovered database must accept
// a new commit.
func recoverWAL(t *testing.T, wal []byte) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDir(t, dir)
	defer db.Close()
	rows := dumpRows(t, db)
	mustExec(t, db.Session(), `CREATE TABLE after (x INT)`)
	return rows
}

// TestSnapshotCorruptionFailsOpen flips every byte of a snapshot file in
// turn: Open must refuse each with an error naming the snapshot.
func TestSnapshotCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`)
	mustExec(t, s, `CREATE INDEX t_by_s ON t (s)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'zzzzzzzz'), (2, NULL)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		bad := bytes.Clone(snap)
		bad[i] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{Dir: dir})
		if err == nil {
			db.Close()
			t.Fatalf("snapshot byte %d flipped: Open succeeded", i)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("snapshot byte %d flipped: error %q does not name %s", i, err, path)
		}
	}
}

// TestRestoreSnapshotRefusesCorruption ships a snapshot with each byte
// flipped in turn: RestoreSnapshot must refuse it and leave the
// follower's tables as they were; the intact bytes then restore.
func TestRestoreSnapshotRefusesCorruption(t *testing.T) {
	primary, _ := shipBatch(t, 3)
	snap, err := primary.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	follower := openDir(t, t.TempDir())
	defer follower.Close()
	mustExec(t, follower.Session(), `CREATE TABLE mine (x INT)`)
	mustExec(t, follower.Session(), `INSERT INTO mine VALUES (7)`)
	before := dumpRows(t, follower)
	for i := range snap {
		bad := bytes.Clone(snap)
		bad[i] ^= 0x01
		if err := follower.RestoreSnapshot(1, bad); err == nil {
			t.Fatalf("snapshot byte %d flipped: restored", i)
		}
		if got := dumpRows(t, follower); !reflect.DeepEqual(got, before) {
			t.Fatalf("snapshot byte %d flipped: follower now holds %v", i, got)
		}
	}
	if err := follower.RestoreSnapshot(1, snap); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpRows(t, follower), dumpRows(t, primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %v, want %v", got, want)
	}
}

// FuzzCatalogRecord decodes one framed record and replays it into an
// empty table map: neither may panic or allocate more than a small
// multiple of the record, and a record that decodes re-encodes to
// itself. Each input is also tried with its length and CRC fixed up, so
// mutations of the body reach the decoder and the replay. The seeds are
// seedWAL's records and the snapshot record of the converted parent
// catalog.
func FuzzCatalogRecord(f *testing.F) {
	wal := seedWAL(f, 3)
	start := int64(len(fileHeader))
	for _, end := range walRecordEnds(f, wal) {
		f.Add(wal[start:end])
		start = end
	}
	f.Add(convertedParentSnapshot(f)[len(fileHeader):])
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, rec := range [][]byte{b, reframe(b)} {
			if n := replayAlloc(rec); n > uint64(64*len(rec)+1<<16) {
				t.Fatalf("%d-byte record allocated %d bytes", len(rec), n)
			}
			r, n, err := decodeRecord(rec)
			if err != nil {
				continue
			}
			again, _, err := decodeRecord(appendRecord(nil, r))
			if err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("%+v (%d of %d bytes) re-decodes as %+v (%v)", r, n, len(rec), again, err)
			}
		}
	})
}

// reframe returns b with its length and CRC set to frame the rest.
func reframe(b []byte) []byte {
	if len(b) < recordHeader || len(b)-recordHeader > math.MaxUint32 {
		return b
	}
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-recordHeader))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[recordHeader:], castagnoli))
	return b
}

// replayAlloc returns the bytes one decode and replay of rec allocate:
// the least of three measurements, since the heap counters also see
// whatever other goroutines allocate meanwhile.
func replayAlloc(rec []byte) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r, _, err := decodeRecord(rec); err == nil {
			replay(make(map[string]*Table), r.Ops)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// convertedParentSnapshot opens a copy of the gob-era testdata/parent
// catalog and returns the snapshot file its conversion wrote.
func convertedParentSnapshot(t testing.TB) []byte {
	t.Helper()
	dir := copyParent(t)
	db := openDir(t, dir)
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// copyParent copies testdata/parent's snapshot and WAL into a new
// directory.
func copyParent(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"snapshot", "wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
