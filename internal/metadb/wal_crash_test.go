package metadb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// walRecordEnds parses the WAL's framing (the format header, then per
// record a 4-byte little-endian length and a 4-byte CRC before the
// body) and returns the end offset of every complete record.
func walRecordEnds(t testing.TB, wal []byte) []int64 {
	t.Helper()
	if len(wal) == 0 {
		return nil
	}
	if !bytes.HasPrefix(wal, []byte(fileHeader)) {
		t.Fatalf("WAL starts %q, want the format header %q", wal[:min(len(wal), len(fileHeader))], fileHeader)
	}
	var ends []int64
	off := int64(len(fileHeader))
	for off < int64(len(wal)) {
		if off+recordHeader > int64(len(wal)) {
			t.Fatalf("WAL ends mid-header at %d/%d", off, len(wal))
		}
		n := binary.LittleEndian.Uint32(wal[off : off+4])
		off += recordHeader + int64(n)
		if off > int64(len(wal)) {
			t.Fatalf("WAL record overruns file: end %d > size %d", off, len(wal))
		}
		ends = append(ends, off)
	}
	return ends
}

// seedWAL builds a WAL of one CREATE TABLE plus `inserts` single-row
// commits, crashed without Close (so recovery is WAL-only), and
// returns the raw WAL bytes.
func seedWAL(t testing.TB, inserts int) []byte {
	t.Helper()
	dir := t.TempDir()
	db := openDir(t, dir)
	s := db.Session()
	mustExec(t, s, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 0; i < inserts; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	// Simulated crash: no Close, no checkpoint — the WAL is the only
	// durable state.
	wal, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

// TestWALCrashAtEveryOffset simulates a crash at every possible byte
// of a WAL append: for each prefix of the file, recovery must succeed,
// keep exactly the commits whose records are fully contained in the
// prefix, discard the torn tail, and leave a writable database.
func TestWALCrashAtEveryOffset(t *testing.T) {
	const inserts = 5
	wal := seedWAL(t, inserts)
	ends := walRecordEnds(t, wal)
	if len(ends) != inserts+1 {
		t.Fatalf("WAL holds %d records, want %d (create + %d inserts)", len(ends), inserts+1, inserts)
	}

	base := t.TempDir()
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
			// Even the CREATE TABLE is torn: the table must not exist.
			if _, err := s.Exec(`SELECT COUNT(*) FROM t`); err == nil {
				t.Fatalf("cut %d: table recovered from a torn create record", cut)
			}
		} else {
			want := int64(complete - 1) // first complete record is the create
			if v := cell(t, s, `SELECT COUNT(*) FROM t`); v.Int != want {
				t.Fatalf("cut %d: recovered %d rows, want %d", cut, v.Int, want)
			}
			// The torn tail is truncated, not poisoned: the database
			// accepts new commits.
			mustExec(t, s, `INSERT INTO t VALUES (1000)`)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestWALCorruptLengthHeader corrupts a mid-file record's length
// header (the classic bit-rot case): recovery must keep everything
// before the corrupt record and discard it and all that follows — the
// framing has no way to resynchronize past a broken length.
func TestWALCorruptLengthHeader(t *testing.T) {
	const inserts = 5
	wal := seedWAL(t, inserts)
	ends := walRecordEnds(t, wal)

	// Corrupt the length of the third record (create + insert0 stay).
	corrupt := append([]byte(nil), wal...)
	binary.LittleEndian.PutUint32(corrupt[ends[1]:], 1<<30)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDir(t, dir)
	defer db.Close()
	if v := cell(t, db.Session(), `SELECT COUNT(*) FROM t`); v.Int != 1 {
		t.Fatalf("recovered %d rows, want 1 (records past the corruption discarded)", v.Int)
	}
	mustExec(t, db.Session(), `INSERT INTO t VALUES (1000)`)

	// The corrupt tail must be gone from disk after recovery, so a
	// second reopen sees a clean log.
	st, err := os.Stat(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(corrupt)) {
		t.Fatalf("WAL still %d bytes, want the corrupt tail truncated", st.Size())
	}
}
