package metadb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRecoversParentFiles opens a snapshot and WAL written before the
// dialect was cut down (testdata/parent/README.md says how) and requires
// the tables the writer saw, row for row, with the index the WAL created
// in use.
func TestRecoversParentFiles(t *testing.T) {
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
	golden, err := os.ReadFile(filepath.Join("testdata", "parent", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 2; reopen++ { // from snapshot + WAL, then from this code's own checkpoint
		db := openDir(t, dir)
		s := db.Session()
		var got []string
		for _, name := range db.TableNames() {
			for _, r := range mustExec(t, s, "SELECT * FROM "+name).Rows {
				got = append(got, fmt.Sprint(name, r))
			}
		}
		sort.Strings(got)
		if want := strings.Split(strings.TrimSpace(string(golden)), "\n"); !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d: recovered\n%s\nwant\n%s", reopen, strings.Join(got, "\n"), golden)
		}
		if p := planLines(t, s, `EXPLAIN SELECT filename FROM dpfs_file_attr WHERE owner = 'it''s'`); !strings.Contains(p, "INDEX LOOKUP dpfs_file_attr BY attr_by_owner") {
			t.Fatalf("open %d: plan %q", reopen, p)
		}
		if seq, _ := db.ReplState(); seq == 0 {
			t.Fatalf("open %d: the log position was lost", reopen)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A WAL that holds a record of a retired redo kind fails recovery with
// an error; it is neither skipped nor a panic.
func TestRecoveryRefusesRetiredRedoKinds(t *testing.T) {
	for _, kind := range []string{"drop", "dropindex"} {
		dir := t.TempDir()
		w, err := openWAL(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		cols := []ColumnDef{{Name: "x", Type: KindInt}}
		if _, err := w.append(commitRecord{Seq: 1, Ops: []RedoOp{{Kind: "create", Table: "t", Cols: cols}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.append(commitRecord{Seq: 2, Ops: []RedoOp{{Kind: kind, Table: "t", Index: "ix"}}}); err != nil {
			t.Fatal(err)
		}
		w.close()
		db, err := Open(Options{Dir: dir})
		if err == nil {
			db.Close()
			t.Fatalf("a WAL with a %q record was recovered", kind)
		}
		if want := fmt.Sprintf("unknown redo op %q", kind); !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %s", err, want)
		}
	}
}
