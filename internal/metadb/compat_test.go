package metadb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRecoversParentFiles opens a gob-era snapshot and WAL written
// before the dialect was cut down (testdata/parent/README.md says how)
// and requires the tables the writer saw, row for row, with the index
// the WAL created in use. The first open converts the directory to the
// current format; the second recovers from that, and the third from the
// converted snapshot beside the gob-era WAL, as a crash between the
// conversion's rename and its WAL reset leaves it.
func TestRecoversParentFiles(t *testing.T) {
	dir := copyParent(t)
	gobWAL, err := os.ReadFile(filepath.Join("testdata", "parent", "wal"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "parent", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 3; reopen++ {
		if reopen == 2 {
			if err := os.WriteFile(filepath.Join(dir, "wal"), gobWAL, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db := openDir(t, dir)
		if reopen == 0 {
			requireCurrentFormat(t, dir)
		}
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
		if seq, _ := db.ReplState(); seq != 33 {
			t.Fatalf("open %d: log position %d, want the gob-era WAL's last, 33", reopen, seq)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// requireCurrentFormat fails unless dir holds exactly a snapshot that
// starts with fileHeader and a WAL that is empty or starts with it.
func requireCurrentFormat(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if (e.Name() == "snapshot" || len(data) > 0) && !strings.HasPrefix(string(data), fileHeader) {
			t.Errorf("%s is not in the current format: it starts %q", e.Name(), data[:min(len(data), len(fileHeader))])
		}
	}
	if want := []string{"snapshot", "wal"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
}

// TestConvertsPreReplicationGobWAL converts a gob-era WAL whose records
// carry no log position, as WALs written before replication do: each
// record is the next in the log.
func TestConvertsPreReplicationGobWAL(t *testing.T) {
	var wal []byte
	for _, ops := range [][]RedoOp{
		{{Kind: "create", Table: "t", Cols: []ColumnDef{{Name: "x", Type: KindInt}}}},
		{{Kind: "insert", Table: "t", RowID: 1, Vals: []Value{I(7)}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(commitRecord{Ops: ops}); err != nil {
			t.Fatal(err)
		}
		wal = binary.LittleEndian.AppendUint64(wal, uint64(buf.Len()))
		wal = append(wal, buf.Bytes()...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDir(t, dir)
	defer db.Close()
	requireCurrentFormat(t, dir)
	if got := dumpRows(t, db); !reflect.DeepEqual(got, []string{"t[7]"}) {
		t.Fatalf("recovered %v", got)
	}
	if seq, _ := db.ReplState(); seq != 2 {
		t.Fatalf("log position %d, want 2", seq)
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
