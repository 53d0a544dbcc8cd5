package metadb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dpfs/internal/obs"
)

// Durable storage layout:
//
//	<dir>/snapshot   full gob dump of all tables (atomic rename)
//	<dir>/wal        committed transactions appended after the snapshot
//
// Each WAL record is an 8-byte little-endian length followed by the gob
// encoding of a commitRecord (a fresh gob stream per record, so records
// are independently decodable and a torn tail is detected and
// discarded).

type commitRecord struct {
	// Seq is the record's 1-based position in the replicated log and
	// Epoch the primary term that produced it (DESIGN.md §13). Both are
	// zero in WALs written before replication existed; recovery treats
	// that as "counting starts now".
	Seq   int64
	Epoch int64
	Ops   []RedoOp
}

type snapshotRecord struct {
	// Seq/Epoch of the last commit record the snapshot covers, so the
	// replicated-log position survives WAL truncation.
	Seq    int64
	Epoch  int64
	Tables []tableDump
}

type tableDump struct {
	Name    string
	Cols    []ColumnDef
	NextRow int64
	RowIDs  []int64
	Rows    [][]Value
	Indexes []indexDump
}

type indexDump struct {
	Name string
	Col  string
}

type walFile struct {
	dir  string
	f    *os.File
	sync bool
	size int64

	reg *obs.Registry // owning DB's registry; nil only in unit tests

	// Commit-fsync state, used when sync is set. appended and durable
	// are monotonic byte sequence numbers: unlike size they never
	// rewind when a checkpoint resets the file, so a waiter's target
	// stays meaningful across resets (a reset marks everything
	// appended so far durable, because the snapshot supersedes it).
	syncDelay time.Duration
	gcMu      sync.Mutex
	gcCond    *sync.Cond // lazily created; guards the fields below
	appended  int64      // bytes ever appended
	durable   int64      // bytes covered by an fsync or snapshot
	pending   int64      // commits appended since the last fsync
	syncing   bool       // a leader's fsync is in flight
	syncErr   error      // last failed fsync, covering appends <= errUpTo
	errUpTo   int64
}

func openWAL(dir string, sync bool) (*walFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("metadb: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("metadb: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walFile{dir: dir, f: f, sync: sync, size: st.Size()}, nil
}

func (w *walFile) close() error { return w.f.Close() }

// append writes one commit record at the end of the WAL; the caller
// holds walMu. It never fsyncs. With sync set the returned wait target
// is the sequence number the caller must pass to waitDurable, outside
// the database write lock, before acknowledging the commit: committers
// that appended while an fsync was in flight then share the next one.
// Without sync it is 0, nothing to wait for.
func (w *walFile) append(rec commitRecord) (wait int64, err error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return 0, fmt.Errorf("metadb: encode wal record: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(buf.Len()))
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	w.size += 8 + int64(buf.Len())
	if w.reg != nil {
		w.reg.Counter(MetricWALAppends).Inc()
		w.reg.Counter(MetricWALBytes).Add(8 + int64(buf.Len()))
	}
	if !w.sync {
		return 0, nil
	}
	w.gcMu.Lock()
	defer w.gcMu.Unlock()
	w.appended += 8 + int64(buf.Len())
	w.pending++
	return w.appended, nil
}

// fsync flushes the WAL file, first paying the modeled device cost
// when Options.SyncDelay is set.
func (w *walFile) fsync() error {
	if w.syncDelay > 0 {
		time.Sleep(w.syncDelay)
	}
	return w.f.Sync()
}

// waitDurable blocks until an fsync or snapshot covers the given
// sequence number, leading a shared fsync itself when none is in
// flight. Callers hold no locks.
func (w *walFile) waitDurable(target int64) error {
	w.gcMu.Lock()
	defer w.gcMu.Unlock()
	if w.gcCond == nil {
		w.gcCond = sync.NewCond(&w.gcMu)
	}
	for {
		if w.durable >= target {
			return nil
		}
		if w.syncErr != nil && target <= w.errUpTo {
			return w.syncErr
		}
		if w.syncing {
			w.gcCond.Wait()
			continue
		}
		// Become the leader: fsync everything appended so far in one
		// call.
		w.syncing = true
		end := w.appended
		batch := w.pending
		w.pending = 0
		w.gcMu.Unlock()
		err := w.fsync()
		w.gcMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
			if end > w.errUpTo {
				w.errUpTo = end
			}
		} else {
			if end > w.durable {
				w.durable = end
			}
			if w.reg != nil {
				w.reg.Counter(MetricWALFsyncs).Inc()
				w.reg.Histogram(MetricWALBatchSize).Record(batch)
				if batch > 1 {
					w.reg.Counter(MetricWALGroupCommits).Inc()
				}
			}
		}
		w.gcCond.Broadcast()
	}
}

// replay streams committed records to apply, stopping cleanly at a torn
// or corrupt tail (which it truncates away).
func (w *walFile) replay(apply func(commitRecord) error) error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var good int64
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(w.f, hdr[:]); err != nil {
			break // EOF or torn header
		}
		n := binary.LittleEndian.Uint64(hdr[:])
		if n == 0 || n > 1<<30 {
			break // corrupt length
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(w.f, body); err != nil {
			break // torn body
		}
		var rec commitRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			break // corrupt record
		}
		if err := apply(rec); err != nil {
			return err
		}
		good += 8 + int64(n)
	}
	if good != w.size {
		if err := w.f.Truncate(good); err != nil {
			return err
		}
		w.size = good
	}
	return nil
}

// reset truncates the WAL to empty (after a snapshot). Everything
// appended so far becomes durable — the freshly synced snapshot
// supersedes the discarded records — so pending waiters are released.
func (w *walFile) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.size = 0
	w.gcMu.Lock()
	w.durable = w.appended
	w.pending = 0
	w.syncErr = nil
	w.errUpTo = 0
	if w.gcCond != nil {
		w.gcCond.Broadcast()
	}
	w.gcMu.Unlock()
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// logCommit records a committed transaction's redo ops in the WAL and
// triggers an automatic checkpoint when the WAL has grown large.
// Caller holds db.mu exclusively. The first return is the wait target
// of walFile.append: when > 0 the caller must pass it to
// wal.waitDurable after releasing db.mu — the record is appended here
// (keeping WAL order equal to commit order) but not yet fsynced. The
// second return is the commit's replicated-log sequence number (0 for
// empty commits): logCommit advances it under db.mu so log order, WAL
// order and commit order all agree.
func (db *DB) logCommit(redo []RedoOp) (int64, int64, error) {
	if len(redo) == 0 {
		return 0, 0, nil
	}
	seq := db.replSeq + 1
	if db.wal == nil {
		db.replSeq = seq
		db.replLastEpoch = db.replEpoch
		return 0, seq, nil
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	wait, err := db.wal.append(commitRecord{Seq: seq, Epoch: db.replEpoch, Ops: redo})
	if err != nil {
		return 0, 0, err
	}
	db.replSeq = seq
	db.replLastEpoch = db.replEpoch
	if db.opts.CheckpointBytes > 0 && db.wal.size > db.opts.CheckpointBytes {
		// The snapshot makes every appended record durable, so
		// committers have nothing to wait for.
		return 0, seq, db.snapshotLocked()
	}
	return wait, seq, nil
}

// checkpointLocked snapshots under db.mu.
func (db *DB) checkpointLocked() error {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	return db.snapshotLocked()
}

// snapshotLocked writes the full database state atomically and resets
// the WAL. Caller holds both db.mu and db.walMu.
func (db *DB) snapshotLocked() error {
	return db.writeSnapshotLocked(db.buildSnapshotLocked())
}

// buildSnapshotLocked captures the full database state as a snapshot
// record. Caller holds at least db.mu for reading.
func (db *DB) buildSnapshotLocked() snapshotRecord {
	rec := snapshotRecord{Seq: db.replSeq, Epoch: db.replLastEpoch}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		dump := tableDump{Name: t.Name, Cols: t.Cols, NextRow: t.nextRow}
		for _, rid := range t.scanIDs() {
			dump.RowIDs = append(dump.RowIDs, rid)
			dump.Rows = append(dump.Rows, t.rows[rid])
		}
		ixNames := make([]string, 0, len(t.secondary))
		for name := range t.secondary {
			ixNames = append(ixNames, name)
		}
		sort.Strings(ixNames)
		for _, name := range ixNames {
			ix := t.secondary[name]
			dump.Indexes = append(dump.Indexes, indexDump{Name: name, Col: t.Cols[ix.col].Name})
		}
		rec.Tables = append(rec.Tables, dump)
	}
	return rec
}

// writeSnapshotLocked persists a snapshot record atomically and resets
// the WAL. Caller holds both db.mu and db.walMu.
func (db *DB) writeSnapshotLocked(rec snapshotRecord) error {
	tmp := filepath.Join(db.wal.dir, "snapshot.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.wal.dir, "snapshot")); err != nil {
		return err
	}
	db.reg.Counter(MetricWALCheckpoints).Inc()
	return db.wal.reset()
}

func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	// Deterministic snapshot order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// recover loads the snapshot (if any) and replays the WAL.
func (db *DB) recover() error {
	snap := filepath.Join(db.wal.dir, "snapshot")
	if f, err := os.Open(snap); err == nil {
		var rec snapshotRecord
		err := gob.NewDecoder(f).Decode(&rec)
		f.Close()
		if err != nil {
			return fmt.Errorf("metadb: corrupt snapshot: %w", err)
		}
		for _, dump := range rec.Tables {
			t, err := NewTable(dump.Name, dump.Cols)
			if err != nil {
				return err
			}
			for i, rid := range dump.RowIDs {
				t.insert(dump.Rows[i], rid)
			}
			if dump.NextRow > t.nextRow {
				t.nextRow = dump.NextRow
			}
			for _, ix := range dump.Indexes {
				if err := t.createIndex(ix.Name, ix.Col); err != nil {
					return err
				}
			}
			db.tables[dump.Name] = t
		}
		db.replSeq = rec.Seq
		db.replLastEpoch = rec.Epoch
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return db.wal.replay(func(rec commitRecord) error {
		if rec.Seq > db.replSeq {
			db.replSeq = rec.Seq
			db.replLastEpoch = rec.Epoch
		} else if rec.Seq == 0 {
			// Pre-replication record: count it so the log position
			// still reflects every commit.
			db.replSeq++
		}
		return db.applyRedo(rec.Ops)
	})
}

// applyRedo replays committed operations during recovery.
func (db *DB) applyRedo(ops []RedoOp) error {
	for _, op := range ops {
		switch op.Kind {
		case "create":
			t, err := NewTable(op.Table, op.Cols)
			if err != nil {
				return err
			}
			db.tables[op.Table] = t
		case "insert":
			t, err := db.table(op.Table)
			if err != nil {
				return err
			}
			t.insert(op.Vals, op.RowID)
		case "delete":
			t, err := db.table(op.Table)
			if err != nil {
				return err
			}
			t.delete(op.RowID)
		case "update":
			t, err := db.table(op.Table)
			if err != nil {
				return err
			}
			t.update(op.RowID, op.Vals)
		case "createindex":
			t, err := db.table(op.Table)
			if err != nil {
				return err
			}
			if err := t.createIndex(op.Index, op.Col); err != nil {
				return err
			}
		default:
			return fmt.Errorf("metadb: unknown redo op %q", op.Kind)
		}
	}
	return nil
}
