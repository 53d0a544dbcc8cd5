package metadb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dpfs/internal/obs"
)

// Durable storage layout (DESIGN.md §12):
//
//	<dir>/snapshot   fileHeader, then one record holding the whole state
//	                 (written to snapshot.tmp, fsynced, renamed)
//	<dir>/wal        fileHeader, then one record per commit since the
//	                 snapshot; empty (no header either) after a checkpoint
//	<dir>/epoch      "<epoch> <leader>" text (repl.go)
//
// A record is the body's length and the CRC32C (Castagnoli) of the
// body, 4 little-endian bytes each, then the body: seq and epoch as
// codec integers, then redo ops in the catalog codec (codec.go). The
// snapshot's ops are, per table in name order, its create (RowID: the
// table's next rowid), its inserts in rowid order and its
// createindexes; its seq/epoch is the log position it covers.
// Recovery replays the snapshot, then the WAL records whose seq is
// above the snapshot's, up to the first torn record or CRC mismatch.
// Files without the header are gob-era and converted on first open
// (gobconvert.go).

// fileHeader opens every snapshot and every non-empty WAL.
const fileHeader = "DPFSCAT1"

// recordHeader is a record's length and CRC.
const recordHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// commitRecord is one catalog record: a commit in the WAL or on the
// replication stream, or the whole state in a snapshot. Seq is the
// record's 1-based position in the replicated log and Epoch the primary
// term that produced it (DESIGN.md §13).
type commitRecord struct {
	Seq   int64
	Epoch int64
	Ops   []RedoOp
}

// appendRecord appends rec in its framed form.
func appendRecord(b []byte, rec commitRecord) []byte {
	start := len(b)
	b = append(b, make([]byte, recordHeader)...)
	b = binary.AppendVarint(b, rec.Seq)
	b = binary.AppendVarint(b, rec.Epoch)
	b = AppendRedoOps(b, rec.Ops)
	body := b[start+recordHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, castagnoli))
	return b
}

var errTornRecord = errors.New("metadb: torn catalog record")

// decodeRecord reads the record at the front of b and returns it with
// the number of bytes it took.
func decodeRecord(b []byte) (commitRecord, int, error) {
	if len(b) < recordHeader {
		return commitRecord{}, 0, errTornRecord
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-recordHeader) {
		return commitRecord{}, 0, errTornRecord
	}
	body := b[recordHeader : recordHeader+int(n)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return commitRecord{}, 0, errors.New("metadb: catalog record fails its CRC")
	}
	d := NewDecoder(body)
	rec := commitRecord{Seq: d.Int(), Epoch: d.Int(), Ops: d.RedoOps()}
	if err := d.Finish(); err != nil {
		return commitRecord{}, 0, err
	}
	return rec, recordHeader + int(n), nil
}

// snapshotState decodes a snapshot file's (or a shipped snapshot's)
// bytes and replays them into a fresh table map.
func snapshotState(b []byte) (map[string]*Table, commitRecord, error) {
	if string(b[:min(len(b), len(fileHeader))]) != fileHeader {
		return nil, commitRecord{}, errors.New("metadb: snapshot lacks the format header")
	}
	rec, n, err := decodeRecord(b[len(fileHeader):])
	if err == nil && len(fileHeader)+n != len(b) {
		err = fmt.Errorf("metadb: %d bytes after the snapshot record", len(b)-len(fileHeader)-n)
	}
	tables := make(map[string]*Table)
	if err == nil {
		err = replay(tables, rec.Ops)
	}
	return tables, rec, err
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
	return &walFile{dir: dir, f: f, sync: sync}, nil
}

func (w *walFile) close() error { return w.f.Close() }

// append writes one commit record at the end of the WAL, after the
// format header when the WAL is empty; the caller holds walMu. It
// never fsyncs. With sync set the returned wait target is the sequence
// number the caller must pass to waitDurable, outside the database
// write lock, before acknowledging the commit: committers that
// appended while an fsync was in flight then share the next one.
// Without sync it is 0, nothing to wait for.
func (w *walFile) append(rec commitRecord) (wait int64, err error) {
	var b []byte
	if w.size == 0 {
		b = []byte(fileHeader)
	}
	b = appendRecord(b, rec)
	if _, err := w.f.WriteAt(b, w.size); err != nil {
		return 0, err
	}
	n := int64(len(b))
	w.size += n
	if w.reg != nil {
		w.reg.Counter(MetricWALAppends).Inc()
		w.reg.Counter(MetricWALBytes).Add(n)
	}
	if !w.sync {
		return 0, nil
	}
	w.gcMu.Lock()
	defer w.gcMu.Unlock()
	w.appended += n
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
	wait, err := db.logLocked(commitRecord{Seq: seq, Epoch: db.replEpoch, Ops: redo})
	if err != nil {
		return 0, 0, err
	}
	return wait, seq, nil
}

// logLocked appends a record to the WAL of a durable database, moves
// the log position to it, and checkpoints once the WAL has grown past
// Options.CheckpointBytes. The wait target is walFile.append's. Caller
// holds db.mu exclusively.
func (db *DB) logLocked(rec commitRecord) (wait int64, err error) {
	if db.wal != nil {
		db.walMu.Lock()
		defer db.walMu.Unlock()
		if wait, err = db.wal.append(rec); err != nil {
			return 0, err
		}
	}
	db.replSeq, db.replLastEpoch = rec.Seq, rec.Epoch
	if db.wal != nil && db.opts.CheckpointBytes > 0 && db.wal.size > db.opts.CheckpointBytes {
		// The snapshot makes every appended record durable, so
		// committers have nothing to wait for.
		return 0, db.snapshotLocked()
	}
	return wait, nil
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
	return db.writeSnapshotLocked(db.snapshotBytesLocked())
}

// snapshotBytesLocked encodes the full database state as a snapshot
// file. Caller holds at least db.mu for reading.
func (db *DB) snapshotBytesLocked() []byte {
	rec := commitRecord{Seq: db.replSeq, Epoch: db.replLastEpoch}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		rec.Ops = append(rec.Ops, RedoOp{Kind: "create", Table: name, RowID: t.nextRow, Cols: t.Cols})
		for _, rid := range t.scanIDs() {
			rec.Ops = append(rec.Ops, RedoOp{Kind: "insert", Table: name, RowID: rid, Vals: t.rows[rid]})
		}
		ixNames := make([]string, 0, len(t.secondary))
		for ix := range t.secondary {
			ixNames = append(ixNames, ix)
		}
		sort.Strings(ixNames)
		for _, ix := range ixNames {
			col := t.Cols[t.secondary[ix].col].Name
			rec.Ops = append(rec.Ops, RedoOp{Kind: "createindex", Table: name, Index: ix, Col: col})
		}
	}
	return appendRecord([]byte(fileHeader), rec)
}

// writeSnapshotLocked persists snapshot file bytes atomically and
// resets the WAL. Caller holds both db.mu and db.walMu.
func (db *DB) writeSnapshotLocked(snap []byte) error {
	tmp := filepath.Join(db.wal.dir, "snapshot.tmp")
	if err := writeSynced(tmp, snap); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.wal.dir, "snapshot")); err != nil {
		return err
	}
	if db.wal.sync {
		// The rename must be durable before the WAL it supersedes is
		// cut, or a power loss brings back the old snapshot beside an
		// empty WAL.
		if err := syncDir(db.wal.dir); err != nil {
			return err
		}
	}
	db.reg.Counter(MetricWALCheckpoints).Inc()
	return db.wal.reset()
}

// writeSynced writes data to a new file at path and fsyncs it; on
// failure the file is removed.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory, making the renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// recover loads the snapshot and replays the WAL records above it,
// converting gob-era files first.
func (db *DB) recover() error {
	snap, err := os.ReadFile(filepath.Join(db.wal.dir, "snapshot"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	wal, err := io.ReadAll(db.wal.f)
	if err != nil {
		return err
	}
	if gobEra(snap) || gobEra(wal) {
		return db.convertGobEra(snap, wal)
	}
	if err := db.loadSnapshot(snap); err != nil {
		return err
	}
	return db.replayWAL(wal)
}

// loadSnapshot replays a snapshot file's bytes (nil: no snapshot) into
// the empty database.
func (db *DB) loadSnapshot(snap []byte) error {
	if snap == nil {
		return nil
	}
	tables, rec, err := snapshotState(snap)
	if err != nil {
		return fmt.Errorf("metadb: corrupt snapshot %s: %w", filepath.Join(db.wal.dir, "snapshot"), err)
	}
	db.tables, db.replSeq, db.replLastEpoch = tables, rec.Seq, rec.Epoch
	return nil
}

// replayWAL applies the WAL's records above the recovered log position
// and truncates the WAL after the last whole record with a good CRC.
func (db *DB) replayWAL(wal []byte) error {
	good := 0
	if len(wal) >= len(fileHeader) {
		good = len(fileHeader)
		for {
			rec, n, err := decodeRecord(wal[good:])
			if err != nil {
				break // torn or corrupt tail
			}
			if err := db.extend(rec); err != nil {
				return err
			}
			good += n
		}
	}
	db.wal.size = int64(good)
	if good == len(wal) {
		return nil
	}
	return db.wal.f.Truncate(db.wal.size)
}

// extend applies one recovered WAL record unless the snapshot already
// holds it.
func (db *DB) extend(rec commitRecord) error {
	if rec.Seq <= db.replSeq {
		return nil
	}
	if err := replay(db.tables, rec.Ops); err != nil {
		return err
	}
	db.replSeq, db.replLastEpoch = rec.Seq, rec.Epoch
	return nil
}

// replay applies redo ops to a table map: the one path by which
// snapshots, WAL records, shipped records and converted gob-era files
// reach the tables. A create's RowID, when set, is the table's next
// rowid (snapshots carry it).
func replay(tables map[string]*Table, ops []RedoOp) error {
	for _, op := range ops {
		if op.Kind == "create" {
			t, err := NewTable(op.Table, op.Cols)
			if err != nil {
				return err
			}
			t.nextRow = max(t.nextRow, op.RowID)
			tables[op.Table] = t
			continue
		}
		t, ok := tables[op.Table]
		if !ok {
			return fmt.Errorf("metadb: no such table %q", op.Table)
		}
		switch op.Kind {
		case "insert", "update":
			if len(op.Vals) != len(t.Cols) {
				return fmt.Errorf("metadb: %s of %d values into table %q of %d columns", op.Kind, len(op.Vals), t.Name, len(t.Cols))
			}
			if op.Kind == "insert" {
				t.insert(op.Vals, op.RowID)
			} else {
				t.update(op.RowID, op.Vals)
			}
		case "delete":
			t.delete(op.RowID)
		case "createindex":
			if err := t.createIndex(op.Index, op.Col); err != nil {
				return err
			}
		default:
			return fmt.Errorf("metadb: unknown redo op %q", op.Kind)
		}
	}
	return nil
}
