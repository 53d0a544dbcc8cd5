package metadb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"path/filepath"
)

// The one-way reader of gob-era catalog files, run once by Open on a
// directory whose snapshot or WAL lacks fileHeader. Those files were
// written by the format before records were checksummed: the snapshot
// a single gob value of the shape below, the WAL a sequence of 8-byte
// little-endian lengths each followed by a gob-encoded commitRecord
// (a fresh gob stream per record). The reader feeds what it decodes to
// replay, like recovery does, then checkpoints at once so the
// directory holds only the current format from then on.

// gobEra reports whether a file's bytes predate fileHeader: non-empty
// and not starting with it (nor with a torn prefix of it, which a crash
// during a fresh WAL's first append leaves).
func gobEra(b []byte) bool {
	n := min(len(b), len(fileHeader))
	return len(b) > 0 && string(b[:n]) != fileHeader[:n]
}

// gobSnapshot is the gob-era snapshot file.
type gobSnapshot struct {
	Seq    int64
	Epoch  int64
	Tables []struct {
		Name    string
		Cols    []ColumnDef
		NextRow int64
		RowIDs  []int64
		Rows    [][]Value
		Indexes []struct{ Name, Col string }
	}
}

// convertGobEra recovers a directory holding gob-era files and
// rewrites it in the current format.
func (db *DB) convertGobEra(snap, wal []byte) error {
	if gobEra(snap) {
		if err := db.replayGobSnapshot(snap); err != nil {
			return fmt.Errorf("metadb: corrupt snapshot %s: %w", filepath.Join(db.wal.dir, "snapshot"), err)
		}
	} else if err := db.loadSnapshot(snap); err != nil {
		return err
	}
	var err error
	switch {
	case !gobEra(wal):
		err = db.replayWAL(wal)
	case snap != nil && !gobEra(snap):
		// A current snapshot beside a gob-era WAL is a conversion that
		// crashed between the snapshot's rename and the WAL's reset:
		// the snapshot holds the whole WAL.
	default:
		err = db.replayGobWAL(wal)
	}
	if err != nil {
		return err
	}
	return db.checkpointLocked()
}

// replayGobWAL applies a gob-era WAL's records above the recovered log
// position, up to the first torn or undecodable one.
func (db *DB) replayGobWAL(wal []byte) error {
	for len(wal) >= 8 {
		n := binary.LittleEndian.Uint64(wal)
		if n == 0 || n > uint64(len(wal)-8) {
			return nil // torn or corrupt tail
		}
		var rec commitRecord
		if err := gob.NewDecoder(bytes.NewReader(wal[8 : 8+n])).Decode(&rec); err != nil {
			return nil // corrupt tail
		}
		if rec.Seq == 0 {
			// Written before replication: the record is the next in the
			// log.
			rec.Seq = db.replSeq + 1
		}
		if err := db.extend(rec); err != nil {
			return err
		}
		wal = wal[8+n:]
	}
	return nil
}

// replayGobSnapshot replays a gob-era snapshot as the ops a current
// snapshot holds.
func (db *DB) replayGobSnapshot(snap []byte) error {
	var s gobSnapshot
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&s); err != nil {
		return err
	}
	var ops []RedoOp
	for _, t := range s.Tables {
		if len(t.RowIDs) != len(t.Rows) {
			return fmt.Errorf("table %q has %d rowids for %d rows", t.Name, len(t.RowIDs), len(t.Rows))
		}
		ops = append(ops, RedoOp{Kind: "create", Table: t.Name, RowID: t.NextRow, Cols: t.Cols})
		for i, rid := range t.RowIDs {
			ops = append(ops, RedoOp{Kind: "insert", Table: t.Name, RowID: rid, Vals: t.Rows[i]})
		}
		for _, ix := range t.Indexes {
			ops = append(ops, RedoOp{Kind: "createindex", Table: t.Name, Index: ix.Name, Col: ix.Col})
		}
	}
	if err := replay(db.tables, ops); err != nil {
		return err
	}
	db.replSeq, db.replLastEpoch = s.Seq, s.Epoch
	return nil
}
