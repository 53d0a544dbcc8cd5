package metadb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the database side of metadata replication (DESIGN.md
// §13). The DB itself knows nothing about networks or elections — it
// only exposes the four capabilities a log-replication core needs:
//
//   - a commit hook called in commit order with each committed
//     transaction's redo ops (ReplHooks.Ship), plus an acknowledgement
//     gate that can hold a commit until a majority of replicas is
//     durable (ReplHooks.Ack);
//   - an apply path for shipped records (ApplyShipped) that keeps the
//     follower's own WAL as its durability story and fences out
//     records from streams whose epoch the replica already voted past;
//   - a durable epoch (SetReplEpoch) so a restarted replica cannot
//     vote or accept records at a term it already moved past, and an
//     atomic vote primitive (GrantVote) that compares the candidate's
//     log position and adopts its epoch under the same lock the apply
//     path uses — so a vote and a concurrent record apply serialize;
//   - full-state transfer (StateSnapshot/RestoreSnapshot) for
//     followers too far behind — or too diverged — to stream.

// ReplHooks connects a DB acting as a replica-group primary to the
// replication core. Ship is called under the database write lock
// immediately after the commit's WAL append, so ship order equals WAL
// order equals commit order; it must only enqueue. Ack is called after
// local durability, outside all locks; commit blocks until it returns
// and reports its error as "commit not replicated".
type ReplHooks struct {
	Ship func(seq, epoch int64, ops []RedoOp)
	Ack  func(seq int64) error
}

// SetReplHooks installs or clears (nil) the primary-side replication
// hooks. In-flight commits that already loaded the previous hooks
// finish with them.
func (db *DB) SetReplHooks(h *ReplHooks) { db.repl.Store(h) }

// ReplState returns the replicated-log position: the sequence number
// of the last commit applied to this database and the epoch stamped on
// it. (0, 0) means the log is empty.
func (db *DB) ReplState() (seq, lastEpoch int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.replSeq, db.replLastEpoch
}

// ReplEpoch returns the durable epoch and the replica ID holding the
// primary lease for it.
func (db *DB) ReplEpoch() (epoch int64, leader int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.replEpoch, db.replLeader
}

// ErrEpochRegression reports an attempt to move the durable epoch
// backwards — always a lost race with a concurrent higher-epoch
// adoption, never an I/O failure, so callers may treat it as benign
// where a genuine persistence failure must not be ignored.
type ErrEpochRegression struct {
	Cur int64 // the durable epoch that stays in force
	New int64 // the rejected, smaller epoch
}

func (e *ErrEpochRegression) Error() string {
	return fmt.Sprintf("metadb: epoch regression %d -> %d", e.Cur, e.New)
}

// SetReplEpoch durably records a new epoch and its lease holder. New
// commits are stamped with the new epoch. Epochs never regress: a
// smaller value than the current one fails with *ErrEpochRegression.
func (db *DB) SetReplEpoch(epoch int64, leader int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("metadb: database closed")
	}
	if epoch < db.replEpoch {
		return &ErrEpochRegression{Cur: db.replEpoch, New: epoch}
	}
	prevEpoch, prevLeader := db.replEpoch, db.replLeader
	db.replEpoch = epoch
	db.replLeader = leader
	if err := db.writeEpochLocked(); err != nil {
		// The rename never happened, so the disk still holds the old
		// epoch; keep memory consistent with it rather than acting at
		// an epoch a crash would forget.
		db.replEpoch, db.replLeader = prevEpoch, prevLeader
		return err
	}
	return nil
}

// GrantVote is the durable half of an election vote, decided
// atomically under the database lock so it serializes with
// ApplyShipped: either a record lands before the vote (and the log
// comparison sees it) or after (and the epoch fence rejects it) —
// there is no window where a record can be acknowledged at an epoch
// this replica has voted past. A vote is granted only when
//
//   - epoch strictly exceeds the durable epoch (one vote per epoch,
//     even across a crash: the adoption is persisted before the grant
//     returns), and
//   - the candidate's log position (candLastEpoch, then candSeq) is at
//     least this replica's, so every majority-durable record survives
//     into any electable candidate. candSeq < 0 means the vote is for
//     this replica itself, which is trivially log-current.
//
// The returned seq/lastEpoch are this replica's log position read
// atomically with the decision (a self-voting candidate advertises
// them in its vote requests). A persistence failure refuses the vote.
func (db *DB) GrantVote(epoch, candSeq, candLastEpoch int64) (seq, lastEpoch int64, granted bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, 0, false, errors.New("metadb: database closed")
	}
	seq, lastEpoch = db.replSeq, db.replLastEpoch
	if epoch <= db.replEpoch {
		return seq, lastEpoch, false, nil
	}
	if candSeq >= 0 && (candLastEpoch < lastEpoch || (candLastEpoch == lastEpoch && candSeq < seq)) {
		return seq, lastEpoch, false, nil
	}
	prevEpoch, prevLeader := db.replEpoch, db.replLeader
	db.replEpoch, db.replLeader = epoch, -1
	if werr := db.writeEpochLocked(); werr != nil {
		db.replEpoch, db.replLeader = prevEpoch, prevLeader
		return seq, lastEpoch, false, werr
	}
	return seq, lastEpoch, true, nil
}

// writeEpochLocked persists "<epoch> <leader>" to <dir>/epoch: written
// and fsynced beside it, renamed over it, then the directory fsynced.
// In-memory databases keep it in memory only. Caller holds db.mu.
func (db *DB) writeEpochLocked() error {
	if db.opts.Dir == "" {
		return nil
	}
	tmp := filepath.Join(db.opts.Dir, "epoch.tmp")
	if err := writeSynced(tmp, fmt.Appendf(nil, "%d %d\n", db.replEpoch, db.replLeader)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.opts.Dir, "epoch")); err != nil {
		return err
	}
	// A lost rename would let the replica vote twice in one epoch.
	return syncDir(db.opts.Dir)
}

// loadEpoch restores the durable epoch on open; a missing file means
// epoch 0 (never part of a replica group, or created pre-replication).
func (db *DB) loadEpoch() error {
	data, err := os.ReadFile(filepath.Join(db.opts.Dir, "epoch"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if _, err := fmt.Sscanf(string(data), "%d %d", &db.replEpoch, &db.replLeader); err != nil {
		return fmt.Errorf("metadb: corrupt epoch file: %w", err)
	}
	return nil
}

// ErrSeqGap reports a shipped record that does not directly extend the
// replica's log; the shipper reacts with a snapshot resync.
type ErrSeqGap struct {
	Have int64 // last applied sequence number
	Want int64 // sequence number of the rejected record
}

func (e *ErrSeqGap) Error() string {
	return fmt.Sprintf("metadb: shipped record %d does not extend log at %d", e.Want, e.Have)
}

// ErrStaleEpoch reports a shipped record or snapshot arriving on a
// stream whose epoch is older than the replica's durable epoch: the
// sending primary was deposed (this replica has since voted for, or
// heard from, a newer one), so applying — and above all acknowledging —
// the record would let a dead lease contribute to a commit quorum.
type ErrStaleEpoch struct {
	Stream  int64 // the stream's hello epoch
	Current int64 // the replica's durable epoch
}

func (e *ErrStaleEpoch) Error() string {
	return fmt.Sprintf("metadb: shipped at stale epoch %d (current %d)", e.Stream, e.Current)
}

// ApplyShipped applies one shipped commit record on a follower: the
// redo ops mutate the tables and the record lands in the follower's
// own WAL, so follower durability works exactly like primary
// durability. The returned wait target is the WAL's fsync watermark —
// pass it to WaitWAL before acknowledging the record (0 means the
// append is already as durable as Options demand). A seq that is not
// exactly ReplState()+1 fails with *ErrSeqGap.
//
// streamEpoch is the hello epoch of the shipping stream; a record from
// a stream older than the durable epoch fails with *ErrStaleEpoch.
// The check runs under the same lock as GrantVote — raft's term check
// inside AppendEntries — so a vote granted to an epoch-e+1 candidate
// can never interleave with an epoch-e record slipping in afterwards:
// once the vote's epoch adoption is durable, every later epoch-e apply
// is rejected and never acknowledged.
func (db *DB) ApplyShipped(streamEpoch, seq, epoch int64, ops []RedoOp) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, errors.New("metadb: database closed")
	}
	if streamEpoch < db.replEpoch {
		return 0, &ErrStaleEpoch{Stream: streamEpoch, Current: db.replEpoch}
	}
	if seq != db.replSeq+1 {
		return 0, &ErrSeqGap{Have: db.replSeq, Want: seq}
	}
	if err := replay(db.tables, ops); err != nil {
		return 0, fmt.Errorf("metadb: apply shipped record %d: %w", seq, err)
	}
	// The tables hold the record now, so the log position does too,
	// even if the WAL append fails.
	db.replSeq, db.replLastEpoch = seq, epoch
	return db.logLocked(commitRecord{Seq: seq, Epoch: epoch, Ops: ops})
}

// WaitWAL blocks until the WAL is durable up to the given wait target
// returned by ApplyShipped (a no-op for 0 or in-memory databases).
// Waiting outside ApplyShipped lets a follower keep applying records
// while a shared fsync is in flight — the same batching the primary
// gets from group commit.
func (db *DB) WaitWAL(wait int64) error {
	if wait == 0 || db.wal == nil {
		return nil
	}
	return db.wal.waitDurable(wait)
}

// StateSnapshot returns the full database state, including the
// replicated-log position, for shipping to a follower that cannot be
// caught up record by record: exactly the bytes a checkpoint would
// write as the snapshot file.
func (db *DB) StateSnapshot() ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, errors.New("metadb: database closed")
	}
	return db.snapshotBytesLocked(), nil
}

// RestoreSnapshot replaces the entire database state with a shipped
// snapshot, discarding any divergent local history. Bytes that fail
// their CRC or do not replay are refused and the tables stay as they
// were. On a durable database the bytes become the snapshot file and
// the WAL is reset, so a crash right after restore recovers the
// restored state. streamEpoch is fenced exactly like ApplyShipped's: a
// deposed primary must not be able to wipe a follower's state any more
// than extend its log.
func (db *DB) RestoreSnapshot(streamEpoch int64, data []byte) error {
	tables, rec, err := snapshotState(data)
	if err != nil {
		return fmt.Errorf("metadb: corrupt shipped snapshot: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("metadb: database closed")
	}
	if streamEpoch < db.replEpoch {
		return &ErrStaleEpoch{Stream: streamEpoch, Current: db.replEpoch}
	}
	db.tables = tables
	db.replSeq = rec.Seq
	db.replLastEpoch = rec.Epoch
	if db.wal == nil {
		return nil
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	return db.writeSnapshotLocked(data)
}
