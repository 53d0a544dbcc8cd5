package metarepl

import (
	"errors"
	"fmt"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
)

// This file is the serving half of a replica: every replication
// connection its SQL server hands over is either a vote request
// (answered and closed) or a shipping stream from the primary (applied
// until it breaks). Both paths enforce epoch fencing — anything from an
// epoch older than ours is rejected with the newer epoch so the deposed
// sender steps down.

// ServeRepl serves one handed-over replication conn from its first
// message m on (mdbnet.ReplHandler); the conn closes when it returns.
func (r *Replica) ServeRepl(conn *mdbnet.ReplConn, m *mdbnet.ReplMsg) {
	switch m.Kind {
	case mdbnet.ReplVoteReq:
		r.handleVote(conn, m)
	case mdbnet.ReplHello:
		r.handleStream(conn, m)
	}
}

// handleVote answers one vote request. The whole decision lives in
// metadb.GrantVote, under the same lock as record application, so both
// election-safety conditions hold atomically (DESIGN.md §13):
//
//   - the candidate's epoch is strictly newer than any epoch this
//     replica has durably seen — and the adoption is persisted before
//     the grant leaves, so one epoch can never collect two votes from
//     the same replica, not even across a crash;
//   - the candidate's log position (last record epoch, then sequence
//     number) is at least this replica's *at the moment of the grant* —
//     a shipped record either lands before the comparison (and counts
//     against the candidate) or after the epoch adoption (and is
//     fenced by ApplyShipped, never acknowledged). A persistence
//     failure refuses the vote rather than granting on a promise the
//     disk did not keep.
func (r *Replica) handleVote(conn *mdbnet.ReplConn, m *mdbnet.ReplMsg) {
	_, _, granted, err := r.db.GrantVote(m.Epoch, m.Seq, m.LastEpoch)
	if err != nil || !granted {
		epoch, _ := r.db.ReplEpoch()
		_ = conn.Send(&mdbnet.ReplMsg{Kind: mdbnet.ReplVote, From: r.cfg.ID, Epoch: epoch, Ok: false})
		return
	}
	// The grant is durable; adopt it in memory too (demoting a primary,
	// resetting the election clock so the candidate gets a full round
	// before this voter campaigns itself). No second persist needed.
	_ = r.stepTo(m.Epoch, -1, true, false)
	_ = conn.Send(&mdbnet.ReplMsg{Kind: mdbnet.ReplVote, From: r.cfg.ID, Epoch: m.Epoch, Ok: true})
}

// handleStream serves one shipping stream from a primary: handshake
// (report our durable position, or receive a snapshot), then apply
// records in order. Applying and acknowledging are pipelined — the
// receive loop hands each applied record's group-commit wait target to
// an acker goroutine, so the follower keeps applying while a shared
// fsync is in flight and its WAL batches exactly like the primary's.
func (r *Replica) handleStream(conn *mdbnet.ReplConn, hello *mdbnet.ReplMsg) {
	r.mu.Lock()
	cur := r.epoch
	amPrimary := r.role == Primary
	r.mu.Unlock()
	if hello.Epoch < cur || (hello.Epoch == cur && amPrimary) {
		_ = conn.Send(&mdbnet.ReplMsg{
			Kind: mdbnet.ReplError, From: r.cfg.ID, Epoch: cur,
			Err: fmt.Sprintf("metarepl: stale epoch %d (current %d)", hello.Epoch, cur),
		})
		return
	}
	// The stream's epoch must be durable before any record from it is
	// acknowledged: an ack at epoch e promises "I will never vote at
	// e", and GrantVote enforces that promise against the durable
	// epoch. A persistence failure therefore rejects the stream.
	if err := r.stepTo(hello.Epoch, hello.From, true, true); err != nil {
		_ = conn.Send(&mdbnet.ReplMsg{
			Kind: mdbnet.ReplError, From: r.cfg.ID, Epoch: cur,
			Err: fmt.Sprintf("metarepl: cannot adopt epoch %d: %v", hello.Epoch, err),
		})
		return
	}
	r.mu.Lock()
	adopted := r.epoch == hello.Epoch
	cur = r.epoch
	wait := r.applyWait
	r.mu.Unlock()
	if !adopted {
		_ = conn.Send(&mdbnet.ReplMsg{
			Kind: mdbnet.ReplError, From: r.cfg.ID, Epoch: cur,
			Err: fmt.Sprintf("metarepl: stale epoch %d (current %d)", hello.Epoch, cur),
		})
		return
	}

	// Handshake ack: report a position that is proven durable. Records
	// applied by an earlier stream may still await their shared fsync,
	// so settle the outstanding wait target first.
	if err := r.db.WaitWAL(wait); err != nil {
		return
	}
	seq, last := r.db.ReplState()
	r.setDurable(seq)
	if err := conn.Send(&mdbnet.ReplMsg{
		Kind: mdbnet.ReplAck, From: r.cfg.ID, Epoch: hello.Epoch, Seq: seq, LastEpoch: last,
	}); err != nil {
		return
	}

	type applied struct{ seq, wait int64 }
	ackCh := make(chan applied, 256)
	ackerDone := make(chan struct{})
	go func() {
		defer close(ackerDone)
		for p := range ackCh {
			if err := r.db.WaitWAL(p.wait); err != nil {
				return
			}
			r.setDurable(p.seq)
			if err := conn.Send(&mdbnet.ReplMsg{
				Kind: mdbnet.ReplAck, From: r.cfg.ID, Epoch: hello.Epoch, Seq: p.seq,
			}); err != nil {
				return
			}
		}
	}()
	defer func() {
		close(ackCh)
		<-ackerDone
	}()

	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		r.mu.Lock()
		cur = r.epoch
		r.lastHeard = time.Now()
		r.mu.Unlock()
		if cur > hello.Epoch {
			// A newer primary took over mid-stream; fence this one off.
			_ = conn.Send(&mdbnet.ReplMsg{
				Kind: mdbnet.ReplError, From: r.cfg.ID, Epoch: cur,
				Err: fmt.Sprintf("metarepl: stale epoch %d (current %d)", hello.Epoch, cur),
			})
			return
		}
		switch m.Kind {
		case mdbnet.ReplRecord:
			// ApplyShipped re-checks the stream epoch against the
			// durable epoch under the database lock — the authoritative
			// fence; the r.mu check above is only a fast path.
			w, err := r.db.ApplyShipped(hello.Epoch, m.Seq, m.Epoch, m.Ops)
			if err != nil {
				// A stale stream epoch means a newer primary won a vote
				// here mid-stream: fence the deposed sender explicitly.
				// Anything else (sequence gap, apply failure) just drops
				// the stream; the primary re-handshakes and resyncs.
				var stale *metadb.ErrStaleEpoch
				if errors.As(err, &stale) {
					_ = conn.Send(&mdbnet.ReplMsg{
						Kind: mdbnet.ReplError, From: r.cfg.ID, Epoch: stale.Current,
						Err: fmt.Sprintf("metarepl: stale epoch %d (current %d)", hello.Epoch, stale.Current),
					})
				}
				return
			}
			r.noteApplyWait(w)
			select {
			case ackCh <- applied{seq: m.Seq, wait: w}:
			case <-ackerDone:
				return
			}
		case mdbnet.ReplSnapshot:
			if err := r.db.RestoreSnapshot(hello.Epoch, m.Snap); err != nil {
				var stale *metadb.ErrStaleEpoch
				if errors.As(err, &stale) {
					_ = conn.Send(&mdbnet.ReplMsg{
						Kind: mdbnet.ReplError, From: r.cfg.ID, Epoch: stale.Current,
						Err: fmt.Sprintf("metarepl: stale epoch %d (current %d)", hello.Epoch, stale.Current),
					})
				}
				return
			}
			sseq, slast := r.db.ReplState()
			r.setDurable(sseq)
			if err := conn.Send(&mdbnet.ReplMsg{
				Kind: mdbnet.ReplAck, From: r.cfg.ID, Epoch: hello.Epoch, Seq: sseq, LastEpoch: slast,
			}); err != nil {
				return
			}
		case mdbnet.ReplHeartbeat:
			// Re-ack the durable watermark so the primary's lag gauge
			// stays honest through quiet periods.
			r.mu.Lock()
			dseq := r.durableSeq
			r.mu.Unlock()
			if err := conn.Send(&mdbnet.ReplMsg{
				Kind: mdbnet.ReplAck, From: r.cfg.ID, Epoch: hello.Epoch, Seq: dseq,
			}); err != nil {
				return
			}
		}
	}
}

// noteApplyWait records an in-flight group-commit wait target so a
// future handshake can settle it before reporting durability.
func (r *Replica) noteApplyWait(wait int64) {
	if wait == 0 {
		return
	}
	r.mu.Lock()
	if wait > r.applyWait {
		r.applyWait = wait
	}
	r.mu.Unlock()
}

// setDurable raises the proven-durable watermark.
func (r *Replica) setDurable(seq int64) {
	r.mu.Lock()
	if seq > r.durableSeq {
		r.durableSeq = seq
	}
	r.mu.Unlock()
}
