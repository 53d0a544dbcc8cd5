package metarepl

import (
	"errors"
	"sort"
	"sync"
	"time"

	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/obs"
)

// This file is the primary half of the shipping stream: one shipper
// goroutine per follower owns that follower's connection, handshakes
// to find a common log position (shipping a full snapshot when there
// is none), then streams records and heartbeats while a receive loop
// folds the follower's durable acknowledgements back into the group.

// errResync asks run to tear the connection down and re-handshake.
var errResync = errors.New("metarepl: follower needs resync")

type shipper struct {
	r     *Replica
	peer  int
	epoch int64

	stopOnce sync.Once
	stopCh   chan struct{}
	notifyCh chan struct{}

	mu   sync.Mutex
	conn *mdbnet.ReplConn
}

func newShipper(r *Replica, peer int, epoch int64) *shipper {
	return &shipper{
		r:        r,
		peer:     peer,
		epoch:    epoch,
		stopCh:   make(chan struct{}),
		notifyCh: make(chan struct{}, 1),
	}
}

// notify nudges the send loop that new records are buffered.
func (s *shipper) notify() {
	select {
	case s.notifyCh <- struct{}{}:
	default:
	}
}

// halt stops the shipper and unblocks any in-flight send or receive.
func (s *shipper) halt() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.mu.Unlock()
}

func (s *shipper) stopped() bool {
	select {
	case <-s.stopCh:
		return true
	default:
		return false
	}
}

func (s *shipper) run() {
	defer s.r.wg.Done()
	backoff := 10 * time.Millisecond
	for !s.stopped() {
		if s.r.Role() != Primary {
			return
		}
		conn, err := mdbnet.DialRepl(s.r.cfg.Peers[s.peer], s.r.cfg.Dial)
		if err != nil {
			select {
			case <-s.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff < 320*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = 10 * time.Millisecond
		s.mu.Lock()
		if s.stopped() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conn = conn
		s.mu.Unlock()
		err = s.serve(conn)
		conn.Close()
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		if err != nil && !errors.Is(err, errResync) {
			// Transient transport failure: redial after a beat so a
			// dead follower does not spin the loop.
			select {
			case <-s.stopCh:
				return
			case <-time.After(backoff):
			}
		}
	}
}

// serve runs one connection: handshake, then stream until it breaks.
func (s *shipper) serve(conn *mdbnet.ReplConn) error {
	curSeq, curLast := s.r.db.ReplState()
	err := conn.Send(&mdbnet.ReplMsg{
		Kind: mdbnet.ReplHello, From: s.r.cfg.ID, Epoch: s.epoch,
		Seq: curSeq, LastEpoch: curLast,
	})
	if err != nil {
		return err
	}
	m, err := conn.Recv()
	if err != nil {
		return err
	}
	if m.Kind == mdbnet.ReplError {
		// Fencing: the follower is at a newer epoch; our lease is over.
		// Best-effort persist — stepping down needs no durability, the
		// durable gates are GrantVote and ApplyShipped on the voters.
		_ = s.r.stepTo(m.Epoch, -1, false, true)
		return errors.New(m.Err)
	}
	if m.Kind != mdbnet.ReplAck {
		return errors.New("metarepl: bad handshake reply " + m.Kind)
	}

	next := m.Seq + 1
	caughtUp := m.Seq == curSeq && m.LastEpoch == curLast
	if !caughtUp && !s.r.tailCovers(m.Seq, m.LastEpoch) {
		// The follower's position is unverifiable or out of reach:
		// replace its state wholesale.
		snap, err := s.r.db.StateSnapshot()
		if err != nil {
			return err
		}
		if err := conn.Send(&mdbnet.ReplMsg{
			Kind: mdbnet.ReplSnapshot, From: s.r.cfg.ID, Epoch: s.epoch, Snap: snap,
		}); err != nil {
			return err
		}
		if m, err = conn.Recv(); err != nil {
			return err
		}
		if m.Kind != mdbnet.ReplAck {
			return errors.New("metarepl: bad snapshot reply " + m.Kind)
		}
		next = m.Seq + 1
		s.r.reg.Counter(MetricResyncs).Inc()
		s.r.ev.Emit(obs.EventMetaResync, "metarepl", map[string]string{
			"group": s.r.cfg.Name, "follower": itoa(s.peer), "seq": itoa64(m.Seq),
		})
	}
	s.r.recordAck(s.peer, m.Seq)

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			switch m.Kind {
			case mdbnet.ReplAck:
				s.r.recordAck(s.peer, m.Seq)
			case mdbnet.ReplError:
				_ = s.r.stepTo(m.Epoch, -1, false, true)
				return
			}
		}
	}()

	hb := time.NewTicker(s.r.cfg.Heartbeat)
	defer hb.Stop()
	for {
		batch, ok := s.r.tailFrom(next)
		if !ok {
			return errResync
		}
		for _, rec := range batch {
			if err := conn.Send(&mdbnet.ReplMsg{
				Kind: mdbnet.ReplRecord, From: s.r.cfg.ID,
				Epoch: rec.epoch, Seq: rec.seq, Ops: rec.ops,
			}); err != nil {
				return err
			}
			next = rec.seq + 1
		}
		if len(batch) > 0 {
			s.r.reg.Counter(MetricRecordsShipped).Add(int64(len(batch)))
			continue // drain before sleeping
		}
		select {
		case <-s.stopCh:
			return nil
		case <-recvDone:
			return errors.New("metarepl: follower connection lost")
		case <-s.notifyCh:
		case <-hb.C:
			if err := conn.Send(&mdbnet.ReplMsg{
				Kind: mdbnet.ReplHeartbeat, From: s.r.cfg.ID,
				Epoch: s.epoch, Seq: next - 1,
			}); err != nil {
				return err
			}
		}
	}
}

// tailCovers reports whether streaming can resume for a follower whose
// last record is (lastEpoch, seq): the buffered tail must still hold
// the record at seq to prove the follower's history matches (an empty
// follower just needs the tail to reach back to record 1).
func (r *Replica) tailCovers(seq, lastEpoch int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.shipSeq || len(r.tail) == 0 {
		return false
	}
	if seq == 0 {
		return r.tail[0].seq == 1
	}
	i := sort.Search(len(r.tail), func(i int) bool { return r.tail[i].seq >= seq })
	return i < len(r.tail) && r.tail[i].seq == seq && r.tail[i].epoch == lastEpoch
}

func itoa(v int) string { return itoa64(int64(v)) }
func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
