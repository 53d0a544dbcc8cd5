// Package metarepl makes the catalog an R-way replica group: a
// small log-replication core in the raft family, specialized to the
// metadb WAL (DESIGN.md §13).
//
// One replica holds the primary lease for the group's current epoch.
// It is the only replica whose mdbnet server accepts SQL (the others
// reject with a redirect), and every transaction it commits is shipped
// — in commit order, epoch-stamped — to the followers over the mdbnet
// replication stream. A commit is acknowledged to the client only once
// enough replicas have it durable (majority by default); followers
// apply records to their own metadb and WAL, so any of them can take
// over with a complete acknowledged history.
//
// Failover is an election: when a follower stops hearing heartbeats it
// campaigns at the next epoch, staggered by replica ID so the lowest
// live follower normally wins without split votes. Votes are granted
// at most once per epoch (the epoch is durable before the grant) and
// only to candidates whose log position (last record's epoch, then
// sequence number) is at least the voter's — the raft argument that a
// majority-acknowledged record survives into every electable
// candidate. Epoch stamps fence the deposed: a primary that lost its
// lease has its shipped records and heartbeats rejected with the newer
// epoch, steps down on sight of it, and can never again assemble the
// majority a commit acknowledgement requires.
//
// A follower whose log cannot be extended record by record (it was
// down past the primary's retained tail, or it diverged across a
// failover) is resynchronized with a full state snapshot and then
// streams normally.
package metarepl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/obs"
)

// Replication metric names.
const (
	// MetricShipLag is the primary's view of how many committed
	// records its slowest connected follower still has to acknowledge.
	MetricShipLag = "metarepl_ship_lag"
	// MetricPromotions counts elections won — every failover takeover
	// (the bootstrap of a fresh group is not counted).
	MetricPromotions = "metarepl_promotions_total"
	// MetricRecordsShipped counts records sent to followers (each
	// follower counts separately).
	MetricRecordsShipped = "metarepl_records_shipped_total"
	// MetricResyncs counts full-snapshot resynchronizations of
	// followers that could not be caught up record by record.
	MetricResyncs = "metarepl_resyncs_total"
	// MetricAckTimeouts counts commits that failed because a majority
	// did not acknowledge within the ack timeout.
	MetricAckTimeouts = "metarepl_ack_timeouts_total"
)

// Role is a replica's current position in the group.
type Role int

const (
	// Follower applies shipped records and votes in elections.
	Follower Role = iota
	// Primary holds the epoch's lease: accepts SQL, ships records.
	Primary
)

func (r Role) String() string {
	if r == Primary {
		return "primary"
	}
	return "follower"
}

// Ack selects the durability quorum for commit acknowledgement.
type Ack int

const (
	// AckMajority acknowledges once ceil((R+1)/2) replicas (including
	// the primary) are durable — the default, and the weakest setting
	// that makes an acknowledged commit survive any minority failure.
	AckMajority Ack = iota
	// AckAll waits for every replica; a single dead follower blocks
	// writes, but any single surviving replica has everything.
	AckAll
)

// Config describes one replica's place in its group.
type Config struct {
	// Name labels the group in events and logs (e.g. "meta").
	Name string
	// ID is this replica's index into Peers/SQLAddrs.
	ID int
	// Peers lists the replication-stream addresses of every group
	// member, index-aligned across all replicas.
	Peers []string
	// SQLAddrs lists the client-facing mdbnet addresses, index-aligned
	// with Peers; followers put SQLAddrs[leader] in their redirects.
	SQLAddrs []string
	// DB is this replica's database.
	DB *metadb.DB
	// Listener, when set, is a pre-bound replication listener (tests
	// bind ephemeral ports before assembling Peers). Nil listens on
	// Peers[ID].
	Listener *mdbnet.ReplListener
	// Ack is the commit-acknowledgement quorum (default AckMajority).
	Ack Ack
	// Heartbeat is the primary's keep-alive interval (default 25ms).
	Heartbeat time.Duration
	// ElectionTimeout is the base silence a follower tolerates before
	// campaigning; replica i waits ElectionTimeout + i*ElectionTimeout/2,
	// so the lowest live follower campaigns first (default 150ms).
	ElectionTimeout time.Duration
	// AckTimeout bounds how long a commit waits for its quorum before
	// failing with "commit not replicated" (default 5s).
	AckTimeout time.Duration
	// Dial overrides the replication-stream transport (fault
	// injection, tests).
	Dial mdbnet.DialFunc
	// Registry receives the metarepl_* metrics (default: a private
	// registry, reachable via Metrics).
	Registry *obs.Registry
	// Events receives promotion/step-down/resync events (default: the
	// process-wide log).
	Events *obs.EventLog
}

// record is one buffered log entry awaiting shipment.
type record struct {
	seq   int64
	epoch int64
	ops   []metadb.RedoOp
}

// tailCap bounds the primary's in-memory record tail; followers that
// fall further behind are resynced by snapshot.
const tailCap = 4096

// Replica is one member of a catalog replica group. Create with New,
// then Start (or Bootstrap on the designated first primary of a fresh
// group), and wire Gate into the replica's mdbnet server.
type Replica struct {
	cfg Config
	db  *metadb.DB
	lis *mdbnet.ReplListener
	reg *obs.Registry
	ev  *obs.EventLog

	mu        sync.Mutex
	role      Role
	epoch     int64
	leader    int // replica ID holding the lease; -1 while unknown
	lastHeard time.Time
	closed    bool
	stop      chan struct{}
	conns     map[*mdbnet.ReplConn]struct{} // accepted, still-open connections

	// Primary state.
	shipSeq  int64         // last committed (and buffered) sequence number
	tail     []record      // recent records; tail[0].seq..shipSeq contiguous
	acked    map[int]int64 // per-follower durable watermark
	ackWake  chan struct{} // closed+replaced whenever acked/role changes
	shippers map[int]*shipper

	// Follower state. Acknowledgements must never over-report
	// durability, so the stream handler tracks the highest group-commit
	// wait target still possibly in flight (applyWait) and the highest
	// sequence number proven durable (durableSeq).
	applyWait  int64
	durableSeq int64

	wg sync.WaitGroup
}

// New creates a replica. It does not touch the network until Start.
func New(cfg Config) (*Replica, error) {
	if cfg.ID < 0 || cfg.ID >= len(cfg.Peers) {
		return nil, fmt.Errorf("metarepl: ID %d outside peer list of %d", cfg.ID, len(cfg.Peers))
	}
	if len(cfg.SQLAddrs) != 0 && len(cfg.SQLAddrs) != len(cfg.Peers) {
		return nil, fmt.Errorf("metarepl: %d SQL addresses for %d peers", len(cfg.SQLAddrs), len(cfg.Peers))
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("metarepl: nil DB")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 25 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = obs.Events()
	}
	lis := cfg.Listener
	if lis == nil {
		var err error
		lis, err = mdbnet.ListenRepl(cfg.Peers[cfg.ID])
		if err != nil {
			return nil, err
		}
	}
	epoch, leader := cfg.DB.ReplEpoch()
	if epoch == 0 {
		leader = -1 // a group that never had a primary has no leader
	}
	r := &Replica{
		cfg:       cfg,
		db:        cfg.DB,
		lis:       lis,
		reg:       cfg.Registry,
		ev:        cfg.Events,
		role:      Follower,
		epoch:     epoch,
		leader:    leader,
		lastHeard: time.Now(),
		stop:      make(chan struct{}),
		conns:     make(map[*mdbnet.ReplConn]struct{}),
		acked:     make(map[int]int64),
		ackWake:   make(chan struct{}),
	}
	if len(cfg.Peers) == 1 {
		r.leader = cfg.ID
	}
	return r, nil
}

// Metrics returns the replica's metric registry.
func (r *Replica) Metrics() *obs.Registry { return r.reg }

// Addr returns the replication-stream listen address.
func (r *Replica) Addr() string { return r.lis.Addr() }

// Start begins serving the replication protocol: accepting streams and
// votes, and campaigning when the primary goes silent.
func (r *Replica) Start() {
	r.wg.Add(2)
	go r.acceptLoop()
	go r.electionLoop()
}

// Bootstrap makes this replica the primary of a brand-new group at
// epoch 1 without an election. Only valid when the group has never had
// a primary (durable epoch 0); restarted replicas must rejoin as
// followers and let elections decide.
func (r *Replica) Bootstrap() error {
	if epoch, _ := r.db.ReplEpoch(); epoch != 0 {
		return fmt.Errorf("metarepl: bootstrap of a group already at epoch %d", epoch)
	}
	return r.becomePrimary(1, false)
}

// Role returns the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Epoch returns the replica's current epoch and the lease holder it
// believes in (-1 while unknown).
func (r *Replica) Epoch() (int64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.leader
}

// Gate returns the admission check for this replica's mdbnet server:
// nil for the primary, a NotPrimaryError redirect for followers and for
// a closed replica, whose commits would no longer be shipped.
func (r *Replica) Gate() func() error {
	return func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.role == Primary && !r.closed {
			return nil
		}
		addr := ""
		if r.leader >= 0 && r.leader < len(r.cfg.SQLAddrs) && r.leader != r.cfg.ID {
			addr = r.cfg.SQLAddrs[r.leader]
		}
		return mdbnet.NotPrimaryError(addr, r.epoch)
	}
}

// Close stops the replica: listener, shippers, election timer. The
// database is left open (and with its replication hooks removed).
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stop)
	shippers := r.shippers
	r.shippers = nil
	conns := make([]*mdbnet.ReplConn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.wake()
	r.mu.Unlock()

	r.db.SetReplHooks(nil)
	err := r.lis.Close()
	for _, s := range shippers {
		s.halt()
	}
	// Accepted streams block in Recv; closing them lets their handlers
	// drain so Wait below terminates.
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
	return err
}

// track registers an accepted connection for shutdown; it reports
// false (and closes the connection) when the replica is already
// closed.
func (r *Replica) track(c *mdbnet.ReplConn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[c] = struct{}{}
	return true
}

func (r *Replica) untrack(c *mdbnet.ReplConn) {
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
}

// wake releases every goroutine waiting on acked/role changes. Caller
// holds r.mu.
func (r *Replica) wake() {
	close(r.ackWake)
	r.ackWake = make(chan struct{})
}

// quorum is the number of durable replicas (including the primary) a
// commit acknowledgement requires.
func (r *Replica) quorum() int {
	if r.cfg.Ack == AckAll {
		return len(r.cfg.Peers)
	}
	return len(r.cfg.Peers)/2 + 1
}

// ---------------------------------------------------------------------
// Primary side: shipping and commit acknowledgement.

// onShip is the metadb commit hook: called under the database write
// lock in commit order. It only buffers and notifies.
func (r *Replica) onShip(seq, epoch int64, ops []metadb.RedoOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != Primary {
		return
	}
	r.tail = append(r.tail, record{seq: seq, epoch: epoch, ops: ops})
	if len(r.tail) > tailCap {
		r.tail = r.tail[len(r.tail)-tailCap:]
	}
	r.shipSeq = seq
	r.updateLagLocked()
	for _, s := range r.shippers {
		s.notify()
	}
}

// onAck is the metadb acknowledgement gate: block until the commit's
// quorum is durable.
func (r *Replica) onAck(seq int64) error {
	deadline := time.Now().Add(r.cfg.AckTimeout)
	r.mu.Lock()
	for {
		if r.closed {
			// Close fires r.stop, which would otherwise turn the select
			// below into a busy loop (role stays Primary, quorum never
			// arrives); fail the commit immediately instead.
			r.mu.Unlock()
			return fmt.Errorf("metarepl: replica closed before seq %d reached a majority", seq)
		}
		if r.role != Primary {
			epoch := r.epoch
			r.mu.Unlock()
			return fmt.Errorf("metarepl: deposed at epoch %d before seq %d reached a majority", epoch, seq)
		}
		count := 1 // self: locally durable before Ack runs
		for _, a := range r.acked {
			if a >= seq {
				count++
			}
		}
		if count >= r.quorum() {
			r.mu.Unlock()
			return nil
		}
		if !time.Now().Before(deadline) {
			r.mu.Unlock()
			r.reg.Counter(MetricAckTimeouts).Inc()
			return fmt.Errorf("metarepl: seq %d not on a majority within %v (%d/%d durable)",
				seq, r.cfg.AckTimeout, count, r.quorum())
		}
		ch := r.ackWake
		r.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
		case <-r.stop:
		}
		r.mu.Lock()
	}
}

// updateLagLocked refreshes the ship-lag gauge: records the slowest
// follower still owes. Caller holds r.mu.
func (r *Replica) updateLagLocked() {
	if r.role != Primary || len(r.cfg.Peers) == 1 {
		return
	}
	min := int64(-1)
	for id, a := range r.acked {
		if id == r.cfg.ID {
			continue
		}
		if min < 0 || a < min {
			min = a
		}
	}
	if min < 0 {
		min = 0
	}
	lag := r.shipSeq - min
	if lag < 0 {
		lag = 0
	}
	r.reg.Gauge(MetricShipLag).Set(lag)
}

// becomePrimary installs this replica as the epoch's lease holder:
// durable epoch, replication hooks, one shipper per follower.
func (r *Replica) becomePrimary(epoch int64, elected bool) error {
	if err := r.db.SetReplEpoch(epoch, r.cfg.ID); err != nil {
		return err
	}
	seq, last := r.db.ReplState()

	r.mu.Lock()
	if r.closed || epoch < r.epoch {
		r.mu.Unlock()
		return fmt.Errorf("metarepl: lost epoch %d before takeover", epoch)
	}
	r.role = Primary
	r.epoch = epoch
	r.leader = r.cfg.ID
	r.shipSeq = seq
	r.tail = nil
	if seq > 0 {
		// Seed the tail with a boundary marker — the last record's
		// position, no ops. A follower handshaking at exactly (seq,
		// last) after new commits have moved shipSeq on can then verify
		// its history against the marker and resume streaming, instead
		// of taking a full snapshot on every routine failover. The
		// marker itself is never shipped: any follower that passes
		// tailCovers is at seq or beyond, so streaming starts at seq+1.
		r.tail = []record{{seq: seq, epoch: last}}
	}
	r.acked = make(map[int]int64)
	r.shippers = make(map[int]*shipper)
	for id := range r.cfg.Peers {
		if id == r.cfg.ID {
			continue
		}
		s := newShipper(r, id, epoch)
		r.shippers[id] = s
		r.wg.Add(1)
		go s.run()
	}
	r.wake()
	r.mu.Unlock()

	// The primary's own SQL gate opens via role; hooks make commits
	// ship and wait for their quorum.
	r.db.SetReplHooks(&metadb.ReplHooks{Ship: r.onShip, Ack: r.onAck})
	if elected {
		r.reg.Counter(MetricPromotions).Inc()
		r.ev.Emit(obs.EventMetaPromotion, "metarepl", map[string]string{
			"group":   r.cfg.Name,
			"replica": fmt.Sprint(r.cfg.ID),
			"epoch":   fmt.Sprint(epoch),
			"seq":     fmt.Sprint(seq),
		})
	}
	return nil
}

// stepTo adopts a (higher or equal) epoch as a follower. leader is the
// epoch's known lease holder or -1. Demotes a primary, halts its
// shippers, fails its pending acknowledgements.
//
// persist controls whether a higher epoch is durably recorded; pass
// false when the caller already persisted it (the vote path, via
// metadb.GrantVote). The returned error is a genuine persistence
// failure only — a concurrent adoption of an even higher epoch is a
// benign lost race and reported as nil. Callers that go on to
// acknowledge anything at the new epoch (the stream handler) must
// abort on error; callers merely reacting to a fence may ignore it,
// because vote and apply safety rest on the durable writes inside
// metadb.GrantVote and ApplyShipped, not on this one.
func (r *Replica) stepTo(epoch int64, leader int, heard, persist bool) error {
	r.mu.Lock()
	if epoch < r.epoch || r.closed {
		r.mu.Unlock()
		return nil
	}
	wasPrimary := r.role == Primary && epoch > r.epoch
	if r.role == Primary && !wasPrimary {
		// Same epoch as our own lease: nothing to adopt.
		r.mu.Unlock()
		return nil
	}
	higher := epoch > r.epoch
	r.role = Follower
	r.epoch = epoch
	if leader >= 0 || higher {
		r.leader = leader
	}
	if heard {
		r.lastHeard = time.Now()
	}
	var shippers map[int]*shipper
	if wasPrimary {
		shippers = r.shippers
		r.shippers = nil
	}
	r.wake()
	r.mu.Unlock()

	if wasPrimary {
		r.db.SetReplHooks(nil)
		for _, s := range shippers {
			s.halt()
		}
		r.ev.Emit(obs.EventMetaStepDown, "metarepl", map[string]string{
			"group":   r.cfg.Name,
			"replica": fmt.Sprint(r.cfg.ID),
			"epoch":   fmt.Sprint(epoch),
		})
	}
	if higher && persist {
		// Durable before anything is acknowledged at the new epoch. A
		// concurrent adoption of an even higher epoch wins the race and
		// surfaces as a regression error — the correct outcome, not a
		// failure. Anything else is an I/O problem the caller must see.
		if err := r.db.SetReplEpoch(epoch, maxInt(leader, -1)); err != nil {
			var reg *metadb.ErrEpochRegression
			if !errors.As(err, &reg) {
				return err
			}
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// tailFrom copies buffered records with seq >= from. The second return
// is false when the tail no longer reaches back that far (snapshot
// needed). Caller must not hold r.mu.
func (r *Replica) tailFrom(from int64) ([]record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from > r.shipSeq {
		return nil, from == r.shipSeq+1
	}
	if len(r.tail) == 0 || r.tail[0].seq > from {
		return nil, false
	}
	i := sort.Search(len(r.tail), func(i int) bool { return r.tail[i].seq >= from })
	out := make([]record, len(r.tail)-i)
	copy(out, r.tail[i:])
	return out, true
}

// recordAck folds a follower's durable watermark in and wakes
// acknowledgement waiters.
func (r *Replica) recordAck(peer int, seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.acked[peer] {
		r.acked[peer] = seq
		r.updateLagLocked()
		r.wake()
	}
}
