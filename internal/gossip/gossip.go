// Package gossip implements decentralized membership and failure
// detection for the DPFS I/O servers (DESIGN.md §14, ROADMAP item 2).
//
// Every dpfs-server runs a Node: a seeded, deterministic Brahms-style
// push/pull core (View + min-wise Sampler + alpha/beta/gamma Params)
// whose node ID is the server's advertised address. Each round a node
// pushes its identity to a few peers, pulls views and health tables
// from a few more, and rebuilds its view from a weighted mix of
// pushed IDs, pulled IDs and the sampler — the construction from
// "Brahms: Byzantine Resilient Random Membership Sampling" that keeps
// views connected and near-uniform even when some peers misbehave.
//
// Riding on the membership exchange is a SWIM-style health table:
// incarnation-numbered records (alive / suspect / dead / draining)
// carrying each server's health counters. Higher incarnations win; at
// equal incarnations the more severe state wins and suspect records
// union their observer sets. A node that hears itself suspected bumps
// its own incarnation and re-announces — the classic refutation rule
// that lets a merely slow or partially partitioned server clear its
// name without any central coordinator.
//
// The gossip table is the second witness for repair's dead
// escalation (internal/repair) and the source of the server-table
// deltas piggybacked on RPC responses (internal/server, internal/
// core). Exchanges between servers ride the data port as
// wire.OpGossip requests (transport.go).
package gossip

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dpfs/internal/obs"
)

// States a health record can announce. Severity ascends: a record in
// a later state wins a merge against an earlier state at the same
// incarnation.
const (
	// StateAlive is the default healthy state.
	StateAlive = "alive"
	// StateDraining marks a server that announced a graceful
	// shutdown; it still answers but should be avoided for new work.
	StateDraining = "draining"
	// StateSuspect marks a server that one or more gossip observers
	// failed to exchange with. Suspicion is reversible: the suspect
	// refutes by bumping its incarnation.
	StateSuspect = "suspect"
	// StateDead marks a server confirmed dead. Gossip never produces
	// dead on its own authority — only the repair prober's two-witness
	// escalation injects it (DESIGN.md §14).
	StateDead = "dead"
)

// maxObservers bounds the observer set carried by a suspect record;
// beyond this many distinct witnesses the set carries no extra
// signal.
const maxObservers = 16

// Record is one server's entry in the gossip health table. Records
// are ordered by incarnation: a server re-announcing itself bumps
// Inc, which beats every record from its previous life.
type Record struct {
	// Addr is the node ID: the server's advertised dial address.
	Addr string
	// Name is the server's catalog name (may equal Addr).
	Name string
	// Inc is the record's incarnation number.
	Inc int64
	// State is one of StateAlive, StateDraining, StateSuspect,
	// StateDead.
	State string
	// DiskErrors and CopyPeerErrors snapshot the server's health
	// counters at announcement time.
	DiskErrors     int64
	CopyPeerErrors int64
	// Observers lists the distinct node IDs that independently
	// suspected this server (bounded, sorted). Only meaningful for
	// StateSuspect.
	Observers []string
}

// prec ranks states for same-incarnation merges.
func prec(state string) int {
	switch state {
	case StateDraining:
		return 1
	case StateSuspect:
		return 2
	case StateDead:
		return 3
	default:
		return 0
	}
}

// Params are the Brahms mixing weights and fanouts. Alpha, Beta and
// Gamma are the view fractions rebuilt from pushed IDs, pulled IDs
// and the sampler; L1 is the push/pull fanout and L2 the sampler
// size.
type Params struct {
	Alpha, Beta, Gamma float64
	L1, L2             int
}

// DefaultParams returns the canonical Brahms weights (0.45, 0.45,
// 0.1) with fanouts scaled to n^(1/3) for an expected network of n
// nodes, following the paper's sizing.
func DefaultParams(n int) Params {
	if n < 2 {
		n = 2
	}
	l := int(math.Round(math.Pow(float64(n), 1.0/3)))
	if l < 2 {
		l = 2
	}
	return Params{Alpha: 0.45, Beta: 0.45, Gamma: 0.1, L1: l, L2: l * 2}
}

// Message kinds exchanged between nodes.
const (
	// KindPush announces the sender's ID and a few records; no reply.
	KindPush = 1
	// KindPull requests the receiver's view and health table.
	KindPull = 2
	// KindReply answers a pull.
	KindReply = 3
)

// Message is one gossip exchange payload, encoded into an OpGossip
// request (encodeMessage) on the wire transport and passed by pointer
// on the in-memory one.
type Message struct {
	// Kind is KindPush, KindPull or KindReply.
	Kind int
	// From is the sender's node ID.
	From string
	// IDs carries view member IDs (pull replies).
	IDs []string
	// Recs carries health records: the sender's own record plus a
	// bounded slice of its table.
	Recs []Record
}

// Transport delivers one gossip exchange. Push messages ignore the
// reply; pull messages expect a KindReply. Implementations must be
// safe for concurrent use.
type Transport interface {
	Exchange(ctx context.Context, to string, msg *Message) (*Message, error)
}

// Metric names registered by a Node (frozen in
// scripts/metric_names.txt; obslint gates renames).
const (
	// MetricRounds counts completed gossip rounds.
	MetricRounds = "gossip_rounds_total"
	// MetricExchanges counts attempted push/pull exchanges.
	MetricExchanges = "gossip_exchanges_total"
	// MetricExchangeErrors counts exchanges that failed at the
	// transport level (each marks the peer suspect).
	MetricExchangeErrors = "gossip_exchange_errors_total"
	// MetricRefutations counts incarnation bumps made to refute a
	// suspicion about ourselves.
	MetricRefutations = "gossip_refutations_total"
	// MetricMerges counts records that changed the local table.
	MetricMerges = "gossip_records_merged_total"
	// MetricMembers gauges the table size (all known servers).
	MetricMembers = "gossip_members"
	// MetricSuspects gauges how many table entries are currently
	// suspect or dead.
	MetricSuspects = "gossip_suspects"
)

// entry is a table record plus the local version stamp used for
// delta extraction.
type entry struct {
	rec Record
	ver uint64
}

// Config configures a Node.
type Config struct {
	// Self seeds the node's own record; Addr is required and becomes
	// the node ID.
	Self Record
	// Seeds are peer addresses used to bootstrap the view.
	Seeds []string
	// Seed seeds the node's deterministic RNG.
	Seed int64
	// Params are the Brahms weights; zero value selects
	// DefaultParams(64).
	Params Params
	// Transport delivers exchanges. Required.
	Transport Transport
	// Metrics and Events are optional observability sinks.
	Metrics *obs.Registry
	Events  *obs.EventLog
	// SelfUpdate, when non-nil, is applied to the node's own record
	// at the start of every Step — the hook a server uses to feed its
	// health counters into the gossip plane without polling.
	SelfUpdate func(*Record)
}

// Node is one gossip participant. All methods are safe for
// concurrent use; Step and HandleMessage may be driven manually for
// deterministic simulation or via Run for background operation.
type Node struct {
	mu      sync.Mutex
	rnd     *rand.Rand
	tr      Transport
	params  Params
	self    string
	view    map[string]struct{}
	sampler *sampler
	table   map[string]*entry
	version uint64
	pushed  []string
	reg     *obs.Registry
	events  *obs.EventLog
	rounds  int64

	selfUpdate func(*Record)
}

// NewNode builds a gossip node from cfg. The view starts from
// cfg.Seeds (self excluded); the health table starts with the self
// record at incarnation cfg.Self.Inc in StateAlive unless the record
// says otherwise.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self.Addr == "" {
		return nil, fmt.Errorf("gossip: Config.Self.Addr is required")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gossip: Config.Transport is required")
	}
	p := cfg.Params
	if p.L1 <= 0 {
		p = DefaultParams(64)
	}
	if cfg.Self.State == "" {
		cfg.Self.State = StateAlive
	}
	if cfg.Self.Name == "" {
		cfg.Self.Name = cfg.Self.Addr
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	n := &Node{
		rnd:     rnd,
		tr:      cfg.Transport,
		params:  p,
		self:    cfg.Self.Addr,
		view:    make(map[string]struct{}),
		sampler: newSampler(rnd, p.L2),
		table:   make(map[string]*entry),
		reg:     cfg.Metrics,
		events:  cfg.Events,

		selfUpdate: cfg.SelfUpdate,
	}
	n.version++
	n.table[n.self] = &entry{rec: cfg.Self, ver: n.version}
	for _, s := range cfg.Seeds {
		if s != "" && s != n.self {
			n.view[s] = struct{}{}
			n.sampler.update(s)
		}
	}
	n.updateGauges()
	return n, nil
}

// Self returns the node's ID (its advertised address).
func (n *Node) Self() string { return n.self }

// Version returns the table version: a counter bumped on every table
// mutation, used to cut per-connection deltas.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Rounds returns how many gossip rounds this node has completed.
func (n *Node) Rounds() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rounds
}

// Snapshot returns a copy of the health table sorted by address.
func (n *Node) Snapshot() []Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Record, 0, len(n.table))
	for _, e := range n.table {
		out = append(out, cloneRecord(e.rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Lookup returns the table record for addr, if any.
func (n *Node) Lookup(addr string) (Record, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.table[addr]
	if !ok {
		return Record{}, false
	}
	return cloneRecord(e.rec), true
}

// ViewIDs returns the current view members, sorted.
func (n *Node) ViewIDs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return sortedKeys(n.view)
}

// UpdateSelf mutates the node's own record under the table lock.
// Entering or leaving StateDraining bumps the incarnation so the
// announcement beats any circulating record from the previous state.
func (n *Node) UpdateSelf(fn func(*Record)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.updateSelfLocked(fn)
}

func (n *Node) updateSelfLocked(fn func(*Record)) {
	e := n.table[n.self]
	before := cloneRecord(e.rec)
	fn(&e.rec)
	e.rec.Addr = n.self // the ID is immutable
	if e.rec.State != before.State {
		e.rec.Inc = before.Inc + 1
	}
	if !recordsEqual(e.rec, before) {
		n.version++
		e.ver = n.version
	}
	n.updateGauges()
}

// Inject merges an externally produced record — the hook the repair
// prober uses to spread a two-witness-confirmed dead verdict (or a
// catalog-sourced membership seed) through the gossip plane.
func (n *Node) Inject(rec Record) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mergeLocked(rec)
	n.updateGauges()
}

// SuspectedBy returns the distinct observers currently suspecting
// addr (nil when the record is not suspect).
func (n *Node) SuspectedBy(addr string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.table[addr]
	if !ok || e.rec.State != StateSuspect {
		return nil
	}
	return append([]string(nil), e.rec.Observers...)
}

// Step runs one gossip round: push to L1 view members, pull from L1
// view members, then rebuild the view from the alpha/beta/gamma mix
// of pushed IDs, pulled IDs and sampler output. Exchange failures
// mark the peer suspect with this node as the observer. Step is
// synchronous and deterministic given a deterministic Transport.
func (n *Node) Step(ctx context.Context) {
	n.mu.Lock()
	if n.selfUpdate != nil {
		n.updateSelfLocked(n.selfUpdate)
	}
	pushTargets := n.pickLocked(n.params.L1)
	pullTargets := n.pickLocked(n.params.L1)
	pushMsg := &Message{Kind: KindPush, From: n.self, Recs: n.pushRecsLocked()}
	pullMsg := &Message{Kind: KindPull, From: n.self, Recs: []Record{cloneRecord(n.table[n.self].rec)}}
	n.mu.Unlock()

	var pulledIDs []string
	var pulledRecs []Record
	failed := make(map[string]struct{})
	for _, to := range pushTargets {
		n.count(MetricExchanges)
		if _, err := n.tr.Exchange(ctx, to, pushMsg); err != nil {
			n.count(MetricExchangeErrors)
			failed[to] = struct{}{}
		}
	}
	for _, to := range pullTargets {
		n.count(MetricExchanges)
		reply, err := n.tr.Exchange(ctx, to, pullMsg)
		if err != nil || reply == nil {
			if err != nil {
				n.count(MetricExchangeErrors)
			}
			failed[to] = struct{}{}
			continue
		}
		pulledIDs = append(pulledIDs, reply.IDs...)
		pulledRecs = append(pulledRecs, reply.Recs...)
	}

	n.mu.Lock()
	for addr := range failed {
		n.suspectLocked(addr)
	}
	for _, rec := range pulledRecs {
		n.mergeLocked(rec)
	}
	pushedIDs := n.pushed
	n.pushed = nil
	n.rebuildViewLocked(pushedIDs, pulledIDs)
	n.rounds++
	n.updateGauges()
	n.mu.Unlock()
	n.count(MetricRounds)
}

// Run drives Step at the given interval (with up to 25% deterministic
// jitter per tick so a fleet started together does not synchronize)
// until ctx is cancelled.
func (n *Node) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	for {
		n.mu.Lock()
		jitter := time.Duration(n.rnd.Int63n(int64(interval)/4 + 1))
		n.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval + jitter):
		}
		n.Step(ctx)
	}
}

// HandleMessage merges an incoming message into the node and returns
// the reply (nil for pushes). Transports call this on the receiving
// side.
func (n *Node) HandleMessage(msg *Message) *Message {
	if msg == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, rec := range msg.Recs {
		n.mergeLocked(rec)
	}
	switch msg.Kind {
	case KindPush:
		if msg.From != "" && msg.From != n.self {
			if len(n.pushed) < maxPushBuffer {
				n.pushed = append(n.pushed, msg.From)
			}
			n.sampler.update(msg.From)
		}
		n.updateGauges()
		return nil
	case KindPull:
		ids := sortedKeys(n.view)
		if len(ids) > maxReplyIDs {
			ids = ids[:maxReplyIDs]
		}
		reply := &Message{Kind: KindReply, From: n.self, IDs: ids, Recs: n.tableRecsLocked(maxRecordsPerMessage)}
		n.updateGauges()
		return reply
	default:
		n.updateGauges()
		return nil
	}
}

// Bounds on message contents: gossip messages must stay small no
// matter how large the cluster grows, so tables are sampled rather
// than shipped whole past these caps.
const (
	maxRecordsPerMessage = 512
	maxReplyIDs          = 256
	maxPushBuffer        = 1024
)

// pushRecsLocked selects the records accompanying a push: always
// self, plus every non-alive record (rumors about trouble spread
// fastest) up to the message cap.
func (n *Node) pushRecsLocked() []Record {
	recs := []Record{cloneRecord(n.table[n.self].rec)}
	for _, addr := range sortedTableKeys(n.table) {
		if len(recs) >= maxRecordsPerMessage {
			break
		}
		e := n.table[addr]
		if addr != n.self && e.rec.State != StateAlive {
			recs = append(recs, cloneRecord(e.rec))
		}
	}
	return recs
}

// tableRecsLocked returns up to max records for a pull reply: all of
// them when the table fits, otherwise self + non-alive + a random
// sample of the rest.
func (n *Node) tableRecsLocked(max int) []Record {
	keys := sortedTableKeys(n.table)
	if len(keys) <= max {
		recs := make([]Record, 0, len(keys))
		for _, k := range keys {
			recs = append(recs, cloneRecord(n.table[k].rec))
		}
		return recs
	}
	recs := []Record{cloneRecord(n.table[n.self].rec)}
	var alive []string
	for _, k := range keys {
		if k == n.self {
			continue
		}
		if n.table[k].rec.State != StateAlive {
			if len(recs) < max {
				recs = append(recs, cloneRecord(n.table[k].rec))
			}
		} else {
			alive = append(alive, k)
		}
	}
	n.rnd.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, k := range alive {
		if len(recs) >= max {
			break
		}
		recs = append(recs, cloneRecord(n.table[k].rec))
	}
	return recs
}

// pickLocked samples up to k distinct view members, skipping members
// known dead.
func (n *Node) pickLocked(k int) []string {
	keys := sortedKeys(n.view)
	live := keys[:0]
	for _, id := range keys {
		if e, ok := n.table[id]; ok && e.rec.State == StateDead {
			continue
		}
		live = append(live, id)
	}
	n.rnd.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if len(live) > k {
		live = live[:k]
	}
	return append([]string(nil), live...)
}

// rebuildViewLocked applies the Brahms view update: when the push
// buffer is not flooded (≤ L1 pushers — the attack-resistance guard)
// and the round produced any input, the new view is αL1 pushed IDs +
// βL1 pulled IDs + γL1 sampler IDs, deduplicated, self and dead
// excluded.
func (n *Node) rebuildViewLocked(pushedIDs, pulledIDs []string) {
	for _, id := range pulledIDs {
		if id != n.self {
			n.sampler.update(id)
		}
	}
	if len(pushedIDs) == 0 && len(pulledIDs) == 0 {
		return
	}
	if len(pushedIDs) > n.params.L1 {
		// Flooded with pushes: an adversary (or a partition heal
		// stampede) could capture the view; keep the old one.
		return
	}
	next := make(map[string]struct{}, n.params.L1)
	add := func(ids []string, want int) {
		ids = dedupe(ids)
		n.rnd.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		took := 0
		for _, id := range ids {
			if took >= want {
				break
			}
			if id == n.self || id == "" {
				continue
			}
			if e, ok := n.table[id]; ok && e.rec.State == StateDead {
				continue
			}
			if _, dup := next[id]; dup {
				continue
			}
			next[id] = struct{}{}
			took++
		}
	}
	l1 := float64(n.params.L1)
	add(pushedIDs, int(math.Ceil(n.params.Alpha*l1)))
	add(pulledIDs, int(math.Ceil(n.params.Beta*l1)))
	add(n.sampler.sample(), int(math.Ceil(n.params.Gamma*l1)))
	// Top up from the old view so a quiet round cannot shrink
	// connectivity below L1.
	if len(next) < n.params.L1 {
		add(sortedKeys(n.view), n.params.L1-len(next))
	}
	if len(next) > 0 {
		n.view = next
	}
}

// suspectLocked records a failed exchange with addr: the record
// moves to StateSuspect at its current incarnation with this node
// added to the observer set.
func (n *Node) suspectLocked(addr string) {
	if addr == n.self {
		return
	}
	e, ok := n.table[addr]
	if !ok {
		e = &entry{rec: Record{Addr: addr, Name: addr, State: StateAlive}}
		n.table[addr] = e
	}
	if prec(e.rec.State) >= prec(StateDead) {
		return
	}
	changed := false
	if e.rec.State != StateSuspect {
		e.rec.State = StateSuspect
		e.rec.Observers = nil
		changed = true
	}
	if addObserver(&e.rec, n.self) {
		changed = true
	}
	if changed {
		n.version++
		e.ver = n.version
		n.count(MetricMerges)
		n.emit(obs.EventGossipSuspect, map[string]string{
			"server": e.rec.Name, "addr": addr, "observers": fmt.Sprint(len(e.rec.Observers)),
		})
	}
}

// mergeLocked folds one remote record into the table, applying the
// incarnation and severity rules plus self-refutation. Reports
// whether the table changed.
func (n *Node) mergeLocked(rec Record) bool {
	if rec.Addr == "" {
		return false
	}
	if rec.State == "" {
		rec.State = StateAlive
	}
	if rec.Addr == n.self {
		return n.mergeSelfLocked(rec)
	}
	e, ok := n.table[rec.Addr]
	if !ok {
		e = &entry{rec: cloneRecord(rec)}
		n.table[rec.Addr] = e
		n.version++
		e.ver = n.version
		n.sampler.update(rec.Addr)
		n.count(MetricMerges)
		n.emit(obs.EventGossipMemberJoin, map[string]string{
			"server": rec.Name, "addr": rec.Addr, "state": rec.State,
		})
		return true
	}
	cur := &e.rec
	changed := false
	switch {
	case rec.Inc > cur.Inc:
		wasSuspect := cur.State == StateSuspect || cur.State == StateDead
		*cur = cloneRecord(rec)
		changed = true
		if (cur.State == StateSuspect || cur.State == StateDead) && !wasSuspect {
			n.emit(obs.EventGossipSuspect, map[string]string{
				"server": cur.Name, "addr": cur.Addr, "state": cur.State,
				"observers": fmt.Sprint(len(cur.Observers)),
			})
		}
	case rec.Inc == cur.Inc:
		if prec(rec.State) > prec(cur.State) {
			obsSet := cur.Observers
			*cur = cloneRecord(rec)
			if cur.State == StateSuspect {
				for _, o := range obsSet {
					addObserver(cur, o)
				}
			}
			changed = true
			if cur.State == StateSuspect || cur.State == StateDead {
				n.emit(obs.EventGossipSuspect, map[string]string{
					"server": cur.Name, "addr": cur.Addr, "state": cur.State,
					"observers": fmt.Sprint(len(cur.Observers)),
				})
			}
		} else if prec(rec.State) == prec(cur.State) && cur.State == StateSuspect {
			for _, o := range rec.Observers {
				if addObserver(cur, o) {
					changed = true
				}
			}
		}
	default:
		// Stale incarnation: ignore.
	}
	if changed {
		n.version++
		e.ver = n.version
		n.count(MetricMerges)
		if cur.State == StateDead {
			n.sampler.invalidate(cur.Addr)
			delete(n.view, cur.Addr)
		}
	}
	return changed
}

// mergeSelfLocked applies the refutation rule: a record claiming we
// are suspect or dead at our current (or a later) incarnation is
// answered by bumping our incarnation and re-announcing our actual
// state.
func (n *Node) mergeSelfLocked(rec Record) bool {
	e := n.table[n.self]
	if rec.Inc < e.rec.Inc {
		return false
	}
	if prec(rec.State) <= prec(e.rec.State) {
		// Nothing to refute: the rumor is no worse than what we
		// already announce.
		return false
	}
	e.rec.Inc = rec.Inc + 1
	e.rec.Observers = nil
	n.version++
	e.ver = n.version
	n.count(MetricRefutations)
	return true
}

// count bumps a node counter if metrics are configured.
func (n *Node) count(name string) {
	if n.reg != nil {
		n.reg.Counter(name).Inc()
	}
}

// emit writes a gossip event if an event log is configured.
func (n *Node) emit(typ string, fields map[string]string) {
	if n.events != nil {
		n.events.Emit(typ, "gossip", fields)
	}
}

// updateGauges refreshes the membership gauges; callers hold n.mu.
func (n *Node) updateGauges() {
	if n.reg == nil {
		return
	}
	suspects := 0
	for _, e := range n.table {
		if e.rec.State == StateSuspect || e.rec.State == StateDead {
			suspects++
		}
	}
	n.reg.Gauge(MetricMembers).Set(int64(len(n.table)))
	n.reg.Gauge(MetricSuspects).Set(int64(suspects))
}

// addObserver inserts o into rec.Observers keeping the set sorted,
// distinct and bounded; reports whether the set grew.
func addObserver(rec *Record, o string) bool {
	if o == "" || len(rec.Observers) >= maxObservers {
		return false
	}
	i := sort.SearchStrings(rec.Observers, o)
	if i < len(rec.Observers) && rec.Observers[i] == o {
		return false
	}
	rec.Observers = append(rec.Observers, "")
	copy(rec.Observers[i+1:], rec.Observers[i:])
	rec.Observers[i] = o
	return true
}

// recordsEqual compares two records field by field (Record holds a
// slice, so == does not apply).
func recordsEqual(a, b Record) bool {
	if a.Addr != b.Addr || a.Name != b.Name || a.Inc != b.Inc || a.State != b.State ||
		a.DiskErrors != b.DiskErrors || a.CopyPeerErrors != b.CopyPeerErrors ||
		len(a.Observers) != len(b.Observers) {
		return false
	}
	for i := range a.Observers {
		if a.Observers[i] != b.Observers[i] {
			return false
		}
	}
	return true
}

// cloneRecord deep-copies a record (the observer slice is shared
// state otherwise).
func cloneRecord(r Record) Record {
	out := r
	if r.Observers != nil {
		out.Observers = append([]string(nil), r.Observers...)
	}
	return out
}

// sortedKeys returns the keys of a string set, sorted (map iteration
// order would break seeded determinism).
func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedTableKeys is sortedKeys for the record table.
func sortedTableKeys(m map[string]*entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// dedupe returns ids with duplicates and empty strings removed,
// preserving first-seen order.
func dedupe(ids []string) []string {
	seen := make(map[string]struct{}, len(ids))
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			continue
		}
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
