package obs

import (
	"sync"
	"time"
)

// Event types recorded in the cluster event log. These are state
// transitions that counters cannot express: an operator scanning
// /debug/events should be able to reconstruct "what happened" from
// these alone.
const (
	// EventBreakerOpen fires when a server's circuit breaker opens
	// after consecutive transport failures.
	EventBreakerOpen = "breaker_open"
	// EventBreakerHalfOpen fires when a cooled-down breaker admits a
	// single probe request.
	EventBreakerHalfOpen = "breaker_half_open"
	// EventBreakerClose fires when a probe succeeds and the breaker
	// resets.
	EventBreakerClose = "breaker_close"
	// EventRetryExhausted fires when a request runs out of retry
	// budget and fails back to the caller.
	EventRetryExhausted = "retry_exhausted"
	// EventDegradedWrite fires when a replicated write commits on a
	// quorum smaller than the full replica set.
	EventDegradedWrite = "degraded_write"
	// EventFailover fires when a replicated read abandons a server and
	// is served by a surviving replica.
	EventFailover = "failover"
	// EventHealthEscalation fires when the repair prober moves a
	// server between alive, suspect, and dead.
	EventHealthEscalation = "health_escalation"
	// EventRepairPlan fires when the repair runner plans copies for a
	// file with lost bricks.
	EventRepairPlan = "repair_plan"
	// EventRepairCommit fires when a repaired file's new distribution
	// is committed to the catalog.
	EventRepairCommit = "repair_commit"
	// EventRepairCleanup fires when a repaired file's old-generation
	// subfiles are removed.
	EventRepairCleanup = "repair_cleanup"
	// EventDrainBegin fires when a server starts draining for
	// shutdown.
	EventDrainBegin = "drain_begin"
	// EventDrainEnd fires when a drain completes (cleanly or by
	// timeout).
	EventDrainEnd = "drain_end"
	// EventStaleGen fires when a client request is rejected because it
	// addresses a generation the server has already superseded.
	EventStaleGen = "cache_stale_gen"
	// EventSlowRequest fires when a traced request exceeds the
	// configured slow-request threshold; the event carries the
	// stitched trace rendering.
	EventSlowRequest = "slow_request"
	// EventMetaPromotion fires when a catalog replica wins an election
	// and takes over as its group's primary (DESIGN.md §13).
	EventMetaPromotion = "meta_promotion"
	// EventMetaStepDown fires when a catalog primary discovers a
	// higher epoch and demotes itself to follower.
	EventMetaStepDown = "meta_step_down"
	// EventMetaResync fires when a follower's log cannot be extended
	// record by record and the primary ships a full snapshot instead.
	EventMetaResync = "meta_resync"
	// EventMetaUnreachable fires when the repair prober cannot reach
	// the catalog and falls back to planning from its last gossip
	// snapshot (DESIGN.md §14).
	EventMetaUnreachable = "meta_unreachable"
	// EventGossipSuspect fires when the gossip health table moves a
	// server into suspect (or dead), carrying the observer count.
	EventGossipSuspect = "gossip_suspect"
	// EventGossipMemberJoin fires when gossip discovers a server not
	// previously in the local membership table.
	EventGossipMemberJoin = "gossip_member_join"
)

// Event is one structured entry in the cluster event log.
type Event struct {
	// Seq is a monotonically increasing sequence number within one
	// EventLog (survives ring eviction, so gaps reveal dropped
	// history).
	Seq uint64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Component names the emitting subsystem ("client", "server/io-3",
	// "repair", ...).
	Component string `json:"component,omitempty"`
	// TraceID links the event to a trace when the triggering request
	// was sampled.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Fields carries event-specific details (server addr, path, error
	// text, ...).
	Fields map[string]string `json:"fields,omitempty"`
}

// EventLog is a bounded structured ring of cluster events. Emitting is
// cheap and safe from any goroutine; the storage is fixed-size and
// eviction advances the head without reallocating.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	head int
	n    int
	seq  uint64
}

// NewEventLog builds a log keeping the most recent capacity events
// (minimum 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Emit records an event. A nil receiver is a no-op, so call sites can
// emit unconditionally. Fields is retained, not copied: do not mutate
// it after emitting.
func (l *EventLog) Emit(typ, component string, fields map[string]string) {
	l.EmitTrace(typ, component, 0, fields)
}

// EmitTrace records an event linked to a trace ID (zero for
// untraced).
func (l *EventLog) EmitTrace(typ, component string, traceID uint64, fields map[string]string) {
	if l == nil {
		return
	}
	e := Event{Time: time.Now(), Type: typ, Component: component, TraceID: traceID, Fields: fields}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
	}
	l.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.head+i)%len(l.buf)])
	}
	return out
}

// ByType returns the recorded events of one type, oldest first.
func (l *EventLog) ByType(typ string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// Len reports how many events are held.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Dropped reports how many events have been evicted from the ring.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - uint64(l.n)
}

// defaultEvents is the process-wide event log used when a component is
// not given an explicit one.
var defaultEvents = NewEventLog(1024)

// Events returns the process-wide default event log. Daemons serve it
// at /debug/events; libraries emit to it unless configured with their
// own log.
func Events() *EventLog {
	return defaultEvents
}
