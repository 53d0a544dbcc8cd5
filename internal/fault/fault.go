// Package fault is a deterministic, seedable fault injector for the
// DPFS transport. DPFS aggregates idle workstation storage (Section 1
// of the paper), a substrate where servers stall, connections drop and
// links flake as a matter of course; this package makes those failures
// reproducible so the client's recovery machinery (retries, breakers,
// connection eviction — see internal/server) can be tested
// against a scheduled storm instead of waiting for a real one.
//
// An Injector holds an ordered rule list and a seeded PRNG. Wrapping a
// net.Conn (via Conn, DialContext or Listener) routes every Read and
// Write through the rules; a firing rule injects one of:
//
//   - drop: the connection is closed mid-operation,
//   - readerr / writeerr: the operation fails without closing,
//   - delay: the operation stalls (a latency spike), then proceeds,
//   - partial: a Write delivers only a prefix, then the conn closes.
//
// Rules select their victims by nth-operation (fires every Nth conn
// op, deterministic regardless of scheduling), by probability (seeded,
// reproducible for a fixed interleaving), and/or by per-server label;
// a Count cap bounds total firings. The textual Spec form behind the
// -fault-spec flags is
//
//	rule        := kind ":" opt ("," opt)*
//	spec        := rule (";" rule)*
//	kind        := "drop" | "readerr" | "writeerr" | "delay" | "partial"
//	opt         := "nth=" N | "prob=" F | "count=" N | "ms=" N |
//	               "server=" LABEL
//
// e.g. "drop:prob=0.02;delay:prob=0.05,ms=3;partial:nth=17".
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// KindDrop closes the connection mid-operation.
	KindDrop Kind = iota
	// KindReadErr fails a Read without closing the connection.
	KindReadErr
	// KindWriteErr fails a Write without closing the connection.
	KindWriteErr
	// KindDelay stalls an operation, then lets it proceed (a latency
	// spike).
	KindDelay
	// KindPartial delivers only a prefix of a Write, then closes the
	// connection (a torn frame on the wire).
	KindPartial
)

// String names the kind as it appears in specs and stats.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindReadErr:
		return "readerr"
	case KindWriteErr:
		return "writeerr"
	case KindDelay:
		return "delay"
	case KindPartial:
		return "partial"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule schedules one fault kind. At least one of Nth and Prob must be
// set for the rule to ever fire.
type Rule struct {
	// Kind is the fault to inject.
	Kind Kind
	// Label restricts the rule to connections carrying this label
	// (the server name registered via SetLabel, or the dialed address);
	// empty matches every connection.
	Label string
	// Nth fires the rule on every Nth matching operation of a
	// connection (1-based; ops are counted per conn, so the schedule is
	// deterministic regardless of goroutine interleaving).
	Nth int64
	// Prob fires the rule with this per-operation probability, drawn
	// from the injector's seeded PRNG.
	Prob float64
	// Count caps total firings of this rule across all connections
	// (0 = unlimited).
	Count int64
	// Delay is the stall of a KindDelay rule.
	Delay time.Duration
}

// matchesOp reports whether the rule applies to the given direction.
// Drops and delays hit both directions; read/write faults only theirs.
func (r *Rule) matchesOp(write bool) bool {
	switch r.Kind {
	case KindReadErr:
		return !write
	case KindWriteErr, KindPartial:
		return write
	}
	return true
}

// Error is the error type of injected failures, so tests (and curious
// callers) can tell scheduled chaos from organic trouble.
type Error struct {
	Kind  Kind
	Label string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s (%s)", e.Kind, e.Label)
}

// Injector applies a rule list to wrapped connections. All methods are
// safe for concurrent use; the PRNG and firing counters are shared
// under one lock, keeping probability draws reproducible for a fixed
// operation interleaving.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []Rule
	fired  []int64           // per-rule firing counts
	labels map[string]string // addr -> label
}

// New builds an injector with the given seed and rules.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		rules:  append([]Rule(nil), rules...),
		fired:  make([]int64, len(rules)),
		labels: make(map[string]string),
	}
}

// Parse builds an injector from the textual spec form (see the package
// comment for the grammar). An empty spec yields an injector with no
// rules, which injects nothing.
func Parse(spec string, seed int64) (*Injector, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return New(seed, rules...), nil
}

// ParseSpec parses the rule list of a -fault-spec flag.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, opts, _ := strings.Cut(part, ":")
		var r Rule
		switch strings.TrimSpace(kindStr) {
		case "drop":
			r.Kind = KindDrop
		case "readerr":
			r.Kind = KindReadErr
		case "writeerr":
			r.Kind = KindWriteErr
		case "delay":
			r.Kind = KindDelay
		case "partial":
			r.Kind = KindPartial
		default:
			return nil, fmt.Errorf("fault: unknown kind %q in rule %q", kindStr, part)
		}
		for _, opt := range strings.Split(opts, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("fault: option %q of rule %q is not key=value", opt, part)
			}
			var err error
			switch key {
			case "nth":
				r.Nth, err = strconv.ParseInt(val, 10, 64)
				if err == nil && r.Nth < 1 {
					err = fmt.Errorf("nth must be >= 1")
				}
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Prob < 0 || r.Prob > 1) {
					err = fmt.Errorf("prob must be in [0,1]")
				}
			case "count":
				r.Count, err = strconv.ParseInt(val, 10, 64)
			case "ms":
				var ms int64
				ms, err = strconv.ParseInt(val, 10, 64)
				r.Delay = time.Duration(ms) * time.Millisecond
			case "server", "label":
				r.Label = val
			default:
				return nil, fmt.Errorf("fault: unknown option %q in rule %q", key, part)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: option %q of rule %q: %v", opt, part, err)
			}
		}
		if r.Nth == 0 && r.Prob == 0 {
			return nil, fmt.Errorf("fault: rule %q needs nth= or prob= to ever fire", part)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// SetLabel names the server behind addr, so per-server rules can match
// by catalog name instead of the ephemeral address.
func (in *Injector) SetLabel(addr, label string) {
	in.mu.Lock()
	in.labels[addr] = label
	in.mu.Unlock()
}

// labelFor resolves an address to its registered label (or itself).
func (in *Injector) labelFor(addr string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if l, ok := in.labels[addr]; ok {
		return l
	}
	return addr
}

// Counts returns per-kind firing totals (for tests and reports).
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64)
	for i, r := range in.rules {
		out[r.Kind.String()] += in.fired[i]
	}
	return out
}

// Total returns the number of faults injected so far.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, f := range in.fired {
		n += f
	}
	return n
}

// firing is one decided injection.
type firing struct {
	kind  Kind
	delay time.Duration
}

// decide runs the rule list for one conn operation. ops is the conn's
// 1-based operation sequence number. The first firing rule wins.
func (in *Injector) decide(label string, ops int64, write bool) *firing {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matchesOp(write) {
			continue
		}
		if r.Label != "" && r.Label != label {
			continue
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		hit := r.Nth > 0 && ops%r.Nth == 0
		if !hit && r.Prob > 0 && in.rng.Float64() < r.Prob {
			hit = true
		}
		if !hit {
			continue
		}
		in.fired[i]++
		return &firing{kind: r.Kind, delay: r.Delay}
	}
	return nil
}

// Conn wraps c so its Reads and Writes run the injector's rules,
// labeled for per-server matching. An injector with no rules returns c
// unchanged.
func (in *Injector) Conn(c net.Conn, label string) net.Conn {
	if in == nil || len(in.rules) == 0 {
		return c
	}
	return &conn{Conn: c, in: in, label: label}
}

// DialContext dials addr over TCP and wraps the connection, labeling
// it with the server's registered name (SetLabel) or the address. Its
// signature matches the client engine's dial hook
// (core.Options.Dial / server.ClientConfig.Dial). Like Listener, and
// unlike Conn, it wraps even without rules: a wrapped conn hides its
// socket, so the client reads every byte through Read, on its buffered
// reader, and never by readv.
func (in *Injector) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, in: in, label: in.labelFor(addr)}, nil
}

// Listener wraps l so every accepted connection carries the label and
// runs the injector's rules — the server-side mirror of DialContext,
// behind dpfs-server's -fault-spec flag. Unlike Conn it wraps even
// without rules: a wrapped conn hides its socket, so the server sends
// every byte through Write, on the copy path, and never by sendfile.
func (in *Injector) Listener(l net.Listener, label string) net.Listener {
	if in == nil {
		return l
	}
	return &listener{Listener: l, in: in, label: label}
}

type listener struct {
	net.Listener
	in    *Injector
	label string
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, in: l.in, label: l.label}, nil
}

// conn is a net.Conn with scheduled faults.
type conn struct {
	net.Conn
	in    *Injector
	label string

	mu  sync.Mutex
	ops int64
}

// nextOp advances the conn's operation counter.
func (c *conn) nextOp() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	return c.ops
}

func (c *conn) Read(p []byte) (int, error) {
	f := c.in.decide(c.label, c.nextOp(), false)
	if f != nil {
		switch f.kind {
		case KindDrop:
			c.Conn.Close()
			return 0, &Error{Kind: KindDrop, Label: c.label}
		case KindReadErr:
			return 0, &Error{Kind: KindReadErr, Label: c.label}
		case KindDelay:
			time.Sleep(f.delay)
		}
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	f := c.in.decide(c.label, c.nextOp(), true)
	if f != nil {
		switch f.kind {
		case KindDrop:
			c.Conn.Close()
			return 0, &Error{Kind: KindDrop, Label: c.label}
		case KindWriteErr:
			return 0, &Error{Kind: KindWriteErr, Label: c.label}
		case KindDelay:
			time.Sleep(f.delay)
		case KindPartial:
			n := len(p) / 2
			if n > 0 {
				var werr error
				n, werr = c.Conn.Write(p[:n])
				if werr != nil {
					c.Conn.Close()
					return n, werr
				}
			}
			c.Conn.Close()
			return n, &Error{Kind: KindPartial, Label: c.label}
		}
	}
	return c.Conn.Write(p)
}
