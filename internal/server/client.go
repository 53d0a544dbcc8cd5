package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// Client talks to one DPFS I/O server. Concurrent requests multiplex
// as tagged frames over a small set of TCP connections (see mux.go; the
// server runs one handler per tag, mirroring the paper's server spawning
// a handler per request).
//
// The client survives the flaky substrate DPFS targets (idle
// workstation disks on shared links, Section 1 of the paper): each RPC
// gets a per-attempt deadline and a bounded number of retries with
// exponential backoff + jitter, a connection that fails is retired with
// exactly the tags in flight on it — one the peer closed mid-idle by
// its demux reader, before any request can pick it — and a per-server
// breaker fails fast once a server has been failing consecutively, so
// a dead server degrades throughput instead of convoying every caller
// on full timeout ladders. Retrying a DPFS
// exchange is safe: every wire op is an idempotent replay (reads and
// extent writes are absolute-offset, remove/rename/truncate tolerate
// re-application).
//
// Idempotence alone does not cover metadata-dependent retries: a
// request addresses the subfile named by the client's cached
// distribution row, and if the file was removed and recreated while
// the client backed off, a replayed read would land on a path the
// server recreates on demand — and silently return zeros (missing
// extents read as holes). Every request therefore carries the
// distribution's generation (wire.Request.Gen): the server remembers
// the newest generation it has seen per path and rejects older ones
// with a "stale generation" error, so a stale cached distribution
// fails loudly instead of serving the wrong file's bytes. See the
// generation scheme in internal/server (checkGen) and the catalog's
// generation counter (meta.Catalog.NextGeneration).
type Client struct {
	addr    string
	dial    DialFunc
	retry   RetryPolicy
	reg     *obs.Registry
	events  *obs.EventLog
	onDelta func([]byte)

	// Breaker state (guarded by mu): fails counts consecutive failed
	// attempts; once it reaches the threshold the breaker is open and
	// requests fail fast until openUntil, when one half-open probe may
	// go through.
	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool

	// mux is the transport: the tagged-frame multiplexer (see mux.go).
	mux *mux
}

// DialFunc opens a transport connection to a server address. The
// default is a plain TCP dial; tests and chaos tooling substitute a
// fault-injecting dialer (internal/fault).
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// Client recovery metric names. These live in the registry passed via
// ClientConfig.Metrics (the client engine shares its own), so recovery
// is visible in /metrics next to the traffic counters.
const (
	// MetricClientRetries counts re-attempted exchanges.
	MetricClientRetries = "client_retries_total"
	// MetricConnEvictions counts connections retired on a fault: a
	// failed write, a framing error, or a read error the demux reader
	// hit — with requests in flight or, when the peer closed an idle
	// conn, with none.
	MetricConnEvictions = "conn_evictions_total"
	// MetricServerUnhealthy counts breaker openings.
	MetricServerUnhealthy = "server_unhealthy_total"
	// MetricClientConnsIdle gauges connections currently held open but
	// carrying no request (muxed conns with an empty pending set),
	// summed over the servers sharing the registry.
	MetricClientConnsIdle = "client_conns_idle"
	// MetricClientConnsActive gauges connections currently carrying at
	// least one in-flight request; a whole dispatch burst can ride one
	// active conn.
	MetricClientConnsActive = "client_conns_active"
	// MetricClientBytesLandedDirect counts the response bytes readv(2)
	// wrote straight from the socket into the memory the caller handed
	// the client (DoInto's pieces, DoScratch's scratch), past the demux
	// reader's buffer: the client's twin of bytes_out_zero_copy_total.
	MetricClientBytesLandedDirect = "client_bytes_landed_direct_total"
)

// ErrUnhealthy is wrapped into fail-fast errors while a server's
// breaker is open.
var ErrUnhealthy = errors.New("server unhealthy (breaker open)")

// ServerError wraps an error string the server itself returned: the
// exchange completed, the operation failed as an application outcome.
// Transport-class failures (dial errors, timeouts, broken connections,
// ErrUnhealthy fail-fasts) are NOT ServerErrors — that distinction is
// what read failover keys on: a replica is only worth trying when the
// previous one was unreachable, not when it answered with an error
// every replica would repeat (e.g. "stale generation").
type ServerError struct {
	Addr string
	Msg  string
}

// Error implements error, preserving the historical message shape.
func (e *ServerError) Error() string { return fmt.Sprintf("dpfs server %s: %s", e.Addr, e.Msg) }

// IsServerError reports whether err (anywhere in its chain) is an
// application error returned by a server rather than a transport
// failure.
func IsServerError(err error) bool {
	var se *ServerError
	return errors.As(err, &se)
}

// RetryPolicy tunes the client's recovery machinery. The zero value
// selects the defaults below; set a field negative to disable that
// mechanism.
type RetryPolicy struct {
	// MaxRetries bounds re-attempts after the first failed exchange
	// (default 2; negative disables retries). Only transport failures
	// are retried — an error the server itself returned means the
	// exchange completed and is surfaced as-is.
	MaxRetries int
	// RequestTimeout is the per-attempt deadline. It combines with any
	// context deadline (the earlier wins); zero applies no per-attempt
	// bound beyond the context's.
	RequestTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: attempt n sleeps a uniformly jittered duration in
	// (0, min(BackoffBase * 2^(n-1), BackoffMax)] (defaults 2ms and
	// 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens the per-server breaker after this many
	// consecutive failed attempts (default 16; negative disables the
	// breaker). While open, requests fail fast with ErrUnhealthy.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// letting one half-open probe through (default 250ms).
	BreakerCooldown time.Duration
}

// Default retry policy values.
const (
	DefaultMaxRetries       = 2
	DefaultBackoffBase      = 2 * time.Millisecond
	DefaultBackoffMax       = 100 * time.Millisecond
	DefaultBreakerThreshold = 16
	DefaultBreakerCooldown  = 250 * time.Millisecond
)

// withDefaults resolves the policy's zero values.
func (p RetryPolicy) withDefaults() RetryPolicy {
	switch {
	case p.MaxRetries == 0:
		p.MaxRetries = DefaultMaxRetries
	case p.MaxRetries < 0:
		p.MaxRetries = 0
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = DefaultBackoffMax
	}
	switch {
	case p.BreakerThreshold == 0:
		p.BreakerThreshold = DefaultBreakerThreshold
	case p.BreakerThreshold < 0:
		p.BreakerThreshold = 0 // disabled
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = DefaultBreakerCooldown
	}
	if p.RequestTimeout < 0 {
		p.RequestTimeout = 0
	}
	return p
}

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Dial overrides the transport dialer (fault injection, tests).
	Dial DialFunc
	// Retry tunes timeouts, retries and the breaker; the zero value
	// applies the documented defaults.
	Retry RetryPolicy
	// Metrics receives the recovery counters (client_retries_total,
	// conn_evictions_total, server_unhealthy_total). Nil gets a
	// private registry.
	Metrics *obs.Registry
	// Events receives breaker transitions and retry exhaustion as
	// structured cluster events. Nil uses the process-default log.
	Events *obs.EventLog
	// OnDelta, when non-nil, receives the raw gossip server-table
	// delta piggybacked on a response (wire.Response.Delta) before the
	// response is returned. Deltas are best-effort: the callback must
	// tolerate garbage (gossip.DecodeDelta rejects it) and must not
	// block — it runs on the request path.
	OnDelta func(delta []byte)
}

// NewClient creates a lazy client for the server at addr with default
// configuration; no connection is made until the first request.
func NewClient(addr string) *Client { return NewClientWith(addr, ClientConfig{}) }

// NewClientWith creates a lazy client with explicit configuration.
func NewClientWith(addr string, cfg ClientConfig) *Client {
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = obs.Events()
	}
	c := &Client{
		addr:    addr,
		dial:    cfg.Dial,
		retry:   cfg.Retry.withDefaults(),
		reg:     cfg.Metrics,
		events:  cfg.Events,
		onDelta: cfg.OnDelta,
	}
	c.mux = &mux{c: c, window: DefaultMuxWindow}
	return c
}

// Addr returns the server address the client targets.
func (c *Client) Addr() string { return c.addr }

// Metrics returns the registry holding the client's recovery counters.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Do performs one request/response exchange, retrying transport
// failures per the client's RetryPolicy.
func (c *Client) Do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return c.do(ctx, req, nil, nil)
}

// DoScratch is Do with a caller-supplied response-data buffer: when
// scratch is large enough for the expected data the demux reader lands
// it there and the response's Data aliases it instead of a fresh
// allocation, so the caller must consume Data before reusing scratch.
func (c *Client) DoScratch(ctx context.Context, req *wire.Request, scratch []byte) (*wire.Response, error) {
	return c.do(ctx, req, scratch, nil)
}

// DoInto is Do with the response's data landing in pieces, the caller's
// memory in response order: the demux reader fills them straight from
// the socket and the response carries no Data. The data must fill the
// pieces exactly; a response that overruns or falls short of them fails
// the call. A retried attempt lands again from the first piece.
func (c *Client) DoInto(ctx context.Context, req *wire.Request, pieces [][]byte) (*wire.Response, error) {
	if pieces == nil {
		pieces = [][]byte{} // no data; a nil list would be DoScratch's
	}
	return c.do(ctx, req, nil, pieces)
}

func (c *Client) do(ctx context.Context, req *wire.Request, scratch []byte, pieces [][]byte) (*wire.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt); err != nil {
				return nil, lastErr
			}
			c.reg.Counter(MetricClientRetries).Inc()
		}
		// A dead context sends nothing: the request never reaches the
		// server, and the caller's giving up is no verdict on it.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dpfs server %s: %w", c.addr, err)
		}
		probe, err := c.breakerAllow()
		if err != nil {
			return nil, fmt.Errorf("dpfs server %s: %w", c.addr, err)
		}
		resp, err := c.mux.attempt(ctx, req, scratch, pieces)
		if err == nil {
			c.breakerResult(probe, true)
			if len(resp.Delta) > 0 && c.onDelta != nil {
				// Piggybacked membership news rides every response,
				// including application errors — deliver before the
				// error split below.
				c.onDelta(resp.Delta)
			}
			if resp.Err != "" {
				// The server answered; its error is an application
				// outcome, not a transport failure — never retried.
				return nil, &ServerError{Addr: c.addr, Msg: resp.Err}
			}
			return resp, nil
		}
		c.breakerResult(probe, false)
		lastErr = err
		if ctx.Err() != nil || attempt >= c.retry.MaxRetries {
			if ctx.Err() == nil && attempt >= c.retry.MaxRetries {
				// The retry ladder ran dry (as opposed to the caller
				// giving up): that is a cluster-health signal.
				c.events.EmitTrace(obs.EventRetryExhausted, "client", req.TraceID, map[string]string{
					"server":   c.addr,
					"op":       req.Op.String(),
					"attempts": fmt.Sprint(attempt + 1),
					"err":      lastErr.Error(),
				})
			}
			return nil, lastErr
		}
	}
}

// backoff sleeps the jittered exponential delay before retry number
// attempt (1-based), or returns early when ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	max := c.retry.BackoffBase << uint(attempt-1)
	if max > c.retry.BackoffMax || max <= 0 {
		max = c.retry.BackoffMax
	}
	// Full jitter: uniform in (0, max]. rand's global source is
	// goroutine-safe; determinism here does not matter (the fault
	// schedule, not the backoff, is the reproducible part).
	d := time.Duration(rand.Int63n(int64(max))) + 1
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// breakerAllow gates an attempt on the breaker. It returns probe=true
// when the attempt is the single half-open trial of an open breaker.
func (c *Client) breakerAllow() (probe bool, err error) {
	if c.retry.BreakerThreshold == 0 {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fails < c.retry.BreakerThreshold {
		return false, nil
	}
	if time.Now().Before(c.openUntil) || c.probing {
		return false, ErrUnhealthy
	}
	c.probing = true
	c.events.Emit(obs.EventBreakerHalfOpen, "client", map[string]string{"server": c.addr})
	return true, nil
}

// breakerResult records an attempt outcome.
func (c *Client) breakerResult(probe, ok bool) {
	if c.retry.BreakerThreshold == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
	}
	if ok {
		if c.fails >= c.retry.BreakerThreshold {
			c.events.Emit(obs.EventBreakerClose, "client", map[string]string{"server": c.addr})
		}
		c.fails = 0
		c.openUntil = time.Time{}
		return
	}
	c.fails++
	if probe || c.fails == c.retry.BreakerThreshold {
		// Opening (or re-opening after a failed probe): fail fast for
		// a cooldown instead of convoying every caller on timeouts.
		c.openUntil = time.Now().Add(c.retry.BreakerCooldown)
		c.reg.Counter(MetricServerUnhealthy).Inc()
		c.events.Emit(obs.EventBreakerOpen, "client", map[string]string{
			"server": c.addr,
			"fails":  fmt.Sprint(c.fails),
		})
	}
}

// Ping checks the server is reachable.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.Do(ctx, &wire.Request{Op: wire.OpPing})
	return err
}

// Close fails every call in flight and closes the client's
// connections.
func (c *Client) Close() error {
	c.mux.Close()
	return nil
}
