package wire

import (
	"context"
	"net"
	"sync"
	"sync/atomic"

	"dpfs/internal/obs"
)

// Connection-set metric names, in the registry a ConnSet is given.
const (
	MetricConnsTotal  = "conns_total"
	MetricActiveConns = "active_conns"
)

// ConnSet is the one connection lifecycle of DPFS's listeners: the I/O
// server's data port, the catalog's port, and the replication streams a
// catalog replica keeps (DESIGN.md §10 "Graceful drain"). It serves
// each conn on a goroutine of its own and closes or drains them all.
//
// The claim rule: a handler claims each request before serving it and
// releases it once its response is flushed. A drain closes the conns
// that hold no claim at once and refuses every later claim; a conn with
// claims closes behind its last release, which both unblocks its
// handler's read and tells the peer.
//
// The zero ConnSet has no listener: it holds conns handed over by
// another set (Conn.HandTo).
type ConnSet struct {
	lis net.Listener  // nil: conns arrive by HandTo
	reg *obs.Registry // nil: no metrics

	draining atomic.Bool // set under mu, read by Claim and Release

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool // by Close or by a drain
	wg     sync.WaitGroup
}

// Conn is one conn of a ConnSet. Its handler reads and writes the
// embedded net.Conn, not the Conn, so writev and sendfile see the
// socket beneath.
type Conn struct {
	net.Conn
	set *ConnSet // changed only by the conn's own handler (HandTo)

	mu     sync.Mutex
	claims int
}

// Serve accepts conns on lis until the set closes and serves each with
// serve on a goroutine of its own; a conn closes when serve returns.
// reg, when non-nil, receives conns_total and active_conns.
func Serve(lis net.Listener, reg *obs.Registry, serve func(*Conn)) *ConnSet {
	s := &ConnSet{lis: lis, reg: reg}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := lis.Accept()
			if err != nil {
				return // the listener closed
			}
			if !s.add(&Conn{Conn: nc}, serve) {
				nc.Close()
				return
			}
		}
	}()
	return s
}

// Addr returns the listen address.
func (s *ConnSet) Addr() net.Addr { return s.lis.Addr() }

// add tracks c and serves it, unless the set is closed.
func (s *ConnSet) add(c *Conn, serve func(*Conn)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[*Conn]struct{})
	}
	c.set = s
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	go s.run(c, serve)
	return true
}

func (s *ConnSet) run(c *Conn, serve func(*Conn)) {
	defer s.wg.Done()
	if s.reg != nil {
		s.reg.Counter(MetricConnsTotal).Inc()
		s.reg.Gauge(MetricActiveConns).Inc()
	}
	serve(c)
	s.mu.Lock()
	_, held := s.conns[c] // not after a hand-over
	delete(s.conns, c)
	s.mu.Unlock()
	if held {
		if s.reg != nil {
			s.reg.Gauge(MetricActiveConns).Dec()
		}
		c.Close()
	}
}

// HandTo moves c to dst, which serves it with serve on a goroutine of
// its own; c's handler then returns without touching c again. It
// reports false, and c stays, when either set is closed or draining: a
// drain refuses a conn's hand-over as it refuses its requests.
func (c *Conn) HandTo(dst *ConnSet, serve func(*Conn)) bool {
	src := c.set
	src.mu.Lock()
	ok := !src.closed && dst.add(c, serve)
	if ok {
		delete(src.conns, c) // in the same critical section: src.Close must not close it now
	}
	src.mu.Unlock()
	if ok && src.reg != nil {
		src.reg.Gauge(MetricActiveConns).Dec()
	}
	return ok
}

// Claim claims one request for the conn's handler: a claimed request
// runs to completion and flushes its response even if a drain begins.
// It reports false once the set is draining; the handler then stops
// reading and returns behind the requests it already claimed, so the
// conn drops and its peer retries or fails over.
func (c *Conn) Claim() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set.draining.Load() {
		return false
	}
	c.claims++
	return true
}

// Release returns a claim. The last release on a draining conn closes
// it: its handler may be blocked in a read, which cannot poll the drain.
func (c *Conn) Release() {
	c.mu.Lock()
	c.claims--
	last := c.claims == 0 && c.set.draining.Load()
	c.mu.Unlock()
	if last {
		c.Close()
	}
}

// Draining reports whether a drain has begun.
func (s *ConnSet) Draining() bool { return s.draining.Load() }

// Close stops accepting, closes every conn at once and waits for their
// handlers.
func (s *ConnSet) Close() error {
	s.stop(false)
	s.wg.Wait()
	return nil
}

// Drain begins a graceful shutdown: the set stops accepting, closes
// the conns that hold no claim and refuses claims from now on. It
// reports false when the set was already closed or draining.
func (s *ConnSet) Drain() bool { return s.stop(true) }

// Shutdown drains the set (Drain) and waits for every handler to
// return. When ctx ends first, the conns left are closed, and ctx's
// error is returned once their handlers have returned too.
func (s *ConnSet) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns(true)
		<-done
		return ctx.Err()
	}
}

// stop closes the set to new conns, and to claims when it drains, then
// closes its listener and its conns: all of them, or when it drains
// the idle ones. It reports false when the set was already stopped.
func (s *ConnSet) stop(drain bool) bool {
	s.mu.Lock()
	stopped := s.closed
	s.closed = true
	if drain && !stopped {
		s.draining.Store(true)
	}
	s.mu.Unlock()
	if stopped {
		return false
	}
	if s.lis != nil {
		s.lis.Close()
	}
	s.closeConns(!drain)
	return true
}

// closeConns closes the set's conns: all of them, or the idle ones.
func (s *ConnSet) closeConns(all bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.mu.Lock()
		idle := c.claims == 0
		c.mu.Unlock()
		if all || idle {
			c.Close()
		}
	}
}
