package mdbnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dpfs/internal/metadb"
	"dpfs/internal/obs"
)

// GroupClient is a client for one replicated catalog: it holds the
// group's full replica address list and keeps statements flowing
// to whichever replica currently holds the primary lease (DESIGN.md
// §13). Failover is driven by the two error classes the servers
// produce:
//
//   - A NotPrimaryError rejection is the server's gate refusing a whole
//     request, so none of its statements executed: the client follows
//     the redirect (or rotates to the next replica) and safely resends
//     the batch — unless a transaction is open, in which case the
//     transaction is already doomed on the old primary and the error
//     surfaces for the caller to retry whole.
//   - A TransportError means the batch may have executed, in part or
//     whole, so it is never resent (the same lost-ack COMMIT contract
//     as Client); the client rotates its target so the *next* request
//     tries another replica.
//
// Requests are serialized, matching the one-session-per-connection
// model.
type GroupClient struct {
	trace atomic.Pointer[obs.Span]

	addrs []string
	dial  DialFunc

	mu   sync.Mutex // serializes requests and guards the fields below it
	cur  int        // index of the believed primary
	inTx bool       // a BEGIN succeeded with no COMMIT/ROLLBACK yet

	// cmu guards cli and closed. It is never held across I/O, so Close
	// does not wait for a statement in flight: it closes the connection
	// under it, and the statement fails with a *TransportError.
	cmu    sync.Mutex
	cli    *Client // connection to addrs[cur]; nil between failures; set with mu and cmu both held
	closed bool
}

// DialGroup connects to a replica group given its full address list
// (the same list, in the same order, on every client). The initial
// primary is resolved lazily by redirect; dialing succeeds as long as
// one replica is reachable.
func DialGroup(addrs []string, dial DialFunc) (*GroupClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("mdbnet: empty replica address list")
	}
	g := &GroupClient{addrs: addrs, dial: dial}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, err := g.connectLocked(); err != nil {
		return nil, err
	}
	return g, nil
}

// connectLocked dials addrs[cur], advancing through the list until one
// replica accepts, and installs the connection unless the client was
// closed meanwhile. Caller holds g.mu.
func (g *GroupClient) connectLocked() (*Client, error) {
	var last error
	for range g.addrs {
		var (
			cli *Client
			err error
		)
		if g.dial != nil {
			cli, err = DialWith(g.addrs[g.cur], g.dial)
		} else {
			cli, err = Dial(g.addrs[g.cur])
		}
		if err == nil {
			cli.SetTraceSpan(g.trace.Load())
			g.cmu.Lock()
			closed := g.closed
			if !closed {
				g.cli = cli
			}
			g.cmu.Unlock()
			if closed {
				cli.Close()
				return nil, errClientClosed
			}
			return cli, nil
		}
		last = err
		g.cur = (g.cur + 1) % len(g.addrs)
	}
	return nil, fmt.Errorf("mdbnet: no replica reachable in %v: %w", g.addrs, last)
}

// dropLocked abandons the current connection (aborting any server-side
// transaction) so the next statement reconnects. Caller holds g.mu.
func (g *GroupClient) dropLocked() {
	g.cmu.Lock()
	if g.cli != nil {
		g.cli.Close()
		g.cli = nil
	}
	g.cmu.Unlock()
	g.inTx = false
}

// retarget points the client at a redirect address when it is in the
// replica list, or at the next replica otherwise. Caller holds g.mu.
func (g *GroupClient) retargetLocked(redirect string) {
	if redirect != "" {
		for i, a := range g.addrs {
			if a == redirect {
				g.cur = i
				return
			}
		}
	}
	g.cur = (g.cur + 1) % len(g.addrs)
}

// SetTraceSpan forwards trace context to the current and all future
// replica connections (same contract as Client.SetTraceSpan).
func (g *GroupClient) SetTraceSpan(parent *obs.Span) {
	g.trace.Store(parent)
	g.cmu.Lock()
	if g.cli != nil {
		g.cli.SetTraceSpan(parent)
	}
	g.cmu.Unlock()
}

// Exec sends one SQL statement to the current primary, following
// not-primary redirects.
func (g *GroupClient) Exec(sql string, args ...metadb.Value) (*metadb.Result, error) {
	return first(g.Batch([]metadb.Stmt{{SQL: sql, Args: args}}))
}

// Batch sends stmts as one request (Client.Batch) to the current
// primary, following not-primary redirects.
func (g *GroupClient) Batch(stmts []metadb.Stmt) ([]*metadb.Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var lastErr error
	// One redirect per replica plus one rotation covers any single
	// failover; beyond that the group is unstable and the caller
	// should see the error.
	for attempt := 0; attempt <= len(g.addrs); attempt++ {
		g.cmu.Lock()
		cli, closed := g.cli, g.closed
		g.cmu.Unlock()
		if closed {
			return nil, errClientClosed
		}
		if cli == nil {
			var err error
			if cli, err = g.connectLocked(); err != nil {
				return nil, err
			}
		}
		res, err := cli.Batch(stmts)
		if err == nil {
			g.trackTx(stmts)
			return res, nil
		}
		lastErr = err
		var te *TransportError
		if errors.As(err, &te) {
			// May have executed: never resend. Rotate so the next
			// request tries another replica, and abandon the
			// connection (the server aborts any open transaction).
			g.dropLocked()
			g.cur = (g.cur + 1) % len(g.addrs)
			return nil, err
		}
		if redirect, ok := ParseNotPrimary(err.Error()); ok {
			if g.inTx {
				// The batch was rejected, but earlier statements of
				// this transaction ran on the deposed primary; drop the
				// connection (aborting them there) and surface the
				// error so the caller retries the transaction whole.
				g.dropLocked()
				g.retargetLocked(redirect)
				return nil, fmt.Errorf("%w (transaction aborted by failover): %v", ErrNotPrimary, err)
			}
			// Never executed: safe to resend at the new target.
			g.dropLocked()
			g.retargetLocked(redirect)
			continue
		}
		// An ordinary SQL error from the primary: the statements before
		// it ran, and so did it as far as transaction state goes (a
		// failed COMMIT still ends the transaction).
		g.trackTx(stmts[:len(res)+1]) // Client.Batch checked len(res) < len(stmts)
		return res, err
	}
	return nil, fmt.Errorf("%w: no stable primary: %v", ErrNotPrimary, lastErr)
}

// trackTx follows the session's transaction state through the
// statements that ran, by keyword. Caller holds g.mu.
func (g *GroupClient) trackTx(ran []metadb.Stmt) {
	for _, st := range ran {
		switch sqlKeyword(st.SQL) {
		case "begin":
			g.inTx = true
		case "commit", "rollback":
			g.inTx = false
		}
	}
}

// Close tears down the current connection and disables reconnects. It
// does not wait for a statement in flight, which fails with a
// *TransportError.
func (g *GroupClient) Close() error {
	g.cmu.Lock()
	defer g.cmu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	if g.cli != nil {
		err := g.cli.Close()
		g.cli = nil
		return err
	}
	return nil
}
