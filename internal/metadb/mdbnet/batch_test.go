package mdbnet

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/wire"
)

func st(sql string, args ...metadb.Value) metadb.Stmt { return metadb.Stmt{SQL: sql, Args: args} }

func requests(srv *Server) int64 { return srv.Metrics().Counter(MetricRequests).Value() }

func count(t *testing.T, db *metadb.DB, sql string, args ...metadb.Value) int64 {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int
}

// One request carries the whole batch: one message each way however
// many statements, stopped at the first failure with the results so
// far, on the connection's own session.
func TestBatchRoundTrip(t *testing.T) {
	srv, db := startServer(t)
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	ins := `INSERT INTO t VALUES (?, ?)`
	reqs, queries := requests(srv), db.Metrics().Counter(metadb.MetricQueries).Value()

	res, err := c.Batch([]metadb.Stmt{
		st(ins, metadb.I(1), metadb.S("it's")),
		st(ins, metadb.I(2), metadb.Null()),
		st(`SELECT s FROM t WHERE id = ?`, metadb.I(1)),
		st(`SELECT COUNT(*) FROM t`),
	})
	if err != nil || len(res) != 4 || res[2].Rows[0][0].Str != "it's" || res[3].Rows[0][0].Int != 2 {
		t.Fatalf("res = %v, err = %v", res, err)
	}
	if got := requests(srv) - reqs; got != 1 {
		t.Fatalf("4 statements cost %d requests, want 1", got)
	}
	if got := db.Metrics().Counter(metadb.MetricQueries).Value() - queries; got != 4 {
		t.Fatalf("4 statements counted as %d queries", got)
	}

	// Stop at the first error: results so far, failing index = their
	// count, nothing after it runs, and the explicit transaction stays
	// open on this connection for the caller to roll back.
	res, err = c.Batch([]metadb.Stmt{
		st(`BEGIN`),
		st(ins, metadb.I(3), metadb.S("three")),
		st(ins, metadb.I(3), metadb.S("again")),
		st(ins, metadb.I(4), metadb.S("four")),
		st(`COMMIT`),
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") || len(res) != 2 || res[1].RowsAffected != 1 {
		t.Fatalf("res = %v, err = %v", res, err)
	}
	if res, err := c.Exec(`SELECT COUNT(*) FROM t`); err != nil || res.Rows[0][0].Int != 3 {
		t.Fatalf("inside the open transaction: %v, %v", res, err)
	}
	if _, err := c.Exec(`ROLLBACK`); err != nil {
		t.Fatalf("the transaction did not stay open: %v", err)
	}
	if n := count(t, db, `SELECT COUNT(*) FROM t`); n != 2 {
		t.Fatalf("after ROLLBACK %d rows, want 2", n)
	}
	if res, err := c.Batch(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

// cutConn is a client connection that can be cut from outside; sent is
// closed once the first request has been written.
type cutConn struct {
	net.Conn
	once sync.Once
	sent chan struct{}
}

func (c *cutConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(func() { close(c.sent) })
	return n, err
}

func dialCut(t *testing.T, addr string) (*Client, *cutConn) {
	t.Helper()
	var cc *cutConn
	c, err := DialWith(addr, func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		cc = &cutConn{Conn: conn, sent: make(chan struct{})}
		return cc, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// A connection dropped while its batch is executing aborts the
// transaction the batch leaves open: the statements that ran are rolled
// back and the write lock is released. (A batch that reaches its own
// COMMIT commits, acknowledged or not — that is what a TransportError
// leaves undecided.)
func TestDisconnectMidBatchAborts(t *testing.T) {
	srv, db := startServer(t)
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	// The blocker holds the write lock, so the batch stalls at its
	// INSERT, after its BEGIN ran.
	blocker := db.Session()
	for _, sql := range []string{`BEGIN`, `INSERT INTO t VALUES (1)`} {
		if _, err := blocker.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	c, conn := dialCut(t, srv.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := c.Batch([]metadb.Stmt{st(`BEGIN`), st(`INSERT INTO t VALUES (2)`), st(`INSERT INTO t VALUES (3)`)})
		done <- err
	}()
	<-conn.sent
	conn.Close()
	var te *TransportError
	if err := <-done; !errors.As(err, &te) {
		t.Fatalf("cut connection: err = %v, want a TransportError", err)
	}
	if _, err := blocker.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	// The server now runs the rest of the batch, finds the peer gone
	// and drops the session.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Gauge(MetricActiveConns).Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never dropped the cut connection")
		}
		time.Sleep(time.Millisecond)
	}
	if n := count(t, db, `SELECT COUNT(*) FROM t`); n != 0 {
		t.Fatalf("%d rows survive a transaction whose connection was cut mid-batch", n)
	}
}

// group starts n gated-or-not servers over separate databases holding
// the same empty table, and one Client over all of them.
func group(t *testing.T, n int) ([]*Server, []*metadb.DB, *Client) {
	t.Helper()
	srvs, dbs, addrs := make([]*Server, n), make([]*metadb.DB, n), make([]string, n)
	for i := range srvs {
		srvs[i], dbs[i] = startServer(t)
		addrs[i] = srvs[i].Addr()
		if _, err := dbs[i].Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
			t.Fatal(err)
		}
	}
	g, err := DialGroup(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return srvs, dbs, g
}

func TestGroupBatchFollowsRedirectOnce(t *testing.T) {
	srvs, dbs, g := group(t, 3)
	primary := srvs[2].Addr()
	for _, s := range srvs[:2] {
		s.SetGate(func() error { return NotPrimaryError(primary, 7) })
	}
	batch := []metadb.Stmt{
		st(`BEGIN`), st(`INSERT INTO t VALUES (?)`, metadb.I(1)), st(`INSERT INTO t VALUES (?)`, metadb.I(2)), st(`COMMIT`),
	}
	res, err := g.Batch(batch)
	if err != nil || len(res) != len(batch) {
		t.Fatalf("res = %v, err = %v", res, err)
	}
	// Rejected whole at the first replica (nothing ran there), resent
	// once, straight to the primary the rejection named.
	if got := []int64{requests(srvs[0]), requests(srvs[1]), requests(srvs[2])}; got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("requests per replica = %v, want [1 0 1]", got)
	}
	for i, want := range []int64{0, 0, 2} {
		if n := count(t, dbs[i], `SELECT COUNT(*) FROM t`); n != want {
			t.Fatalf("replica %d holds %d rows, want %d", i, n, want)
		}
	}
	// The client follows the session's transaction state through a
	// batch: this one ended with COMMIT, so a later rejection is again
	// safe to resend.
	srvs[2].SetGate(func() error { return NotPrimaryError(srvs[1].Addr(), 8) })
	srvs[1].SetGate(nil)
	if _, err := g.Exec(`INSERT INTO t VALUES (?)`, metadb.I(3)); err != nil {
		t.Fatal(err)
	}
	if n := count(t, dbs[1], `SELECT COUNT(*) FROM t`); n != 1 {
		t.Fatalf("new primary holds %d rows, want 1", n)
	}
}

func TestGroupBatchRejectedInsideTransactionSurfaces(t *testing.T) {
	srvs, dbs, g := group(t, 2)
	// A batch that leaves its transaction open ...
	if _, err := g.Batch([]metadb.Stmt{st(`BEGIN`), st(`INSERT INTO t VALUES (1)`)}); err != nil {
		t.Fatal(err)
	}
	// ... then the primary is deposed: the next batch is rejected whole,
	// but resending it elsewhere would commit half a transaction.
	srvs[0].SetGate(func() error { return NotPrimaryError(srvs[1].Addr(), 2) })
	_, err := g.Batch([]metadb.Stmt{st(`INSERT INTO t VALUES (2)`), st(`COMMIT`)})
	if !errors.Is(err, ErrNotPrimary) || !strings.Contains(err.Error(), "transaction aborted by failover") {
		t.Fatalf("err = %v", err)
	}
	if got := requests(srvs[1]); got != 0 {
		t.Fatalf("the doomed transaction's batch was resent (%d requests at the new primary)", got)
	}
	// The old primary rolled the first half back when the client
	// dropped the connection; the client is usable at the new one.
	if _, err := g.Exec(`INSERT INTO t VALUES (3)`); err != nil {
		t.Fatal(err)
	}
	srvs[0].SetGate(nil)
	deadline := time.Now().Add(10 * time.Second)
	for srvs[0].Metrics().Gauge(MetricActiveConns).Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("old primary never dropped the connection")
		}
		time.Sleep(time.Millisecond)
	}
	for i, want := range []int64{0, 1} {
		if n := count(t, dbs[i], `SELECT COUNT(*) FROM t`); n != want {
			t.Fatalf("replica %d holds %d rows, want %d", i, n, want)
		}
	}
}

func TestGroupBatchNeverResentAfterTransportError(t *testing.T) {
	srvs, dbs := make([]*Server, 2), make([]*metadb.DB, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i], dbs[i] = startServer(t)
		addrs[i] = srvs[i].Addr()
		if _, err := dbs[i].Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
			t.Fatal(err)
		}
	}
	// Connections to replica 0 lose every response: the request arrives
	// and runs, the answer never does.
	g, err := DialGroup(addrs, func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err != nil || a != addrs[0] {
			return conn, err
		}
		return deafConn{conn}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	batch := []metadb.Stmt{st(`INSERT INTO t VALUES (1)`), st(`INSERT INTO t VALUES (2)`)}
	var te *TransportError
	if _, err := g.Batch(batch); !errors.As(err, &te) {
		t.Fatalf("err = %v, want a TransportError", err)
	}
	if got := requests(srvs[1]); got != 0 {
		t.Fatalf("a batch that may have run was resent (%d requests at the other replica)", got)
	}
	// Only the next request moves on to the other replica.
	if _, err := g.Batch(batch); err != nil {
		t.Fatal(err)
	}
	if got := requests(srvs[1]); got != 1 {
		t.Fatalf("next batch: %d requests at the other replica, want 1", got)
	}
}

// deafConn delivers what it is given and hears nothing back.
type deafConn struct{ net.Conn }

func (c deafConn) Read([]byte) (int, error) {
	return 0, errors.New("deaf connection")
}

// TestClientRefusesBadResponse: a response under another tag, of
// another kind or with a body that does not decode is a transport
// error, and the client drops the connection: the next statement
// arrives on a fresh one.
func TestClientRefusesBadResponse(t *testing.T) {
	good := metadb.AppendString(metadb.AppendResults(nil, []*metadb.Result{{}}), "")
	good = metadb.AppendBytes(good, nil)
	for _, tc := range []struct {
		name  string
		reply func(h wire.FrameHeader) (wire.FrameHeader, []byte)
	}{
		{"tag", func(h wire.FrameHeader) (wire.FrameHeader, []byte) {
			return wire.FrameHeader{Kind: wire.FrameSQLResult, Tag: h.Tag + 1}, good
		}},
		{"kind", func(h wire.FrameHeader) (wire.FrameHeader, []byte) {
			return wire.FrameHeader{Kind: wire.FrameRepl, Tag: h.Tag}, good
		}},
		{"body", func(h wire.FrameHeader) (wire.FrameHeader, []byte) {
			return wire.FrameHeader{Kind: wire.FrameSQLResult, Tag: h.Tag}, good[:len(good)-1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			conns := make(chan int, 2)
			go func() {
				for i := 0; ; i++ {
					conn, err := lis.Accept()
					if err != nil {
						return
					}
					go func(i int, conn net.Conn) {
						defer conn.Close()
						fw := wire.NewFrameWriter(conn)
						for {
							h, _, err := readFrame(conn, wire.FrameSQL, nil)
							if err != nil {
								return
							}
							conns <- i
							rh, body := tc.reply(h)
							if i > 0 {
								rh, body = wire.FrameHeader{Kind: wire.FrameSQLResult, Tag: h.Tag}, good
							}
							if fw.WriteFrame(rh, body) != nil {
								return
							}
						}
					}(i, conn)
				}
			}()
			c, err := Dial(lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var te *TransportError
			if _, err := c.Exec(`BEGIN`); !errors.As(err, &te) {
				t.Fatalf("bad response: %v, want a *TransportError", err)
			}
			if _, err := c.Exec(`BEGIN`); err != nil {
				t.Fatalf("after a bad response: %v", err)
			}
			if first, second := <-conns, <-conns; first != 0 || second != 1 {
				t.Fatalf("statements arrived on connections %d and %d, want 0 then 1", first, second)
			}
		})
	}
}
