package mdbnet

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/wire"
)

func startServer(t *testing.T) (*Server, *metadb.DB) {
	t.Helper()
	db := metadb.Memory()
	srv, err := Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, db
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicRoundtrip(t *testing.T) {
	srv, _ := startServer(t)
	c := dial(t, srv)

	if _, err := c.Exec(`CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(`INSERT INTO t VALUES (1, 'hello'), (2, 'world')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	res, err = c.Exec(`SELECT s FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "hello" || res.Rows[1][0].Str != "world" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	srv, _ := startServer(t)
	c := dial(t, srv)
	if _, err := c.Exec(`SELECT * FROM missing`); err == nil {
		t.Fatal("expected error for missing table")
	}
	// The connection keeps working after an error.
	if _, err := c.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsPerConnection(t *testing.T) {
	srv, db := startServer(t)
	c1 := dial(t, srv)
	if _, err := c1.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// Second connection blocks until commit; verify post-commit view.
	done := make(chan int64, 1)
	go func() {
		c2 := dialNoCleanup(t, srv)
		defer c2.Close()
		res, err := c2.Exec(`SELECT COUNT(*) FROM t`)
		if err != nil {
			done <- -1
			return
		}
		done <- res.Rows[0][0].Int
	}()
	if _, err := c1.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	if n := <-done; n != 1 {
		t.Fatalf("second connection saw %d", n)
	}
	_ = db
}

func dialNoCleanup(t *testing.T, srv *Server) *Client {
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Error(err)
		return nil
	}
	return c
}

// TestDisconnectAbortsTransaction drops a connection mid-transaction
// and verifies the lock is released and the data rolled back.
func TestDisconnectAbortsTransaction(t *testing.T) {
	srv, db := startServer(t)
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	c1.Close() // crash the client mid-transaction

	// A fresh connection must eventually acquire the lock and see zero
	// rows.
	c2 := dial(t, srv)
	res, err := c2.Exec(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 0 {
		t.Fatalf("abandoned transaction leaked %d rows", res.Rows[0][0].Int)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for i := 0; i < 20; i++ {
				if _, err := cli.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, w*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := c.Exec(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 120 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestClientClosed(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Exec(`SELECT 1 FROM t`); err == nil {
		t.Fatal("exec on closed client should fail")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestServerClose(t *testing.T) {
	db := metadb.Memory()
	defer db.Close()
	srv, err := Listen(db, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := c.Exec(`SELECT 1 FROM t`); err == nil {
		t.Fatal("exec against closed server should fail")
	}
	c.Close()
	if _, err := Dial(srv.Addr()); err == nil {
		t.Fatal("dialing closed server should fail")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port should fail")
	}
}

// TestShutdownDrains races concurrent writers against a graceful
// Shutdown: every statement either completes fully or fails cleanly
// on a closed connection, Shutdown returns without hanging, and the
// server refuses work afterwards.
func TestShutdownDrains(t *testing.T) {
	srv, _ := startServer(t)
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE d (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				return
			}
			defer cl.Close()
			for i := 0; ; i++ {
				if _, err := cl.Exec(fmt.Sprintf(`INSERT INTO d VALUES (%d)`, g*1000000+i)); err != nil {
					return // drained away mid-stream: expected
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if _, err := c.Exec(`SELECT id FROM d`); err == nil {
		t.Fatal("exec after shutdown succeeded")
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}

// TestClientCloseInterruptsStatement: Close does not wait for a
// statement the server never answers, whichever constructor built the
// client. It cuts the connection at once, and the stuck statement fails
// as a transport error.
func TestClientCloseInterruptsStatement(t *testing.T) {
	for _, tc := range []struct {
		name string
		dial func(addr string) (*Client, error)
	}{
		{"Dial", Dial},
		{"DialGroup", func(addr string) (*Client, error) { return DialGroup([]string{addr}, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			got := make(chan net.Conn, 1)
			go func() {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				got <- conn
				io.Copy(io.Discard, conn) // read everything, answer nothing
			}()
			c, err := tc.dial(lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if conn := <-got; conn != nil {
					conn.Close()
				}
			}()
			execErr := make(chan error, 1)
			go func() {
				_, err := c.Exec(`SELECT 1 FROM t`)
				execErr <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the statement reach its read
			closed := make(chan error, 1)
			go func() { closed <- c.Close() }()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatal("Close blocked behind the unanswered statement")
			}
			select {
			case err := <-execErr:
				var te *TransportError
				if !errors.As(err, &te) {
					t.Fatalf("stuck Exec returned %v, want a *TransportError", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Exec still stuck after Close")
			}
			// A closed client stays closed: nothing redials.
			if _, err := c.Exec(`SELECT 1 FROM t`); !errors.Is(err, errClientClosed) {
				t.Fatalf("Exec after Close returned %v, want %v", err, errClientClosed)
			}
		})
	}
}

// parentRequest is the gob request of the catalog protocol before it
// moved onto frames.
type parentRequest struct {
	Stmts   []metadb.Stmt
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// voter stands in for a catalog replica: it counts the conns a server
// hands it and grants every vote request.
type voter struct {
	conns  wire.ConnSet
	served atomic.Int64
}

func (v *voter) ReplConns() *wire.ConnSet { return &v.conns }

func (v *voter) ServeRepl(c *ReplConn, m *ReplMsg) {
	v.served.Add(1)
	if m.Kind == ReplVoteReq {
		_ = c.Send(&ReplMsg{Kind: ReplVote, Epoch: m.Epoch, Ok: true})
	}
}

// startReplica starts a catalog server behind gate that hands its
// replication conns to a voter.
func startReplica(t *testing.T, gate func() error) (*Server, *metadb.DB, *voter) {
	t.Helper()
	db := metadb.Memory()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	v := &voter{}
	srv := NewServer(db, lis, gate, v)
	t.Cleanup(func() {
		srv.Close()
		v.conns.Close()
		db.Close()
	})
	return srv, db, v
}

// vote sends a vote request on a fresh replication conn to addr and
// returns the answer.
func vote(addr string) (*ReplMsg, error) {
	conn, err := DialRepl(addr, nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := conn.Send(&ReplMsg{Kind: ReplVoteReq, From: 1, Epoch: 2}); err != nil {
		return nil, err
	}
	return conn.Recv()
}

// TestParentGobClientsRefused: a client of the gob-era protocol, SQL or
// replication, has its catalog connection closed after one
// frame-header read, and nothing it sent takes effect. The first frame
// picks a conn's protocol: REPL on a catalog without a replica, or
// after SQL frames, drops the conn with nothing handed over, and a
// follower's gate refusing SQL does not refuse its replication.
func TestParentGobClientsRefused(t *testing.T) {
	// gobExchange sends msg gob-encoded on a fresh connection to addr
	// and requires the connection to end without an answer.
	gobExchange := func(t *testing.T, addr string, msg any) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if err := gob.NewEncoder(conn).Encode(msg); err != nil {
			return // closed under the encoder's second write
		}
		var reply parentRequest // any struct: no reply may decode
		err = gob.NewDecoder(conn).Decode(&reply)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("the server left the gob client hanging")
		}
		if err == nil {
			t.Fatal("the server answered a gob request")
		}
	}

	t.Run("catalog", func(t *testing.T) {
		srv, db := startServer(t)
		gobExchange(t, srv.Addr(), parentRequest{Stmts: []metadb.Stmt{{SQL: `CREATE TABLE t (x INT)`}}})
		if n := requests(srv); n != 0 {
			t.Fatalf("%d requests served", n)
		}
		if names := db.TableNames(); len(names) != 0 {
			t.Fatalf("tables %v exist", names)
		}
		// The port still serves framed clients.
		if _, err := dial(t, srv).Exec(`CREATE TABLE t (x INT)`); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("replication", func(t *testing.T) {
		srv, _, v := startReplica(t, nil)
		gobExchange(t, srv.Addr(), ReplMsg{Kind: ReplHello, From: 1, Epoch: 1})
		if n := v.served.Load(); n != 0 {
			t.Fatalf("a gob hello was handed to the replica (%d conns)", n)
		}
		// The port still serves framed replication.
		if m, err := vote(srv.Addr()); err != nil || !m.Ok {
			t.Fatalf("vote after the gob hello: %+v, %v", m, err)
		}
	})
	t.Run("REPL first on a group of one", func(t *testing.T) {
		srv, db := startServer(t)
		if m, err := vote(srv.Addr()); err == nil {
			t.Fatalf("a catalog without a replica answered a vote request: %+v", m)
		}
		if n := requests(srv); n != 0 {
			t.Fatalf("%d requests served", n)
		}
		if _, err := dial(t, srv).Exec(`CREATE TABLE t (x INT)`); err != nil {
			t.Fatal(err)
		}
		if names := db.TableNames(); len(names) != 1 {
			t.Fatalf("tables %v exist", names)
		}
	})
	t.Run("REPL after SQL", func(t *testing.T) {
		srv, db, v := startReplica(t, nil)
		if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		fw, br := wire.NewFrameWriter(conn), bufio.NewReader(conn)
		for tag, sql := range []string{`BEGIN`, `INSERT INTO t VALUES (1)`} {
			if _, err := writeRequest(fw, nil, uint32(tag+1), &request{Stmts: []metadb.Stmt{{SQL: sql}}}); err != nil {
				t.Fatal(err)
			}
			_, body, err := readFrame(br, wire.FrameSQLResult, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := decodeResponse(body); err != nil || resp.Err != "" {
				t.Fatalf("%s: %+v, %v", sql, resp, err)
			}
		}
		m := ReplMsg{Kind: ReplVoteReq, From: 1, Epoch: 2}
		if err := fw.WriteFrame(wire.FrameHeader{Kind: wire.FrameRepl}, m.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("read after a REPL frame mid-session = %v, want EOF", err)
		}
		if n := v.served.Load(); n != 0 {
			t.Fatalf("the REPL frame was handed to the replica (%d conns)", n)
		}
		// The dropped session's transaction aborted: its row is gone and
		// its lock free.
		res, err := dial(t, srv).Exec(`SELECT COUNT(*) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int; n != 0 {
			t.Fatalf("the dropped transaction left %d rows", n)
		}
	})
	t.Run("a refusing gate still votes", func(t *testing.T) {
		srv, db, _ := startReplica(t, func() error { return NotPrimaryError("", 3) })
		if _, err := dial(t, srv).Exec(`CREATE TABLE t (x INT)`); !errors.Is(err, ErrNotPrimary) {
			t.Fatalf("SQL on a follower = %v, want %v", err, ErrNotPrimary)
		}
		if names := db.TableNames(); len(names) != 0 {
			t.Fatalf("tables %v exist", names)
		}
		if m, err := vote(srv.Addr()); err != nil || !m.Ok {
			t.Fatalf("vote on a follower's port: %+v, %v", m, err)
		}
	})
}

// TestOversizedSQLHeaderRefused: a peer that sends a FrameSQL header
// announcing 256 MiB and then closes costs the catalog server what
// arrived, not what was announced.
func TestOversizedSQLHeaderRefused(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var h [wire.FrameHeaderLen]byte
	wire.PutFrameHeader(h[:], wire.FrameHeader{Kind: wire.FrameSQL, Tag: 1, Len: 256 << 20})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(h[:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server drops the conn once its body read fails.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	runtime.ReadMemStats(&after)
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("the server kept the conn of a truncated FrameSQL: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a 256 MiB FrameSQL header cost %d bytes of allocation, want under 1 MiB", got)
	}
}
