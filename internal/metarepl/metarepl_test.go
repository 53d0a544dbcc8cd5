package metarepl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpfs/internal/metadb"
	"dpfs/internal/metadb/mdbnet"
	"dpfs/internal/obs"
)

// newGroup builds and starts an n-replica group over in-memory
// databases with fast timeouts, bootstrapping replica 0 as the first
// primary. Returned replicas are closed by the test cleanup.
func newGroup(t *testing.T, n int, ack Ack, ackTimeout time.Duration) ([]*Replica, []*metadb.DB) {
	t.Helper()
	liss := make([]*mdbnet.ReplListener, n)
	peers := make([]string, n)
	for i := range liss {
		lis, err := mdbnet.ListenRepl("")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		liss[i] = lis
		peers[i] = lis.Addr()
	}
	reps := make([]*Replica, n)
	dbs := make([]*metadb.DB, n)
	for i := 0; i < n; i++ {
		db, err := metadb.Open(metadb.Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		dbs[i] = db
		if ackTimeout == 0 {
			ackTimeout = 2 * time.Second
		}
		rep, err := New(Config{
			Name: "g0", ID: i, Peers: peers, DB: db, Listener: liss[i],
			Ack: ack, Heartbeat: 10 * time.Millisecond,
			ElectionTimeout: 60 * time.Millisecond,
			AckTimeout:      ackTimeout,
			Events:          obs.NewEventLog(128),
		})
		if err != nil {
			t.Fatalf("new replica %d: %v", i, err)
		}
		reps[i] = rep
	}
	if err := reps[0].Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	for _, r := range reps {
		r.Start()
	}
	t.Cleanup(func() {
		for i, r := range reps {
			r.Close()
			dbs[i].Close()
		}
	})
	return reps, dbs
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func countRows(t *testing.T, db *metadb.DB, table string) int {
	t.Helper()
	res, err := db.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	return len(res.Rows)
}

func TestReplicationAndFailover(t *testing.T) {
	reps, dbs := newGroup(t, 3, AckMajority, 0)

	if _, err := dbs[0].Exec("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := dbs[0].Exec(fmt.Sprintf("INSERT INTO kv (k, v) VALUES ('k%d', %d)", i, i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	wantSeq, _ := dbs[0].ReplState()

	// Majority ack guarantees one follower; shipping continues
	// asynchronously until both converge.
	for f := 1; f <= 2; f++ {
		f := f
		waitFor(t, fmt.Sprintf("follower %d convergence", f), func() bool {
			seq, _ := dbs[f].ReplState()
			return seq == wantSeq
		})
		if got := countRows(t, dbs[f], "kv"); got != 20 {
			t.Fatalf("follower %d has %d rows, want 20", f, got)
		}
	}

	// Kill the primary: the lowest live replica (1) must take over.
	reps[0].Close()
	waitFor(t, "replica 1 promotion", func() bool { return reps[1].Role() == Primary })
	if epoch, leader := reps[1].Epoch(); epoch < 2 || leader != 1 {
		t.Fatalf("replica 1 at epoch %d leader %d after failover", epoch, leader)
	}
	if got := reps[1].Metrics().Counter(MetricPromotions).Value(); got != 1 {
		t.Fatalf("promotions counter = %d, want 1", got)
	}

	// The new primary commits with the surviving majority (2 of 3) and
	// the remaining follower converges behind it.
	if _, err := dbs[1].Exec("INSERT INTO kv (k, v) VALUES ('post', 99)"); err != nil {
		t.Fatalf("post-failover insert: %v", err)
	}
	newSeq, _ := dbs[1].ReplState()
	waitFor(t, "follower 2 post-failover convergence", func() bool {
		seq, _ := dbs[2].ReplState()
		return seq == newSeq
	})
	if got := countRows(t, dbs[2], "kv"); got != 21 {
		t.Fatalf("follower 2 has %d rows after failover, want 21", got)
	}
	waitFor(t, "follower 2 adopting the new epoch", func() bool {
		epoch, leader := reps[2].Epoch()
		return epoch >= 2 && leader == 1
	})
}

func TestStaleEpochStreamFenced(t *testing.T) {
	reps, _ := newGroup(t, 3, AckMajority, 0)

	// Wait for the primary's stream to push replica 2 to epoch 1, then
	// impersonate a deposed primary: its stale stream must be rejected
	// with the newer epoch so the sender steps down.
	waitFor(t, "replica 2 adopting epoch 1", func() bool {
		epoch, _ := reps[2].Epoch()
		return epoch >= 1
	})
	conn, err := mdbnet.DialRepl(reps[2].Addr(), nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.Send(&mdbnet.ReplMsg{Kind: mdbnet.ReplHello, From: 9, Epoch: 0}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if m.Kind != mdbnet.ReplError {
		t.Fatalf("stale hello answered with %q, want error", m.Kind)
	}
	if m.Epoch < 1 {
		t.Fatalf("rejection carries epoch %d, want >= 1", m.Epoch)
	}
	if !strings.Contains(m.Err, "stale epoch") {
		t.Fatalf("rejection text %q", m.Err)
	}
}

func TestSingleVotePerEpoch(t *testing.T) {
	reps, _ := newGroup(t, 3, AckMajority, 0)

	vote := func(from int, epoch int64) *mdbnet.ReplMsg {
		conn, err := mdbnet.DialRepl(reps[2].Addr(), nil)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if err := conn.Send(&mdbnet.ReplMsg{Kind: mdbnet.ReplVoteReq, From: from, Epoch: epoch}); err != nil {
			t.Fatalf("send: %v", err)
		}
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		return m
	}

	if m := vote(7, 5); !m.Ok {
		t.Fatalf("first candidate at epoch 5 denied: %+v", m)
	}
	if m := vote(8, 5); m.Ok {
		t.Fatal("epoch 5 granted twice")
	}
	if m := vote(8, 4); m.Ok || m.Epoch < 5 {
		t.Fatalf("stale candidate got %+v, want denial carrying epoch >= 5", m)
	}
}

// TestTakeoverTailSeedAvoidsSnapshot: a primary that takes over with
// existing history seeds its tail with a boundary marker, so a
// follower standing exactly at the takeover position can verify its
// history and resume streaming even after new commits — instead of
// eating a full snapshot on every routine failover.
func TestTakeoverTailSeedAvoidsSnapshot(t *testing.T) {
	lis, err := mdbnet.ListenRepl("")
	if err != nil {
		t.Fatal(err)
	}
	db, err := metadb.Open(metadb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE kv (k TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv (k) VALUES ('pre%d')", i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := New(Config{
		Name: "g0", ID: 0, Peers: []string{lis.Addr()}, DB: db, Listener: lis,
		ElectionTimeout: time.Hour, Events: obs.NewEventLog(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	bSeq, bLast := db.ReplState()

	// One commit after the takeover moves shipSeq past the boundary.
	if _, err := db.Exec("INSERT INTO kv (k) VALUES ('post')"); err != nil {
		t.Fatal(err)
	}
	if !rep.tailCovers(bSeq, bLast) {
		t.Fatalf("follower at the takeover boundary (%d,%d) would be snapshotted", bSeq, bLast)
	}
	if rep.tailCovers(bSeq-1, bLast) {
		t.Fatalf("position %d predates the tail and must not verify", bSeq-1)
	}
	batch, ok := rep.tailFrom(bSeq + 1)
	if !ok || len(batch) != 1 || batch[0].seq != bSeq+1 {
		t.Fatalf("tailFrom(%d) = (%d records, %v), want the one post-takeover record", bSeq+1, len(batch), ok)
	}
	if len(batch[0].ops) == 0 {
		t.Fatal("streamed record carries no ops — the boundary marker leaked out")
	}
}

// TestCloseFailsPendingAcks: closing a primary with a commit stuck
// waiting for its quorum must fail that commit immediately, not spin
// on the closed stop channel until AckTimeout, and its gate must admit
// no more SQL: a closed replica ships nothing, so whatever it
// committed would be acknowledged unreplicated.
func TestCloseFailsPendingAcks(t *testing.T) {
	lis0, err := mdbnet.ListenRepl("")
	if err != nil {
		t.Fatal(err)
	}
	// The follower address accepts connections but never speaks the
	// protocol, so no ack ever arrives.
	lis1, err := mdbnet.ListenRepl("")
	if err != nil {
		t.Fatal(err)
	}
	defer lis1.Close()
	db, err := metadb.Open(metadb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rep, err := New(Config{
		Name: "g0", ID: 0, Peers: []string{lis0.Addr(), lis1.Addr()},
		DB: db, Listener: lis0, ElectionTimeout: time.Hour,
		AckTimeout: time.Hour, Events: obs.NewEventLog(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("CREATE TABLE kv (k TEXT)")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the commit reach its ack wait
	if err := rep.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "replica closed") {
			t.Fatalf("pending commit finished with %v, want a replica-closed failure", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pending commit still blocked after Close")
	}
	if err := rep.Gate()(); err == nil {
		t.Fatal("a closed primary's gate still admits SQL")
	}
}

func TestAckAllBlocksOnDeadFollower(t *testing.T) {
	reps, dbs := newGroup(t, 3, AckAll, 200*time.Millisecond)
	if _, err := dbs[0].Exec("CREATE TABLE kv (k TEXT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	// With every follower alive AckAll commits normally.
	if _, err := dbs[0].Exec("INSERT INTO kv (k) VALUES ('a')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// A dead follower must block acknowledgement (majority would not).
	reps[2].Close()
	_, err := dbs[0].Exec("INSERT INTO kv (k) VALUES ('b')")
	if err == nil {
		t.Fatal("AckAll commit acknowledged with a dead follower")
	}
	if !strings.Contains(err.Error(), "commit not replicated") {
		t.Fatalf("error %q does not surface the replication failure", err)
	}
	if reps[0].Metrics().Counter(MetricAckTimeouts).Value() == 0 {
		t.Fatal("ack timeout not counted")
	}
}

func TestSnapshotResyncForLaggard(t *testing.T) {
	// A follower whose position is out of the primary's in-memory tail
	// must be resynchronized by snapshot. The primary commits history
	// before the group exists, so its tail cannot reach back to record
	// 1 and the empty follower cannot be caught up record by record.
	lis0, err := mdbnet.ListenRepl("")
	if err != nil {
		t.Fatal(err)
	}
	lis1, err := mdbnet.ListenRepl("")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{lis0.Addr(), lis1.Addr()}
	db0, _ := metadb.Open(metadb.Options{})
	db1, _ := metadb.Open(metadb.Options{})
	defer db0.Close()
	defer db1.Close()

	// History committed before the replica group exists: the primary's
	// in-memory tail will not reach back to it.
	if _, err := db0.Exec("CREATE TABLE kv (k TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db0.Exec(fmt.Sprintf("INSERT INTO kv (k) VALUES ('pre%d')", i)); err != nil {
			t.Fatal(err)
		}
	}

	ev := obs.NewEventLog(64)
	rep0, err := New(Config{
		Name: "g0", ID: 0, Peers: peers, DB: db0, Listener: lis0,
		Heartbeat: 10 * time.Millisecond, ElectionTimeout: time.Hour,
		Events: ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := New(Config{
		Name: "g0", ID: 1, Peers: peers, DB: db1, Listener: lis1,
		Heartbeat: 10 * time.Millisecond, ElectionTimeout: time.Hour,
		Events: ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep0.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	rep0.Start()
	rep1.Start()
	defer rep0.Close()
	defer rep1.Close()

	wantSeq, _ := db0.ReplState()
	waitFor(t, "snapshot resync", func() bool {
		seq, _ := db1.ReplState()
		return seq >= wantSeq && rep0.Metrics().Counter(MetricResyncs).Value() > 0
	})
	if got := countRows(t, db1, "kv"); got != 5 {
		t.Fatalf("resynced follower has %d rows, want 5", got)
	}
	if len(ev.ByType(obs.EventMetaResync)) == 0 {
		t.Fatal("resync event not emitted")
	}
}
