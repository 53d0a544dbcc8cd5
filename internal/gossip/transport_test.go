package gossip_test

import (
	"context"
	"testing"

	"dpfs/internal/gossip"
	"dpfs/internal/server"
	"dpfs/internal/wire"
)

// TestNetTransportRoundtrip runs a real push and pull through an I/O
// server's data port: each exchange is one OpGossip request that the
// server's request loop hands to its gossip node, counted like any
// other request.
func TestNetTransportRoundtrip(t *testing.T) {
	srv, err := server.Listen(server.Config{Root: t.TempDir(), Name: "srv"}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node, err := gossip.NewNode(gossip.Config{
		Self:      gossip.Record{Addr: srv.Addr(), Name: "srv"},
		Seed:      1,
		Transport: gossip.NewMemNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetGossip(node)

	tr := &gossip.NetTransport{}
	reply, err := tr.Exchange(context.Background(), srv.Addr(), &gossip.Message{
		Kind: gossip.KindPull, From: "cli:1",
		Recs: []gossip.Record{{Addr: "cli:1", Name: "cli", State: gossip.StateAlive}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil || reply.Kind != gossip.KindReply || reply.From != srv.Addr() {
		t.Fatalf("reply = %+v", reply)
	}
	found := false
	for _, r := range reply.Recs {
		if r.Addr == srv.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatal("pull reply missing the server's own record")
	}
	// The pull also delivered the client's record to the server.
	if rec, ok := node.Lookup("cli:1"); !ok || rec.Name != "cli" {
		t.Fatalf("server did not merge the pull's records: %+v", rec)
	}
	// A push gets no reply but still merges.
	if _, err := tr.Exchange(context.Background(), srv.Addr(), &gossip.Message{
		Kind: gossip.KindPush, From: "cli:2",
		Recs: []gossip.Record{{Addr: "cli:2", State: gossip.StateDraining, Inc: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := node.Lookup("cli:2"); !ok || rec.State != gossip.StateDraining {
		t.Fatalf("push did not merge: %+v", rec)
	}
	reg := srv.Metrics()
	if got := reg.Counter(server.MetricRequests).Value(); got != 2 {
		t.Fatalf("requests_total = %d, want 2 (one per exchange)", got)
	}
	if got := reg.Histogram(server.OpMetric(wire.OpGossip)).Snapshot().Count; got != 2 {
		t.Fatalf("%s count = %d, want 2", server.OpMetric(wire.OpGossip), got)
	}

	// Without a gossip node the server refuses the op, and the exchange
	// fails like an unreachable peer.
	srv.SetGossip(nil)
	if _, err := tr.Exchange(context.Background(), srv.Addr(), &gossip.Message{
		Kind: gossip.KindPush, From: "cli:1",
	}); err == nil {
		t.Fatal("exchange with a gossip-less server succeeded")
	}
}
