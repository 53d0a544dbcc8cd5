package server

import (
	"context"
	"net"
	"testing"
	"time"

	"dpfs/internal/netsim"
	"dpfs/internal/wire"
)

// TestAbandonedRequestFreesDevice: a client that gives up on a request
// occupying the simulated device must not leave the device busy — the
// op's context is cancelled and netsim returns the unserviced
// reservation. A client gives up by dropping the conn, or by sending
// CANCEL for the tag and keeping the conn, which then serves its next
// tag.
func TestAbandonedRequestFreesDevice(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keepConn bool
	}{
		{"the peer closes the conn", false},
		{"the peer cancels the tag", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 1 MiB/s with no fixed latency: a 2 MiB write reserves ~2s.
			model := netsim.New(netsim.Params{Bandwidth: 1 << 20})
			s, err := Listen(Config{Root: t.TempDir(), Model: model, Name: "slow"}, "")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Raw conn: ship a 2 MiB write, then abandon it mid-service.
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			data := make([]byte, 2<<20)
			if err := wire.WriteRequestV2(conn, 1, &wire.Request{Op: wire.OpWrite, Path: "/big",
				Extents: []wire.Extent{{Off: 0, Len: int64(len(data))}}, Data: data}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the write to reach the device", func() bool {
				return s.Metrics().Counter(MetricRequests).Value() == 1
			})
			small := &wire.Request{Op: wire.OpWrite, Path: "/small",
				Extents: []wire.Extent{{Off: 0, Len: 1}}, Data: []byte{1}}

			// Whoever arrives after the abandonment must not queue behind
			// the dead request's 2s reservation.
			start := time.Now()
			if tc.keepConn {
				if err := wire.NewFrameWriter(conn).WriteCancel(1); err != nil {
					t.Fatal(err)
				}
				if resp, err := wire.ReadResponseV2Into(conn, 1, nil); err != nil || resp.Err == "" {
					t.Fatalf("cancelled tag answered %+v, %v; want an error response", resp, err)
				}
				if err := wire.WriteRequestV2(conn, 2, small); err != nil {
					t.Fatal(err)
				}
				if resp, err := wire.ReadResponseV2Into(conn, 2, nil); err != nil || resp.Err != "" {
					t.Fatalf("next tag on the same conn: %+v, %v", resp, err)
				}
			} else {
				conn.Close()
				waitFor(t, "the session to end", func() bool {
					return s.Metrics().Gauge(MetricActiveConns).Value() == 0
				})
				c := NewClient(s.Addr())
				defer c.Close()
				if _, err := c.Do(ctxT(t), small); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("request after abandonment took %v, want well under the 2s reservation", d)
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchdogDoesNotDisturbPipelining: back-to-back requests on one
// connection to a shaped server must flow normally — each op's
// cancellation scope (its tag's context; once a watchdog on the conn)
// starts and stops without swallowing bytes or leaving a deadline
// behind.
func TestWatchdogDoesNotDisturbPipelining(t *testing.T) {
	model := netsim.New(netsim.Params{RequestLatency: 100 * time.Microsecond, Bandwidth: 100 << 20})
	s, err := Listen(Config{Root: t.TempDir(), Model: model, Name: "shaped"}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(s.Addr())
	defer c.Close()
	ctx := context.Background()
	payload := []byte("pipeline")
	for i := 0; i < 50; i++ {
		if _, err := c.Do(ctx, &wire.Request{Op: wire.OpWrite, Path: "/w",
			Extents: []wire.Extent{{Off: int64(i * len(payload)), Len: int64(len(payload))}},
			Data:    payload}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		resp, err := c.Do(ctx, &wire.Request{Op: wire.OpRead, Path: "/w",
			Extents: []wire.Extent{{Off: int64(i * len(payload)), Len: int64(len(payload))}}})
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(resp.Data) != string(payload) {
			t.Fatalf("read %d = %q, want %q", i, resp.Data, payload)
		}
	}
	// One conn carried everything: nothing poisoned it.
	if got := s.Metrics().Counter(MetricConnsTotal).Value(); got != 1 {
		t.Fatalf("server saw %d conns, want 1", got)
	}
}
