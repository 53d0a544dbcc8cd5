package core_test

import (
	"context"
	"encoding/hex"
	"net"
	"sync"
	"testing"

	"dpfs/internal/core"
	"dpfs/internal/stripe"
)

// sentConn records what the client writes to an I/O server.
type sentConn struct {
	net.Conn
	log *sentLog
}

type sentLog struct {
	mu   sync.Mutex
	sent []byte
}

func (c sentConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.sent = append(c.log.sent, p...)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the bytes sent since the last take.
func (l *sentLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := hex.EncodeToString(l.sent)
	l.sent = nil
	return s
}

// TestPlainReadRequestGolden pins the bytes a read that wants all of
// its span puts on the wire — a few KiB inside one brick, and a run of
// whole bricks — to what the engine sent before reads could carry
// selections: such a read carries none, so servers, repair pulls and
// recorded requests of either vintage interoperate.
func TestPlainReadRequestGolden(t *testing.T) {
	c := startCluster(t, 1)
	ctx := ctxT(t)
	w := newFS(t, c, 0, core.Options{Combine: true})
	f, err := w.Create("/golden", 1, []int64{256 << 10}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(ctx, pattern(256<<10), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recorded from the parent commit of the change that added
	// selections: one REQ frame under the mux's first two tags — path,
	// generation 1, one extent, an empty payload — and no DATA frame
	// behind it.
	golden := [2]string{
		"da020100010000003b00000000000000000000000000000000000000020007002f676f6c64656e0100000000000000010000000020010000000000001000000000000000000000",
		"da020100020000003b00000000000000000000000000000000000000020007002f676f6c64656e0100000000000000010000000000010000000000000002000000000000000000",
	}
	log := &sentLog{}
	fs := newFS(t, c, 1, core.Options{Combine: true,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			return sentConn{conn, log}, err
		}})
	f, err = fs.Open("/golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, rd := range []struct{ off, n int64 }{{64<<10 + 8192, 4096}, {64 << 10, 128 << 10}} {
		log.take()
		if err := f.ReadAt(ctx, make([]byte, rd.n), rd.off); err != nil {
			t.Fatal(err)
		}
		if got := log.take(); got != golden[i] {
			t.Errorf("read of %d at %d sent\n%s\nwant\n%s", rd.n, rd.off, got, golden[i])
		}
	}
}
