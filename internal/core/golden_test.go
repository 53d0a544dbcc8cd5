package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net"
	"sync"
	"testing"

	"dpfs/internal/core"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
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
func (l *sentLog) take() string { return hex.EncodeToString(l.takeRaw()) }

func (l *sentLog) takeRaw() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sent
	l.sent = nil
	return s
}

// dial returns a core.Options.Dial that records into l what the engine
// sends to any I/O server.
func (l *sentLog) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	return sentConn{conn, l}, err
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
	fs := newFS(t, c, 1, core.Options{Combine: true, Dial: log.dial})
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

// TestPlainWriteRequestGolden is the write-side twin: a write whose
// pieces fill their span — a few KiB inside one brick, a run of whole
// bricks, one whole tile — carries no selection, and puts on the wire
// exactly what the engine sent before writes could carry one. Each
// golden is the REQ frame and the SHA-256 of everything sent, DATA
// frames included.
func TestPlainWriteRequestGolden(t *testing.T) {
	c := startCluster(t, 1)
	ctx := ctxT(t)
	log := &sentLog{}
	fs := newFS(t, c, 0, core.Options{Combine: true, Dial: log.dial})
	lin, err := fs.Create("/golden", 1, []int64{256 << 10}, core.Hint{Level: stripe.LevelLinear, BrickBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Close()
	tiled, err := fs.Create("/gtile", 8, []int64{128, 128}, core.Hint{Level: stripe.LevelMultidim, Tile: []int64{64, 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer tiled.Close()

	// Recorded from the parent commit of the change that added write
	// selections: tags 3 to 5 of the mux, the second file under
	// generation 2, one extent each and its length again as the payload
	// length closing the body.
	for _, w := range []struct {
		name     string
		do       func() error
		req, sum string
	}{
		{"4 KiB inside a brick", func() error { return lin.WriteAt(ctx, pattern(4096), 64<<10+8192) },
			"da020100030000003b00000000000000000000000000000000000000030007002f676f6c64656e0100000000000000010000000020010000000000001000000000000000100000",
			"d8da108653353776991bc8eec18798be6af89cb08c11ffad81c9781eac071dcc"},
		{"two whole bricks", func() error { return lin.WriteAt(ctx, pattern(128<<10), 64<<10) },
			"da020100040000003b00000000000000000000000000000000000000030007002f676f6c64656e0100000000000000010000000000010000000000000002000000000000000200",
			"96121d8f1342033921b5a3e2c6ed41a608d00eacf8a52a0673c85b191e5d2fd8"},
		{"one whole tile", func() error {
			return tiled.WriteSection(ctx, stripe.NewSection([]int64{64, 0}, []int64{64, 64}), pattern(32<<10))
		},
			"da020100050000003a00000000000000000000000000000000000000030006002f6774696c650200000000000000010000000000010000000000008000000000000000800000",
			"d9b39e002159a71fafb113f62ff5edea5b426e3b0737a77ade0457ec0c45d7a3"},
	} {
		log.takeRaw()
		if err := w.do(); err != nil {
			t.Fatal(err)
		}
		sent := log.takeRaw()
		if len(sent) < wire.FrameHeaderLen {
			t.Fatalf("%s sent %d bytes", w.name, len(sent))
		}
		n := wire.FrameHeaderLen + int(binary.LittleEndian.Uint32(sent[8:12]))
		if n > len(sent) {
			t.Fatalf("%s sent %d bytes, short of its %d-byte REQ frame", w.name, len(sent), n)
		}
		sum := sha256.Sum256(sent)
		if req := hex.EncodeToString(sent[:n]); req != w.req || hex.EncodeToString(sum[:]) != w.sum {
			t.Errorf("%s sent REQ frame\n%s\nin a stream summing to %x, want\n%s\nand %s", w.name, req, sum, w.req, w.sum)
		}
	}
}
