package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpfs/internal/wire"
)

// writeAt is a test shorthand for one OpWrite.
func writeAt(t *testing.T, cli *Client, path string, gen, off int64, data []byte) {
	t.Helper()
	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpWrite, Path: path, Gen: gen,
		Extents: []wire.Extent{{Off: off, Len: int64(len(data))}}, Data: data,
	}); err != nil {
		t.Fatal(err)
	}
}

func readAt(t *testing.T, cli *Client, path string, gen, off, n int64) []byte {
	t.Helper()
	resp, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpRead, Path: path, Gen: gen,
		Extents: []wire.Extent{{Off: off, Len: n}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Data
}

// TestCopyPullFromPeer: the repair pull form — a destination server
// fetches brick extents from a source server's subfile and writes them
// at its own (destination) offsets.
func TestCopyPullFromPeer(t *testing.T) {
	src, srcCli := startServer(t, nil)
	_, dstCli := startServer(t, nil)

	// Source holds two bricks at slots 0 and 1 of gen 2.
	srcData0 := bytes.Repeat([]byte{0xAB}, 4096)
	srcData1 := bytes.Repeat([]byte{0xCD}, 4096)
	writeAt(t, srcCli, "f.dat", 2, 0, srcData0)
	writeAt(t, srcCli, "f.dat", 2, 4096, srcData1)
	// Pull both bricks: on dst they land at slots 1 and 0 (swapped),
	// exercising independent (dst, src) extent pairs.
	if _, err := dstCli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 2,
		Extents: []wire.Extent{
			{Off: 4096, Len: 4096}, {Off: 0, Len: 4096}, // dst slot 1 <- src slot 0
			{Off: 0, Len: 4096}, {Off: 4096, Len: 4096}, // dst slot 0 <- src slot 1
		},
		Data: []byte(wire.FormatCopySource(src.Addr(), "f.dat", 2)),
	}); err != nil {
		t.Fatal(err)
	}
	if got := readAt(t, dstCli, "f.dat", 2, 4096, 4096); !bytes.Equal(got, srcData0) {
		t.Fatal("pulled brick at dst slot 1 diverges from source slot 0")
	}
	if got := readAt(t, dstCli, "f.dat", 2, 0, 4096); !bytes.Equal(got, srcData1) {
		t.Fatal("pulled brick at dst slot 0 diverges from source slot 1")
	}
}

// TestCopyLocalGenBump: the repair retention form — a server carries
// its own bricks into a new generation, leaving the old generation's
// subfile on disk (crash safety: the catalog may still point at it).
func TestCopyLocalGenBump(t *testing.T) {
	srv, cli := startServer(t, nil)
	data := bytes.Repeat([]byte{0x5A}, 4096)
	writeAt(t, cli, "f.dat", 1, 0, data)

	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 3,
		Extents: []wire.Extent{{Off: 0, Len: 4096}, {Off: 0, Len: 4096}},
		Data:    []byte(wire.FormatCopySource("", "f.dat", 1)),
	}); err != nil {
		t.Fatal(err)
	}
	if got := readAt(t, cli, "f.dat", 3, 0, 4096); !bytes.Equal(got, data) {
		t.Fatal("bumped generation diverges from the original bytes")
	}
	// The old generation must still exist on disk: repair has not
	// committed the catalog yet, and a crash now must leave gen 1
	// recoverable.
	if _, err := os.Stat(filepath.Join(srv.cfg.Root, "f.dat@g1")); err != nil {
		t.Fatalf("old generation removed before cleanup: %v", err)
	}
	// But serving it is refused: the server's gen memory moved on.
	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpRead, Path: "f.dat", Gen: 1,
		Extents: []wire.Extent{{Off: 0, Len: 4096}},
	}); err == nil || !strings.Contains(err.Error(), "stale generation") {
		t.Fatalf("read at superseded gen = %v, want stale generation", err)
	}
}

// TestCopyCleanupForm: the post-commit form deletes superseded on-disk
// generations and leaves the committed one serving.
func TestCopyCleanupForm(t *testing.T) {
	srv, cli := startServer(t, nil)
	data := bytes.Repeat([]byte{0x77}, 4096)
	writeAt(t, cli, "f.dat", 1, 0, data)
	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 2,
		Extents: []wire.Extent{{Off: 0, Len: 4096}, {Off: 0, Len: 4096}},
		Data:    []byte(wire.FormatCopySource("", "f.dat", 1)),
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 2,
		Data: []byte(wire.FormatCopySource("", "", 0)),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(srv.cfg.Root, "f.dat@g1")); !os.IsNotExist(err) {
		t.Fatalf("cleanup left the superseded generation on disk (err=%v)", err)
	}
	if got := readAt(t, cli, "f.dat", 2, 0, 4096); !bytes.Equal(got, data) {
		t.Fatal("committed generation lost after cleanup")
	}

	// The cleanup form takes no extents.
	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 2,
		Extents: []wire.Extent{{Off: 0, Len: 1}, {Off: 0, Len: 1}},
		Data:    []byte(wire.FormatCopySource("", "", 0)),
	}); err == nil {
		t.Fatal("cleanup form with extents accepted, want error")
	}
}

// TestCopyValidation covers the malformed-request guards.
func TestCopyValidation(t *testing.T) {
	_, cli := startServer(t, nil)
	// Odd extent count: extents must come in (dst, src) pairs.
	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 1,
		Extents: []wire.Extent{{Off: 0, Len: 4096}},
		Data:    []byte(wire.FormatCopySource("", "f.dat", 0)),
	}); err == nil {
		t.Fatal("odd extent count accepted, want error")
	}
	// Length mismatch within a pair.
	if _, err := cli.Do(ctxT(t), &wire.Request{
		Op: wire.OpCopy, Path: "f.dat", Gen: 1,
		Extents: []wire.Extent{{Off: 0, Len: 4096}, {Off: 0, Len: 2048}},
		Data:    []byte(wire.FormatCopySource("", "f.dat", 0)),
	}); err == nil {
		t.Fatal("mismatched pair lengths accepted, want error")
	}
}
