package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// sieveRef is the reference of a read: the bytes of file (zeros beyond
// it) that exts narrowed by sels select, and how many bytes of the file
// the extents cover — what the server must ship and what it reads.
func sieveRef(file []byte, exts []wire.Extent, sels []wire.Selection) (shipped []byte, swept int64) {
	at := func(off, n int64) []byte {
		out := make([]byte, n)
		if off < int64(len(file)) {
			copy(out, file[off:])
		}
		return out
	}
	for i, e := range exts {
		swept += max(0, min(e.Off+e.Len, int64(len(file)))-e.Off)
		if len(sels) == 0 || sels[0].Extent != i {
			shipped = append(shipped, at(e.Off, e.Len)...)
			continue
		}
		for _, r := range sels[0].Runs {
			for k := int64(0); k < r.Count; k++ {
				shipped = append(shipped, at(e.Off+r.Off+k*r.Stride, r.Len)...)
			}
		}
		sels = sels[1:]
	}
	return shipped, swept
}

// encodeSelections is the selection section a client sends for sels.
func encodeSelections(sels []wire.Selection) []byte {
	var b []byte
	for _, s := range sels {
		b = wire.AppendSelection(b, s.Extent, s.Runs)
	}
	return b
}

// readBothForms runs req through the server's buffered form (no sink:
// what a local copy source reads through) and its streamed form (every
// request off the wire) and returns each form's response and payload.
func readBothForms(t testing.TB, srv *Server, req *wire.Request) (resps [2]*wire.Response, data [2][]byte) {
	t.Helper()
	for form, stream := range []bool{false, true} {
		var emit func([]byte) error
		var got []byte
		if stream {
			emit = func(c []byte) error {
				if len(c) != wire.StreamChunk {
					t.Errorf("emitted a %d-byte chunk, want full ones", len(c))
				}
				got = append(got, c...)
				return nil
			}
		}
		resp, streamed := srv.dispatchEmit(context.Background(), req, emit)
		if int64(len(got)) != streamed {
			t.Errorf("streamed count %d, sink saw %d bytes", streamed, len(got))
		}
		got = append(got, resp.Data...)
		if resp.Data != nil {
			putReadBuf(resp.Data)
			resp.Data = nil
		}
		resps[form], data[form] = resp, got
	}
	return resps, data
}

// TestSievedReads drives selections through both forms of the one
// extent loop and checks each against the reference: the bytes, the
// response's count, what was read from the subfile (the whole of every
// span, holes included), the server.subfile span, and the storage
// model's charge — one positioning per extent plus the bytes shipped.
func TestSievedReads(t *testing.T) {
	params := netsim.Params{Name: "t", PerExtent: time.Microsecond, Bandwidth: 1 << 30}
	model := netsim.New(params)
	srv, cli := startServer(t, model)
	const chunk = wire.StreamChunk
	file := make([]byte, 3*chunk+777)
	for i := range file {
		file[i] = byte(i*7 + i>>9)
	}
	writeAt(t, cli, "f", 0, 0, file)
	size := int64(len(file))

	for _, tc := range []struct {
		name string
		path string
		exts []wire.Extent
		sels []wire.Selection
	}{
		{"a column of two bricks", "f",
			[]wire.Extent{{Off: 512, Len: 7*4096 + 512}, {Off: 65536, Len: 7*4096 + 512}},
			[]wire.Selection{
				{Extent: 0, Runs: []wire.Run{{Off: 0, Len: 512, Stride: 4096, Count: 8}}},
				{Extent: 1, Runs: []wire.Run{{Off: 0, Len: 512, Stride: 4096, Count: 8}}},
			}},
		{"plain and sieved extents mixed", "f",
			[]wire.Extent{{Off: 0, Len: 100}, {Off: 1000, Len: 500}, {Off: 90, Len: 20}, {Off: 5000, Len: 64}},
			[]wire.Selection{
				{Extent: 1, Runs: []wire.Run{{Off: 3, Len: 7, Stride: 7, Count: 1}, {Off: 100, Len: 10, Stride: 50, Count: 8}, {Off: 499, Len: 1, Stride: 1, Count: 1}}},
				{Extent: 3, Runs: []wire.Run{{Off: 0, Len: 1, Stride: 2, Count: 32}}},
			}},
		{"pieces straddling the span's windows", "f",
			[]wire.Extent{{Off: 100, Len: 2*chunk + 5000}},
			[]wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 37, Len: 5000, Stride: 7001, Count: 75}}}}},
		{"one piece longer than a window", "f",
			[]wire.Extent{{Off: 0, Len: 3 * chunk}},
			[]wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 10, Len: 2*chunk + 10, Stride: 2*chunk + 10, Count: 1}, {Off: 3*chunk - 5, Len: 5, Stride: 5, Count: 1}}}}},
		{"output crossing DATA chunks", "f",
			[]wire.Extent{{Off: 0, Len: chunk}, {Off: chunk, Len: 2 * chunk}},
			[]wire.Selection{{Extent: 1, Runs: []wire.Run{{Off: 1, Len: 4096, Stride: 6000, Count: 80}}}}},
		{"output of exactly two chunks", "f",
			[]wire.Extent{{Off: 0, Len: 3 * chunk}},
			[]wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 0, Len: chunk / 2, Stride: chunk/2 + 10, Count: 4}}}}},
		{"a span running past EOF", "f",
			[]wire.Extent{{Off: size - 300, Len: 1000}, {Off: size + 50, Len: 400}},
			[]wire.Selection{
				{Extent: 0, Runs: []wire.Run{{Off: 100, Len: 50, Stride: 150, Count: 6}}},
				{Extent: 1, Runs: []wire.Run{{Off: 0, Len: 100, Stride: 300, Count: 2}}},
			}},
		{"a missing subfile", "nosuch",
			[]wire.Extent{{Off: 0, Len: 2 * chunk}, {Off: 10, Len: 10}},
			[]wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 0, Len: 3000, Stride: 4000, Count: 100}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := file
			if tc.path != "f" {
				src = nil
			}
			want, wantSwept := sieveRef(src, tc.exts, tc.sels)
			root := obs.NewRootSpan("client.request")
			req := &wire.Request{Op: wire.OpRead, Path: tc.path, Extents: tc.exts, Sel: encodeSelections(tc.sels),
				TraceID: root.TraceID, SpanID: root.SpanID, Sampled: true}
			busy0, _ := model.Stats()
			swept0 := srv.Metrics().Counter(MetricSubfileBytesRead).Value()
			resps, data := readBothForms(t, srv, req)
			for form, resp := range resps {
				if resp.Err != "" {
					t.Fatalf("form %d: %s", form, resp.Err)
				}
				if !bytes.Equal(data[form], want) {
					t.Errorf("form %d: %d bytes back, differing from the %d selected", form, len(data[form]), len(want))
				}
				if resp.N != int64(len(want)) {
					t.Errorf("form %d: response counts %d bytes, want %d", form, resp.N, len(want))
				}
				spans, err := obs.DecodeSpans(resp.Trace)
				if err != nil || len(spans) != 1 || len(spans[0].Children()) != 1 {
					t.Fatalf("form %d: span tree %v, %v", form, spans, err)
				}
				sub := spans[0].Children()[0]
				if sub.Name != "server.subfile" || sub.Extents != len(tc.exts) || sub.Bytes != int64(len(want)) || sub.Swept != wantSwept {
					t.Errorf("form %d: subfile span %d extents, %d bytes, %d swept; want %d, %d, %d",
						form, sub.Extents, sub.Bytes, sub.Swept, len(tc.exts), len(want), wantSwept)
				}
			}
			if got := srv.Metrics().Counter(MetricSubfileBytesRead).Value() - swept0; got != 2*wantSwept {
				t.Errorf("subfile_bytes_read_total moved by %d over the two reads, want 2 x %d", got, wantSwept)
			}
			busy, _ := model.Stats()
			if got, want := busy-busy0, 2*params.ServiceTime(len(tc.exts), int64(len(want))); got != want {
				t.Errorf("model charged %v for the two reads, want %v: a positioning per extent and the bytes shipped", got, want)
			}

			// And over a real connection.
			c := NewClient(srv.Addr())
			resp, err := c.Do(ctxT(t), &wire.Request{Op: wire.OpRead, Path: tc.path, Extents: tc.exts, Sel: req.Sel})
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Data, want) {
				t.Errorf("over the wire: %d bytes back, differing from the %d selected", len(resp.Data), len(want))
			}
		})
	}
}

// rawSelection encodes one selection entry field by field, so that a
// test can write what AppendSelection never would.
func rawSelection(ext, nruns uint32, fields ...uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(nil, ext), nruns)
	for _, f := range fields {
		b = le.AppendUint64(b, f)
	}
	return b
}

// TestSelectionRefused: a malformed selection or extent, a write whose
// payload is not what its selections count, or a payload or selection
// on an op that takes none, is an error returned before the storage
// model is charged, subfile I/O is timed, a server.subfile span is
// opened or a byte is written. Rows without ops run as a READ and as a
// WRITE: the two parse a selection the same way.
func TestSelectionRefused(t *testing.T) {
	model := netsim.New(netsim.Params{Name: "t", PerExtent: time.Microsecond})
	srv, cli := startServer(t, model)
	writeAt(t, cli, "f", 0, 0, fillByte(8192, 5))
	exts := []wire.Extent{{Off: 0, Len: 1000}, {Off: 4096, Len: 1000}}
	good := rawSelection(0, 1, 0, 10, 100, 10) // 100 of the first extent's bytes: 1100 travel
	neg := func(v int64) uint64 { return uint64(v) }
	wrapping := func(n int) []wire.Extent {
		out := make([]wire.Extent, n)
		for i := range out {
			out[i] = wire.Extent{Len: 1<<62 + 1}
		}
		return out
	}
	dataOps := []wire.Op{wire.OpRead, wire.OpWrite}
	only := func(op wire.Op) []wire.Op { return []wire.Op{op} }

	for _, tc := range []struct {
		name string
		ops  []wire.Op // nil: both data ops
		exts []wire.Extent
		sel  []byte
		data []byte
		want string
	}{
		{name: "truncated header", sel: good[:5], want: "truncated selection"},
		{name: "truncated run", sel: good[:len(good)-1], want: "runs in"},
		{name: "run count beyond the payload", sel: rawSelection(0, 2, 0, 10, 100, 10), want: "runs in"},
		{name: "no runs", sel: rawSelection(0, 0), want: "runs in"},
		{name: "trailing bytes", sel: append(append([]byte(nil), good...), 1, 2, 3), want: "truncated selection"},
		{name: "extent out of range", sel: rawSelection(2, 1, 0, 10, 100, 10), want: "names extent"},
		{name: "extent named twice", sel: append(append([]byte(nil), good...), good...), want: "names extent"},
		{name: "extents out of order", sel: append(rawSelection(1, 1, 0, 10, 100, 10), good...), want: "names extent"},
		{name: "run leaving its span", sel: rawSelection(0, 1, 0, 10, 100, 11), want: "invalid run"},
		{name: "piece leaving its span", sel: rawSelection(0, 1, 995, 10, 10, 1), want: "invalid run"},
		{name: "piece longer than its span", sel: rawSelection(0, 1, 0, 1001, 1001, 1), want: "invalid run"},
		{name: "stride below len", sel: rawSelection(0, 1, 0, 10, 9, 2), want: "invalid run"},
		{name: "zero len", sel: rawSelection(0, 1, 0, 0, 10, 2), want: "invalid run"},
		{name: "zero count", sel: rawSelection(0, 1, 0, 10, 10, 0), want: "invalid run"},
		{name: "negative offset", sel: rawSelection(0, 1, neg(-8), 10, 10, 1), want: "invalid run"},
		{name: "negative stride", sel: rawSelection(0, 1, 0, 10, neg(-100), 2), want: "invalid run"},
		{name: "overlapping runs", sel: rawSelection(0, 2, 0, 10, 100, 5, 405, 10, 10, 1), want: "invalid run"},
		{name: "descending runs", sel: rawSelection(0, 2, 500, 10, 10, 1, 0, 10, 10, 1), want: "invalid run"},
		{name: "count x len overflowing", sel: rawSelection(0, 1, 0, 4, 4, 1<<62), want: "invalid run"},
		{name: "count x stride overflowing", sel: rawSelection(0, 1, 0, 1, math.MaxInt64, math.MaxInt64), want: "invalid run"},
		// The disk would refuse this one with EINVAL, and a disk error
		// marks the server degraded until it restarts.
		{name: "extent end overflowing", exts: []wire.Extent{{Off: math.MaxInt64 - 2, Len: 4}}, data: fillByte(4, 9), want: "invalid extent"},
		{name: "extent end overflowing under a selection", exts: []wire.Extent{{Off: math.MaxInt64 - 2, Len: 4}},
			sel: rawSelection(0, 1, 0, 1, 2, 2), data: fillByte(2, 9), want: "invalid extent"},
		// Four lengths past the bound whose sum wraps to 4: the WRITE's
		// 4-byte payload must not reach the scatter loop, nor a READ sweep
		// 2^62 bytes an extent, nor a COPY (its extents in pairs).
		{name: "extent lengths summing past the bound", exts: wrapping(4), data: fillByte(4, 9), want: "out of range"},
		{name: "copy extent lengths summing past the bound", ops: only(wire.OpCopy), exts: wrapping(8), want: "out of range"},
		{name: "a write payload short of its selection", ops: only(wire.OpWrite), sel: good, data: fillByte(1099, 9), want: "write carries"},
		{name: "a write payload long for its selection", ops: only(wire.OpWrite), sel: good, data: fillByte(1101, 9), want: "write carries"},
		{name: "a write payload sized for the unselected extents", ops: only(wire.OpWrite), sel: good, data: fillByte(2000, 9), want: "write carries"},
		{name: "a payload on READ", ops: only(wire.OpRead), data: good, want: "takes no payload"},
		{name: "a payload on STAT", ops: only(wire.OpStat), data: good, want: "takes no payload"},
		{name: "a payload on REMOVE", ops: only(wire.OpRemove), data: good, want: "takes no payload"},
		{name: "a payload on TRUNCATE", ops: only(wire.OpTruncate), data: good, want: "takes no payload"},
		{name: "a payload on PING", ops: only(wire.OpPing), data: good, want: "takes no payload"},
		{name: "a selection on any other op", sel: good, want: "takes no selection",
			ops: []wire.Op{wire.OpPing, wire.OpRemove, wire.OpStat, wire.OpUsage, wire.OpTruncate, wire.OpRename, wire.OpCopy}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := tc.ops
			if ops == nil {
				ops = dataOps
			}
			for _, op := range ops {
				root := obs.NewRootSpan("client.request")
				req := &wire.Request{Op: op, Path: "f", Extents: exts, Sel: tc.sel, Data: tc.data,
					TraceID: root.TraceID, SpanID: root.SpanID, Sampled: true}
				switch {
				case tc.exts != nil:
					req.Extents = tc.exts
				case op == wire.OpTruncate:
					req.Extents = exts[:1]
				}
				if op == wire.OpRead && tc.ops == nil {
					req.Data = nil // a row for both ops carries its payload on the WRITE alone
				}
				switch op {
				case wire.OpRename:
					req.Data = []byte("g")
				case wire.OpCopy:
					req.Data = wire.FormatCopySource("", "f", 0)
				}
				busy0, reqs0 := model.Stats()
				io0 := srv.Metrics().Snapshot().Histograms[MetricSubfileIO].Count
				resps, data := readBothForms(t, srv, req)
				for form, resp := range resps {
					if !strings.Contains(resp.Err, tc.want) {
						t.Errorf("%v, form %d: answered %q, want an error with %q", op, form, resp.Err, tc.want)
					}
					if len(data[form]) != 0 {
						t.Errorf("%v, form %d: a refused request shipped %d bytes", op, form, len(data[form]))
					}
					if spans, err := obs.DecodeSpans(resp.Trace); err != nil || len(spans) != 1 || len(spans[0].Children()) != 0 {
						t.Errorf("%v, form %d: a refused request opened child spans: %v, %v", op, form, spans, err)
					}
				}
				if busy, reqs := model.Stats(); busy != busy0 || reqs != reqs0 {
					t.Errorf("%v: a refused request was charged to the model (%v, %d requests)", op, busy-busy0, reqs-reqs0)
				}
				if got := srv.Metrics().Snapshot().Histograms[MetricSubfileIO].Count; got != io0 {
					t.Errorf("%v: a refused request recorded %d subfile_io_us samples", op, got-io0)
				}
			}
		})
	}
	// The file every refused request named is untouched — no piece of a
	// refused WRITE landed, nothing was removed, cut or renamed — and
	// none of them got as far as the disk.
	if got := readAt(t, cli, "f", 0, 0, 8193); !bytes.Equal(got, append(fillByte(8192, 5), 0)) {
		t.Error("a refused request changed the subfile")
	}
	if resp, err := cli.Do(ctxT(t), &wire.Request{Op: wire.OpStat, Path: "f"}); err != nil {
		t.Error(err)
	} else if resp.N != 8192 {
		t.Errorf("the subfile is %d bytes after the refused requests, want 8192", resp.N)
	}
	if n := srv.Metrics().Counter(MetricDiskErrors).Value(); n != 0 || srv.Health().Status != "ok" {
		t.Errorf("refused requests left disk_errors_total = %d, health %q; want 0 and ok", n, srv.Health().Status)
	}
}

// TestSievedReadCancelledMidStream: a sink that fails while a sieved
// read streams (the connection died, the tag was cancelled) ends the
// read there, with its subfile span closed and its time recorded; the
// window and chunk buffers go back to the pool, so the next read of the
// same shape finds them clean.
func TestSievedReadCancelledMidStream(t *testing.T) {
	srv, cli := startServerV2(t, ClientConfig{})
	const chunk = wire.StreamChunk
	file := make([]byte, 3*chunk)
	for i := range file {
		file[i] = byte(i * 13)
	}
	writeAt(t, cli, "f", 0, 0, file)
	exts := []wire.Extent{{Off: 0, Len: 3 * chunk}}
	sels := []wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 5, Len: 5000, Stride: 5001, Count: 150}}}}
	req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: exts, Sel: encodeSelections(sels)}

	gone := errors.New("peer gone")
	io0 := srv.Metrics().Snapshot().Histograms[MetricSubfileIO].Count
	emits := 0
	resp, streamed := srv.dispatchEmit(ctxT(t), req, func([]byte) error {
		emits++
		if emits == 2 {
			return gone
		}
		return nil
	})
	if !strings.Contains(resp.Err, gone.Error()) || resp.Data != nil || streamed != chunk {
		t.Errorf("cancelled read answered %q with %d bytes after %d streamed, want the sink's error after one chunk", resp.Err, len(resp.Data), streamed)
	}
	if got := srv.Metrics().Snapshot().Histograms[MetricSubfileIO].Count - io0; got != 1 {
		t.Errorf("cancelled read recorded %d subfile_io_us samples, want 1", got)
	}
	want, _ := sieveRef(file, exts, sels)
	got, err := cli.Do(ctxT(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Error("the read after a cancelled one returned wrong bytes")
	}
}

// FuzzSelection feeds the read path arbitrary selection sections over
// two extents of arbitrary placement. Whatever arrives, both forms of
// the extent loop agree; a refusal ships nothing; and an accepted
// selection ships exactly what the reference sieve selects — never
// more than its extents hold.
func FuzzSelection(f *testing.F) {
	srv, err := Listen(Config{Root: f.TempDir(), Name: "fuzz-io"}, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	const chunk = wire.StreamChunk
	file := make([]byte, 2*chunk+999)
	for i := range file {
		file[i] = byte(i*11 + i>>8)
	}
	if resp, _ := srv.dispatchEmit(context.Background(), &wire.Request{Op: wire.OpWrite, Path: "f", Extents: []wire.Extent{{Off: 0, Len: int64(len(file))}}, Data: file}, nil); resp.Err != "" {
		f.Fatal(resp.Err)
	}

	f.Add([]byte(nil), uint32(0), uint32(4096), uint32(8192), uint32(100))
	f.Add(rawSelection(0, 1, 0, 512, 4096, 8), uint32(512), uint32(7*4096+512), uint32(65536), uint32(4096))
	f.Add(append(rawSelection(0, 1, 37, 5000, 7001, 70), rawSelection(1, 2, 0, 1, 2, 10, 50, 5, 5, 1)...), uint32(100), uint32(2*chunk), uint32(3), uint32(600))
	f.Add(rawSelection(1, 1, 0, 100, 300, 2), uint32(0), uint32(10), uint32(2*chunk+900), uint32(400))
	f.Add(rawSelection(0, 1, 0, 4, 4, 1<<62), uint32(0), uint32(1000), uint32(0), uint32(0))
	f.Add(rawSelection(0, 2, 0, 10, 100, 5, 405, 10, 10, 1)[:50], uint32(0), uint32(1000), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, payload []byte, off0, len0, off1, len1 uint32) {
		// Offsets within and a little past the file, lengths up to a few
		// windows.
		exts := []wire.Extent{
			{Off: int64(off0) % (3 * chunk), Len: int64(len0) % (3 * chunk)},
			{Off: int64(off1) % (3 * chunk), Len: int64(len1) % (3 * chunk)},
		}
		req := &wire.Request{Op: wire.OpRead, Path: "f", Extents: exts, Sel: payload}
		resps, data := readBothForms(t, srv, req)
		if resps[0].Err != resps[1].Err || !bytes.Equal(data[0], data[1]) {
			t.Fatalf("the two forms disagree: %q with %d bytes, %q with %d", resps[0].Err, len(data[0]), resps[1].Err, len(data[1]))
		}
		sels, total, err := wire.ParseSelections(payload, exts)
		if err != nil {
			if resps[0].Err == "" || len(data[0]) != 0 {
				t.Fatalf("a selection that does not parse (%v) was served: %q, %d bytes", err, resps[0].Err, len(data[0]))
			}
			return
		}
		if resps[0].Err != "" {
			t.Fatalf("a valid selection was refused: %s", resps[0].Err)
		}
		want, _ := sieveRef(file, exts, sels)
		if total != int64(len(want)) || total > wire.DataBytes(exts) {
			t.Fatalf("selection of %d bytes from extents of %d; the reference selects %d", total, wire.DataBytes(exts), len(want))
		}
		if !bytes.Equal(data[0], want) {
			t.Fatalf("%d bytes back, differing from the %d selected", len(data[0]), len(want))
		}
	})
}
