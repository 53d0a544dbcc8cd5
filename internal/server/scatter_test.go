package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dpfs/internal/netsim"
	"dpfs/internal/obs"
	"dpfs/internal/wire"
)

// scatterRef is the reference of a write: file after payload — the
// bytes of exts narrowed by sels, in order — has been stored into it.
// The file grows, zero-filled, to the end of the furthest byte written
// and no further: a span's unselected tail is not part of the write.
func scatterRef(file []byte, exts []wire.Extent, sels []wire.Selection, payload []byte) []byte {
	put := func(off, n int64) {
		if n == 0 {
			return
		}
		if grow := off + n - int64(len(file)); grow > 0 {
			file = append(file, make([]byte, grow)...)
		}
		copy(file[off:off+n], payload)
		payload = payload[n:]
	}
	for i, e := range exts {
		if len(sels) == 0 || sels[0].Extent != i {
			put(e.Off, e.Len)
			continue
		}
		for _, r := range sels[0].Runs {
			for k := int64(0); k < r.Count; k++ {
				put(e.Off+r.Off+k*r.Stride, r.Len)
			}
		}
		sels = sels[1:]
	}
	return file
}

// stored returns the subfile's bytes, its size taken from STAT — so a
// byte written past where the reference ends shows as a length mismatch.
func stored(t testing.TB, srv *Server, path string) []byte {
	t.Helper()
	st, _ := srv.dispatchEmit(context.Background(), &wire.Request{Op: wire.OpStat, Path: path}, nil)
	if st.Err != "" {
		t.Fatal(st.Err)
	}
	resp, _ := srv.dispatchEmit(context.Background(), &wire.Request{Op: wire.OpRead, Path: path, Extents: []wire.Extent{{Off: 0, Len: st.N}}}, nil)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	out := bytes.Clone(resp.Data)
	putReadBuf(resp.Data)
	return out
}

// TestScatterWrites drives write selections through the one write loop,
// directly and over a real connection (where the payload arrives as
// DATA frames), and checks each against the reference scatter: the
// subfile's bytes and length afterwards, the response's count, the
// bytes_in_total it added, the server.subfile span, and the storage
// model's charge — one positioning per extent plus the bytes shipped,
// and nothing per run or piece.
func TestScatterWrites(t *testing.T) {
	params := netsim.Params{Name: "t", PerExtent: time.Microsecond, Bandwidth: 1 << 30}
	model := netsim.New(params)
	srv, cli := startServer(t, model)
	const chunk = wire.StreamChunk
	base := make([]byte, 3*chunk+777)
	for i := range base {
		base[i] = byte(i*7 + i>>9)
	}
	size := int64(len(base))
	column := func(n int) (exts []wire.Extent, sels []wire.Selection) {
		for i := 0; i < n; i++ {
			exts = append(exts, wire.Extent{Off: int64(i)*32768 + 512, Len: 7*4096 + 512})
			sels = append(sels, wire.Selection{Extent: i, Runs: []wire.Run{{Off: 0, Len: 512, Stride: 4096, Count: 8}}})
		}
		return exts, sels
	}
	colExts, colSels := column(16)

	for _, tc := range []struct {
		name    string
		missing bool // the subfile does not exist before the write
		exts    []wire.Extent
		sels    []wire.Selection
		shipped int64 // pinned where the issue names the number
	}{
		{name: "the column shape: 16 spans of eight pieces", exts: colExts, sels: colSels, shipped: 65536},
		{name: "plain and sieved extents mixed",
			exts: []wire.Extent{{Off: 0, Len: 100}, {Off: 1000, Len: 500}, {Off: 90, Len: 20}, {Off: 5000, Len: 64}, {Off: 7000, Len: 0}},
			sels: []wire.Selection{
				{Extent: 1, Runs: []wire.Run{{Off: 3, Len: 7, Stride: 7, Count: 1}, {Off: 100, Len: 10, Stride: 50, Count: 8}, {Off: 499, Len: 1, Stride: 1, Count: 1}}},
				{Extent: 3, Runs: []wire.Run{{Off: 0, Len: 1, Stride: 2, Count: 32}}},
			}},
		{name: "pieces crossing DATA-frame boundaries",
			exts: []wire.Extent{{Off: 100, Len: 2*chunk + 5000}},
			sels: []wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 37, Len: 5000, Stride: 7001, Count: 75}}}}},
		{name: "one piece larger than StreamChunk",
			exts: []wire.Extent{{Off: 0, Len: 3 * chunk}},
			sels: []wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 10, Len: 2*chunk + 10, Stride: 2*chunk + 10, Count: 1}, {Off: 3*chunk - 5, Len: 5, Stride: 5, Count: 1}}}}},
		{name: "a payload of exactly two chunks",
			exts: []wire.Extent{{Off: 0, Len: 3 * chunk}},
			sels: []wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 0, Len: chunk / 2, Stride: chunk/2 + 10, Count: 4}}}}},
		{name: "a span running past EOF",
			exts: []wire.Extent{{Off: size - 300, Len: 1000}, {Off: size + 2000, Len: 400}},
			sels: []wire.Selection{
				{Extent: 0, Runs: []wire.Run{{Off: 100, Len: 50, Stride: 150, Count: 5}}},
				{Extent: 1, Runs: []wire.Run{{Off: 0, Len: 100, Stride: 250, Count: 2}}},
			}},
		{name: "past EOF into a missing subfile", missing: true,
			exts: []wire.Extent{{Off: 4096, Len: 2 * chunk}, {Off: 10, Len: 10}},
			sels: []wire.Selection{{Extent: 0, Runs: []wire.Run{{Off: 100, Len: 3000, Stride: 4000, Count: 100}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, shipped, err := wire.ParseSelections(encodeSelections(tc.sels), tc.exts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.shipped != 0 && shipped != tc.shipped {
				t.Fatalf("the case ships %d bytes, want %d", shipped, tc.shipped)
			}
			payload := make([]byte, shipped)
			for i := range payload {
				payload[i] = byte(i*13+i>>7) | 1 // never the zero a hole reads as
			}
			var before []byte
			if !tc.missing {
				before = bytes.Clone(base)
			}
			want := scatterRef(before, tc.exts, tc.sels, payload)

			for _, wired := range []bool{false, true} {
				path := t.Name()
				if wired {
					path += "-wired"
				}
				if !tc.missing {
					writeAt(t, cli, path, 0, 0, base)
				}
				root := obs.NewRootSpan("client.request")
				req := &wire.Request{Op: wire.OpWrite, Path: path, Extents: tc.exts, Sel: encodeSelections(tc.sels), Data: payload,
					TraceID: root.TraceID, SpanID: root.SpanID, Sampled: true}
				busy0, _ := model.Stats()
				in0 := srv.Metrics().Counter(MetricBytesIn).Value()
				var resp *wire.Response
				if wired {
					if resp, err = cli.Do(ctxT(t), req); err != nil {
						t.Fatal(err)
					}
				} else if resp, _ = srv.dispatchEmit(context.Background(), req, nil); resp.Err != "" {
					t.Fatal(resp.Err)
				}
				if resp.N != shipped {
					t.Errorf("wired %v: response counts %d bytes, want %d", wired, resp.N, shipped)
				}
				if got := srv.Metrics().Counter(MetricBytesIn).Value() - in0; got != shipped {
					t.Errorf("wired %v: bytes_in_total moved by %d, want the %d of the payload", wired, got, shipped)
				}
				busy, _ := model.Stats()
				if got, want := busy-busy0, params.ServiceTime(len(tc.exts), shipped); got != want {
					t.Errorf("wired %v: model charged %v, want %v: a positioning per extent and the bytes shipped", wired, got, want)
				}
				spans, err := obs.DecodeSpans(resp.Trace)
				if err != nil || len(spans) != 1 || len(spans[0].Children()) != 1 {
					t.Fatalf("wired %v: span tree %v, %v", wired, spans, err)
				}
				if sub := spans[0].Children()[0]; sub.Name != "server.subfile" || sub.Op != "write" || sub.Extents != len(tc.exts) || sub.Bytes != shipped {
					t.Errorf("wired %v: subfile span %q %d extents, %d bytes; want write, %d, %d", wired, sub.Op, sub.Extents, sub.Bytes, len(tc.exts), shipped)
				}
				if got := stored(t, srv, path); !bytes.Equal(got, want) {
					t.Errorf("wired %v: the subfile holds %d bytes, differing from the reference's %d", wired, len(got), len(want))
				}
			}
		})
	}
}

// FuzzScatterWrite feeds the write path arbitrary selection sections
// and payloads over two extents of arbitrary placement, against a
// subfile reset before every write. Whatever arrives, the write is
// either refused before any byte lands — when the selection does not
// parse or the payload is not what it counts — or every byte ends up
// where the reference scatter puts it and nowhere else. An input whose
// selection parses is then sent again with a payload cut or stretched
// to fit, so the accepted side is reached from any valid selection.
func FuzzScatterWrite(f *testing.F) {
	srv, err := Listen(Config{Root: f.TempDir(), Name: "fuzz-io"}, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	const reach = 1 << 16 // offsets and lengths stay below it
	base := make([]byte, reach/2+999)
	for i := range base {
		base[i] = byte(i*11+i>>8) | 1
	}
	must := func(req *wire.Request) {
		if resp, _ := srv.dispatchEmit(context.Background(), req, nil); resp.Err != "" {
			f.Fatal(resp.Err)
		}
	}

	f.Add([]byte(nil), fillByte(4196, 2), uint32(0), uint32(4096), uint32(8192), uint32(100))
	f.Add(rawSelection(0, 1, 0, 512, 4096, 8), fillByte(4096+100, 2), uint32(512), uint32(7*4096+512), uint32(40000), uint32(100))
	f.Add(append(rawSelection(0, 1, 37, 50, 71, 70), rawSelection(1, 2, 0, 1, 2, 10, 50, 5, 5, 1)...), fillByte(3515, 2), uint32(100), uint32(5000), uint32(3), uint32(600))
	f.Add(rawSelection(1, 1, 0, 100, 300, 2), fillByte(9, 2), uint32(0), uint32(10), uint32(reach-100), uint32(400))
	f.Add(rawSelection(0, 1, 0, 4, 4, 1<<62), []byte(nil), uint32(0), uint32(1000), uint32(0), uint32(0))
	f.Add(rawSelection(0, 1, 990, 20, 20, 1), fillByte(20, 2), uint32(0), uint32(1000), uint32(0), uint32(0))
	f.Add(rawSelection(0, 2, 0, 10, 100, 5, 405, 10, 10, 1)[:50], fillByte(60, 2), uint32(0), uint32(1000), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, sel, payload []byte, off0, len0, off1, len1 uint32) {
		exts := []wire.Extent{
			{Off: int64(off0) % reach, Len: int64(len0) % reach},
			{Off: int64(off1) % reach, Len: int64(len1) % reach},
		}
		sels, shipped, perr := wire.ParseSelections(sel, exts)
		for _, data := range [][]byte{payload, fit(payload, shipped)} {
			must(&wire.Request{Op: wire.OpTruncate, Path: "w", Extents: []wire.Extent{{Len: int64(len(base))}}})
			must(&wire.Request{Op: wire.OpWrite, Path: "w", Extents: []wire.Extent{{Len: int64(len(base))}}, Data: base})
			resp, _ := srv.dispatchEmit(context.Background(), &wire.Request{Op: wire.OpWrite, Path: "w", Extents: exts, Sel: sel, Data: data}, nil)
			got := stored(t, srv, "w")
			if perr != nil || int64(len(data)) != shipped {
				if resp.Err == "" {
					t.Fatalf("a write of %d bytes under a selection counting %d (%v) was accepted", len(data), shipped, perr)
				}
				if !bytes.Equal(got, base) {
					t.Fatalf("a refused write (%s) changed the subfile", resp.Err)
				}
				if perr != nil {
					return
				}
				continue
			}
			if resp.Err != "" {
				t.Fatalf("a valid write was refused: %s", resp.Err)
			}
			if want := scatterRef(bytes.Clone(base), exts, sels, data); !bytes.Equal(got, want) {
				t.Fatalf("the subfile holds %d bytes, differing from the reference's %d", len(got), len(want))
			}
		}
	})
}

// fit cuts or stretches p to n bytes, none of them zero.
func fit(p []byte, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i) | 1
		if i < len(p) {
			out[i] |= p[i]
		}
	}
	return out
}
