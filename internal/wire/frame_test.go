package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// writeFrameHeader writes one encoded frame header, whatever its kind
// and announced length.
func writeFrameHeader(w io.Writer, h FrameHeader) error {
	var b [FrameHeaderLen]byte
	putFrameHeader(b[:], h)
	_, err := w.Write(b[:])
	return err
}

func TestFrameHeaderRoundtrip(t *testing.T) {
	cases := []FrameHeader{
		{Kind: FrameReq, Flags: FlagSampled, Tag: 1, Len: 0},
		{Kind: FrameResp, Tag: 0xFFFFFFFF, Len: MaxMessage},
		{Kind: FrameData, Tag: 42, Len: StreamChunk},
		{Kind: FrameCancel, Tag: 7},
		{Kind: FrameKind(200), Flags: 0xFF, Tag: 9, Len: 17}, // unknown kind passes header validation
	}
	for _, h := range cases {
		var buf bytes.Buffer
		if err := writeFrameHeader(&buf, h); err != nil {
			t.Fatalf("write %+v: %v", h, err)
		}
		if buf.Len() != FrameHeaderLen {
			t.Fatalf("header is %d bytes, want %d", buf.Len(), FrameHeaderLen)
		}
		got, err := ReadFrameHeader(&buf)
		if err != nil {
			t.Fatalf("read %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("roundtrip: got %+v want %+v", got, h)
		}
	}
}

func TestRequestV2Roundtrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing, Path: ""},
		{Op: OpRead, Path: "a/b", Gen: 3, Extents: []Extent{{0, 100}, {200, 50}}},
		{Op: OpWrite, Path: "w", Gen: 1, Extents: []Extent{{0, 5}}, Data: []byte("hello")},
		{Op: OpWrite, Path: "seg", Extents: []Extent{{0, 6}},
			Segments: [][]byte{[]byte("ab"), nil, []byte("cdef")}},
		{Op: OpRead, Path: "traced", TraceID: 7, SpanID: 9, Sampled: true},
		{Op: OpWrite, Path: "big", Extents: []Extent{{0, StreamChunk*2 + 17}},
			Data: bytes.Repeat([]byte{0xAB}, StreamChunk*2+17)},
	}
	for _, req := range reqs {
		var buf bytes.Buffer
		if err := WriteRequestV2(&buf, 5, req); err != nil {
			t.Fatalf("write %s: %v", req.Op, err)
		}
		h, err := ReadFrameHeader(&buf)
		if err != nil {
			t.Fatalf("header %s: %v", req.Op, err)
		}
		if h.Kind != FrameReq || h.Tag != 5 {
			t.Fatalf("got kind %d tag %d", h.Kind, h.Tag)
		}
		got, err := ReadRequestV2(&buf, h, nil)
		if err != nil {
			t.Fatalf("read %s: %v", req.Op, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: %d bytes left over", req.Op, buf.Len())
		}
		want := normalizeRequest(req)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip %s:\n got %+v\nwant %+v", req.Op, got, want)
		}
	}
}

// normalizeRequest maps a sender-side request to the form a receiver
// sees: Segments collapse into Data, empty Data and Sel are nil.
func normalizeRequest(req *Request) *Request {
	out := *req
	if req.Segments != nil {
		var data []byte
		for _, s := range req.Segments {
			data = append(data, s...)
		}
		out.Data = data
		out.Segments = nil
	}
	if len(out.Data) == 0 {
		out.Data = nil
	}
	if len(out.Sel) == 0 {
		out.Sel = nil
	}
	if out.Extents == nil {
		out.Extents = []Extent{}
	}
	if out.TraceID == 0 {
		out.SpanID = 0
		out.Sampled = false
	}
	return &out
}

func TestResponseV2Roundtrip(t *testing.T) {
	resps := []*Response{
		{},
		{N: 42},
		{Err: "boom", N: -1},
		{Data: []byte("payload"), N: 7},
		{Data: bytes.Repeat([]byte{0xCD}, StreamChunk+3), N: 1},
		{Data: []byte("x"), Trace: []byte("spanbytes")},
	}
	for i, resp := range resps {
		var buf bytes.Buffer
		if err := WriteResponseV2(&buf, 9, resp, 0); err != nil {
			t.Fatalf("case %d write: %v", i, err)
		}
		got, err := ReadResponseV2Into(&buf, 9, nil)
		if err != nil {
			t.Fatalf("case %d read: %v", i, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("case %d: %d bytes left over", i, buf.Len())
		}
		want := *resp
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("case %d roundtrip:\n got %+v\nwant %+v", i, got, &want)
		}
	}
}

// TestResponseV2StreamedTrailer exercises the server streaming shape:
// DATA frames emitted chunk by chunk, then the RESP trailer accounting
// for all of them.
func TestResponseV2StreamedTrailer(t *testing.T) {
	var buf bytes.Buffer
	chunks := [][]byte{[]byte("first-"), []byte("second-"), []byte("third")}
	var total int64
	for _, c := range chunks {
		if err := NewFrameWriter(&buf).WriteData(3, c); err != nil {
			t.Fatal(err)
		}
		total += int64(len(c))
	}
	if err := WriteResponseV2(&buf, 3, &Response{N: total}, total); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponseV2Into(&buf, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "first-second-third" {
		t.Fatalf("got data %q", resp.Data)
	}
}

// TestResponseV2MidStreamError checks that an error RESP after partial
// DATA frames is reported as the error, discarding the partial data —
// a failed read costs its tag, not the connection.
func TestResponseV2MidStreamError(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteData(3, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponseV2(&buf, 3, &Response{Err: "disk gone"}, 7); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponseV2Into(&buf, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "disk gone" {
		t.Fatalf("got err %q", resp.Err)
	}
	if resp.Data != nil {
		t.Fatalf("partial data must be discarded, got %q", resp.Data)
	}
}

// randomRequest builds a random but valid request for the quickcheck.
func randomRequest(rng *rand.Rand) *Request {
	ops := []Op{OpPing, OpRead, OpWrite, OpRemove, OpStat, OpUsage, OpTruncate, OpRename, OpCopy, OpGossip}
	req := &Request{
		Op:   ops[rng.Intn(len(ops))],
		Path: randString(rng, rng.Intn(64)),
		Gen:  rng.Int63n(1 << 40),
	}
	for i := rng.Intn(5); i > 0; i-- {
		req.Extents = append(req.Extents, Extent{Off: rng.Int63n(1 << 30), Len: rng.Int63n(1 << 20)})
	}
	if rng.Intn(2) == 0 {
		data := make([]byte, rng.Intn(4096))
		rng.Read(data)
		if rng.Intn(2) == 0 && len(data) > 0 {
			// scatter form: split into random segments
			var segs [][]byte
			for len(data) > 0 {
				k := rng.Intn(len(data)) + 1
				segs = append(segs, data[:k])
				data = data[k:]
			}
			req.Segments = segs
		} else if len(data) > 0 {
			req.Data = data
		}
	}
	if rng.Intn(3) == 0 {
		// The codec carries the section opaquely, empty as absent.
		req.Sel = make([]byte, rng.Intn(200))
		rng.Read(req.Sel)
	}
	if rng.Intn(2) == 0 {
		req.TraceID = rng.Uint64() | 1
		req.SpanID = rng.Uint64()
		req.Sampled = rng.Intn(2) == 0
	}
	return req
}

func randString(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz/._-0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// TestRequestV2ScratchAlloc verifies the alloc hook supplies the
// payload buffer (the server's pooled-read-buffer path).
func TestRequestV2ScratchAlloc(t *testing.T) {
	req := &Request{Op: OpWrite, Path: "p", Extents: []Extent{{0, 4}}, Data: []byte("abcd")}
	var buf bytes.Buffer
	if err := WriteRequestV2(&buf, 1, req); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFrameHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]byte, 128)
	got, err := ReadRequestV2(&buf, h, func(n int64) []byte { return pool[:n] })
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &pool[0] {
		t.Fatal("payload not read into the alloc-supplied buffer")
	}
	if string(got.Data) != "abcd" {
		t.Fatalf("got %q", got.Data)
	}
}

// TestWriteFrame: a caller-built body leaves behind its header in one
// write, its trace prefix reads back as a REQ's does (a zero trace ID
// clears the rest), and a steady-state frame allocates nothing.
func TestWriteFrame(t *testing.T) {
	for _, tc := range []struct {
		trace, span uint64
		sampled     bool
	}{{7, 9, true}, {7, 9, false}, {0, 9, true}} {
		body, flags := AppendTrace(nil, tc.trace, tc.span, tc.sampled)
		body = append(body, "statements"...)
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(FrameHeader{Kind: FrameSQL, Flags: flags, Tag: 3, Len: 999}, body); err != nil {
			t.Fatal(err)
		}
		h, err := ReadFrameHeader(&buf)
		if err != nil || h.Kind != FrameSQL || h.Tag != 3 || int(h.Len) != len(body) || buf.Len() != len(body) {
			t.Fatalf("header %+v (%v), %d body bytes follow, want %d", h, err, buf.Len(), len(body))
		}
		trace, span, sampled, rest, err := ParseTrace(h, buf.Bytes())
		wantSpan, wantSampled := tc.span, tc.sampled
		if tc.trace == 0 {
			wantSpan, wantSampled = 0, false
		}
		if err != nil || trace != tc.trace || span != wantSpan || sampled != wantSampled || string(rest) != "statements" {
			t.Fatalf("%+v: trace %d span %d sampled %v rest %q (%v)", tc, trace, span, sampled, rest, err)
		}
	}
	if _, _, _, _, err := ParseTrace(FrameHeader{}, make([]byte, TracePrefixLen-1)); err == nil {
		t.Fatal("a body shorter than the trace prefix parsed")
	}

	var buf bytes.Buffer
	buf.Grow(1 << 10)
	fw := NewFrameWriter(&buf)
	body := make([]byte, 100)
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := fw.WriteFrame(FrameHeader{Kind: FrameRepl}, body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteFrame allocates %.1f times per frame", n)
	}
}
