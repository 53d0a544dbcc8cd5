package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// decodeRequest reads one complete request (REQ frame and its DATA
// frames) off r.
func decodeRequest(r io.Reader) (*Request, FrameHeader, error) {
	h, err := ReadFrameHeader(r)
	if err != nil {
		return nil, h, err
	}
	req, err := ReadRequestV2(r, h, nil)
	return req, h, err
}

// TestRequestRoundtrip sends every op through one FrameWriter, the way
// a connection does: the scratch and buffer vector it reuses between
// messages must not leak one message into the next.
func TestRequestRoundtrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpRead, Path: "/home/x/f", Extents: []Extent{{0, 100}, {500, 28}}},
		{Op: OpWrite, Path: "sub", Extents: []Extent{{8, 4}}, Data: []byte{1, 2, 3, 4}},
		{Op: OpRemove, Path: "a/b/c"},
		{Op: OpStat, Path: "zz"},
		{Op: OpUsage},
		{Op: OpTruncate, Path: "t", Extents: []Extent{{0, 4096}}},
		{Op: OpRead, Path: "col", Extents: []Extent{{512, 29184}}, Sel: AppendSelection(nil, 0, []Run{{0, 512, 4096, 8}})},
		{Op: OpWrite, Path: "col", Extents: []Extent{{0, 12}}, Sel: AppendSelection(nil, 0, []Run{{0, 2, 10, 2}}), Data: []byte{1, 2, 3, 4}},
		{Op: OpStat, Path: "zz"}, // nothing of the selection before it is left in the writer
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for i, req := range reqs {
		if err := fw.WriteRequest(uint32(i+1), req); err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
	}
	for i, req := range reqs {
		got, h, err := decodeRequest(&buf)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if h.Tag != uint32(i+1) {
			t.Fatalf("%v: tag %d, want %d", req.Op, h.Tag, i+1)
		}
		if want := normalizeRequest(req); !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestResponseRoundtrip is the response-side mirror, negative scalar
// included.
func TestResponseRoundtrip(t *testing.T) {
	resps := []*Response{
		{},
		{Err: "boom"},
		{Data: []byte("payload"), N: 7},
		{N: -1},
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for i, resp := range resps {
		if err := fw.WriteResponse(uint32(i+1), resp, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, resp := range resps {
		got, err := ReadResponseV2Into(&buf, uint32(i+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Err != resp.Err || got.N != resp.N || !bytes.Equal(got.Data, resp.Data) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", got, resp)
		}
	}
}

// TestPipelinedMessages: requests queued back to back on one stream,
// payload frames and all, decode in order and leave nothing behind —
// the decoder consumes exactly its own frames.
func TestPipelinedMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		req := &Request{Op: OpWrite, Path: "p", Extents: []Extent{{int64(i), 1}}, Data: []byte{byte(i)}}
		if err := WriteRequestV2(&buf, uint32(i+1), req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		req, _, err := decodeRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if req.Extents[0].Off != int64(i) || req.Data[0] != byte(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
	if _, err := ReadFrameHeader(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBadFrames(t *testing.T) {
	// Bad magic, the retired protocol's included.
	for _, first := range []byte{0x00, 0xD9} {
		hdr := make([]byte, FrameHeaderLen)
		hdr[0] = first
		if _, _, err := decodeRequest(bytes.NewReader(hdr)); err == nil {
			t.Errorf("magic %#x accepted as a request", first)
		}
		if _, err := ReadResponseV2Into(bytes.NewReader(hdr), 1, nil); err == nil {
			t.Errorf("magic %#x accepted as a response", first)
		}
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteRequestV2(&buf, 1, &Request{Op: OpRead, Path: "p", Extents: []Extent{{0, 8}}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, _, err := decodeRequest(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Error("truncated request accepted")
	}
	// Oversized declared length.
	hdr := []byte{Magic2, version2, byte(FrameReq), 0, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := decodeRequest(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized request accepted")
	}
	// Junk inside the REQ frame, past the metadata, is a framing error:
	// trace context has fixed fields, so nothing optional lives there.
	raw := append(append([]byte(nil), b...), 0xAA)
	raw[8]++ // grow the declared length to swallow the junk
	if _, _, err := decodeRequest(bytes.NewReader(raw)); err == nil {
		t.Error("request with trailing metadata bytes accepted")
	}
}

func TestDataBytes(t *testing.T) {
	if n := DataBytes(nil); n != 0 {
		t.Errorf("DataBytes(nil) = %d", n)
	}
	if n := DataBytes([]Extent{{0, 5}, {9, 7}}); n != 12 {
		t.Errorf("DataBytes = %d", n)
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{OpPing: "PING", OpRead: "READ", OpWrite: "WRITE", OpRemove: "REMOVE",
		OpStat: "STAT", OpUsage: "USAGE", OpTruncate: "TRUNCATE", Op(99): "Op(99)"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q", op, op.String())
		}
	}
}

// Property: any request and any response survives a roundtrip exactly
// — scatter payloads, trace context and all.
func TestQuickRequestRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		req := randomRequest(rng)
		var buf bytes.Buffer
		if err := WriteRequestV2(&buf, uint32(i+1), req); err != nil {
			t.Fatalf("iter %d write: %v", i, err)
		}
		got, _, err := decodeRequest(&buf)
		if err != nil {
			t.Fatalf("iter %d read: %v", i, err)
		}
		if want := normalizeRequest(req); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d request:\n got %+v\nwant %+v", i, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		resp := &Response{N: rng.Int63n(1 << 40)}
		if rng.Intn(3) == 0 {
			// Error and payload are mutually exclusive: no server op sends
			// both, and a reader discards any partial stream that preceded
			// an error RESP (TestResponseV2MidStreamError).
			resp.Err = randString(rng, rng.Intn(32))
		} else if rng.Intn(2) == 0 {
			resp.Data = make([]byte, rng.Intn(4096)+1)
			rng.Read(resp.Data)
		}
		if rng.Intn(3) == 0 {
			resp.Trace = make([]byte, rng.Intn(64)+1)
			rng.Read(resp.Trace)
		}
		var buf bytes.Buffer
		if err := WriteResponseV2(&buf, uint32(i+1), resp, 0); err != nil {
			t.Fatalf("iter %d write: %v", i, err)
		}
		got, err := ReadResponseV2Into(&buf, uint32(i+1), nil)
		if err != nil {
			t.Fatalf("iter %d read: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("iter %d response:\n got %+v\nwant %+v", i, got, resp)
		}
	}
}

// Property: the scatter (Segments) form of a write request produces
// byte-identical frames to the packed (Data) form, for any split of
// the payload into pieces.
func TestQuickSegmentsMatchData(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		req := &Request{Op: OpWrite, Path: randString(r, r.Intn(40))}
		ne := 1 + r.Intn(5)
		var total int64
		for i := 0; i < ne; i++ {
			e := Extent{Off: int64(r.Intn(1 << 20)), Len: int64(1 + r.Intn(2048))}
			req.Extents = append(req.Extents, e)
			total += e.Len
		}
		data := make([]byte, total)
		r.Read(data)

		packed := &Request{Op: req.Op, Path: req.Path, Extents: req.Extents, Data: data}
		var want bytes.Buffer
		if err := WriteRequestV2(&want, 1, packed); err != nil {
			return false
		}

		// Split the payload at random points (empty pieces allowed).
		scattered := &Request{Op: req.Op, Path: req.Path, Extents: req.Extents, Segments: [][]byte{}}
		for off := int64(0); off < total; {
			n := int64(1 + r.Intn(1024))
			if off+n > total {
				n = total - off
			}
			scattered.Segments = append(scattered.Segments, data[off:off+n])
			off += n
		}
		if r.Intn(2) == 0 {
			scattered.Segments = append(scattered.Segments, nil) // empty piece
		}
		if scattered.PayloadLen() != int(total) {
			return false
		}
		var got bytes.Buffer
		if err := WriteRequestV2(&got, 1, scattered); err != nil {
			return false
		}
		return bytes.Equal(got.Bytes(), want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsRoundtripToReceiverData(t *testing.T) {
	payload := []byte("scatter-gather payload crossing pieces")
	req := &Request{
		Op:   OpWrite,
		Path: "/f",
		Extents: []Extent{
			{Off: 0, Len: int64(len(payload))},
		},
		Segments: [][]byte{payload[:7], payload[7:20], payload[20:]},
	}
	var buf bytes.Buffer
	if err := WriteRequestV2(&buf, 1, req); err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, payload) {
		t.Fatalf("receiver data = %q, want %q", got.Data, payload)
	}
	if got.Segments != nil {
		t.Fatal("Segments is a sender-side form; receivers must see Data")
	}
}

// TestReadResponseIntoScratch: a one-exchange reader lands the payload
// at the front of the caller's scratch when it fits, and allocates when
// it does not.
func TestReadResponseIntoScratch(t *testing.T) {
	resp := &Response{Data: bytes.Repeat([]byte("x"), 1000), N: 1000}
	var buf bytes.Buffer
	if err := WriteResponseV2(&buf, 1, resp, 0); err != nil {
		t.Fatal(err)
	}
	frames := buf.Bytes()

	scratch := make([]byte, 0, 1000)
	got, err := ReadResponseV2Into(bytes.NewReader(frames), 1, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, resp.Data) || got.N != resp.N {
		t.Fatal("scratch roundtrip mismatch")
	}
	if &got.Data[0] != &scratch[:1][0] {
		t.Fatal("Data does not alias the scratch buffer")
	}

	// Short scratch: falls back to allocating, still correct.
	got2, err := ReadResponseV2Into(bytes.NewReader(frames), 1, make([]byte, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Data, resp.Data) {
		t.Fatal("fallback roundtrip mismatch")
	}
}
