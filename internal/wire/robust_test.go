package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// reqBody returns the metadata body of req's REQ frame, without the
// frame header or the DATA frames that follow.
func reqBody(t testing.TB, req *Request) []byte {
	t.Helper()
	full := encodeRequestV2(t, 1, req)
	n := binary.LittleEndian.Uint32(full[8:12])
	return full[FrameHeaderLen : FrameHeaderLen+n]
}

// readReqBody decodes a REQ metadata body on its own, as the frame a
// header of matching length announces.
func readReqBody(body []byte) (*Request, error) {
	h := FrameHeader{Kind: FrameReq, Tag: 1, Len: uint32(len(body))}
	return ReadRequestV2(bytes.NewReader(body), h, nil)
}

// TestRequestEveryPrefixTruncation feeds the decoder every proper
// prefix of a scatter-form, untraced write whose first extent a
// selection narrows (its twin below cuts a packed, traced one without):
// each must produce an error, never a short-read panic or a silently
// truncated request.
func TestRequestEveryPrefixTruncation(t *testing.T) {
	full := encodeRequestV2(t, 3, &Request{
		Op: OpWrite, Path: "/sub/file",
		Extents:  []Extent{{Off: 0, Len: 12}, {Off: 100, Len: 4}, {Off: 900, Len: 2}},
		Sel:      AppendSelection(nil, 0, []Run{{Off: 0, Len: 1, Stride: 10, Count: 2}}),
		Segments: [][]byte{[]byte("12"), []byte("3456"), nil, []byte("78")},
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := readRequestV2(full[:cut]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
	if _, err := readRequestV2(full); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// TestResponseEveryPrefixTruncation is the response-side mirror, on an
// error response carrying a trace and a gossip delta.
func TestResponseEveryPrefixTruncation(t *testing.T) {
	full := encodeResponseV2(t, 3, &Response{Err: "boom", N: 42,
		Trace: []byte{1, 2, 3, 4, 5}, Delta: []byte("DPgd-delta")})
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadResponseV2Into(bytes.NewReader(full[:cut]), 3, nil); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
	if _, err := ReadResponseV2Into(bytes.NewReader(full), 3, nil); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// TestCorruptRequestFrames mutates the REQ frame of a valid request —
// its header, then fields of its metadata (layout in
// TestCorruptRequestV2Frames, which goes on to the DATA frames); every
// mutation must be rejected.
func TestCorruptRequestFrames(t *testing.T) {
	base := &Request{
		Op: OpWrite, Path: "/s", Gen: 3,
		Extents: []Extent{{Off: 8, Len: 4}},
		Data:    []byte("abcd"),
	}
	pathOff := FrameHeaderLen + 16 + 2
	extCountOff := pathOff + 2 + len(base.Path) + 8
	dataLenOff := extCountOff + 4 + 16*len(base.Extents)

	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 0x00 }},
		{"bad version", func(b []byte) { b[1] = version2 + 1 }},
		{"payload length over MaxMessage", func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], MaxMessage+1)
		}},
		{"path length beyond body", func(b []byte) {
			binary.LittleEndian.PutUint16(b[pathOff:], 0xFFFF)
		}},
		{"extent count beyond limit", func(b []byte) {
			binary.LittleEndian.PutUint32(b[extCountOff:], 1<<24+1)
		}},
		{"extent count beyond body", func(b []byte) {
			binary.LittleEndian.PutUint32(b[extCountOff:], 2) // one more than the body holds
		}},
		{"data length beyond body", func(b []byte) {
			binary.LittleEndian.PutUint32(b[dataLenOff:], MaxMessage+1) // refused before any buffer is taken
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeRequestV2(t, 7, base)
			tc.mutate(frame)
			if _, err := readRequestV2(frame); err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
		})
	}
}

// TestRequestTraceTrailerBestEffort pins how trace context travels.
// (The name is the retired payload trailer's; the suite's floor list
// pins test ids.) On frames the context has fixed fields — the first 16
// bytes of the REQ body and the header's sampled flag — so it
// roundtrips exactly, a zero trace ID means untraced whatever else is
// set, and no ID pattern can damage the request that carries it.
func TestRequestTraceTrailerBestEffort(t *testing.T) {
	base := &Request{
		Op: OpWrite, Path: "/s", Gen: 3,
		Extents: []Extent{{Off: 8, Len: 4}},
		Data:    []byte("abcd"),
	}

	t.Run("trace context roundtrips", func(t *testing.T) {
		traced := *base
		traced.TraceID, traced.SpanID, traced.Sampled = 0xdead, 0xbeef, true
		got, err := readRequestV2(encodeRequestV2(t, 1, &traced))
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceID != 0xdead || got.SpanID != 0xbeef || !got.Sampled {
			t.Fatalf("trace context lost: %+v", got)
		}
		if !bytes.Equal(got.Data, base.Data) {
			t.Fatal("payload corrupted by trace context")
		}
	})

	t.Run("unsampled flag roundtrips", func(t *testing.T) {
		traced := *base
		traced.TraceID, traced.SpanID = 7, 8
		got, err := readRequestV2(encodeRequestV2(t, 1, &traced))
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceID != 7 || got.Sampled {
			t.Fatalf("unsampled context = %+v", got)
		}
	})

	// A zero trace ID is untraced: a span ID or sampled flag sent with
	// it must not surface.
	orphan := *base
	orphan.SpanID, orphan.Sampled = 9, true
	got, err := readRequestV2(encodeRequestV2(t, 1, &orphan))
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.SpanID != 0 || got.Sampled {
		t.Fatalf("zero trace ID produced trace context %+v", got)
	}

	t.Run("garbage ids are accepted verbatim", func(t *testing.T) {
		frame := encodeRequestV2(t, 1, base)
		junk := bytes.Repeat([]byte{0xA5}, 16)
		copy(frame[FrameHeaderLen:], junk)
		got, err := readRequestV2(frame)
		if err != nil {
			t.Fatalf("garbage ids failed the request: %v", err)
		}
		// Garbage IDs are just IDs; the request itself must be intact.
		if !bytes.Equal(got.Data, base.Data) || got.Path != base.Path {
			t.Fatalf("garbage ids corrupted the request: %+v", got)
		}
		if got.TraceID != binary.LittleEndian.Uint64(junk[:8]) {
			t.Fatalf("trace id = %#x", got.TraceID)
		}
	})
}

// TestCorruptResponseFrames is the response-side mirror. RESP body
// layout: 2-byte error length, error, 8-byte scalar, 4-byte total data
// length, 4-byte trace length, trace.
func TestCorruptResponseFrames(t *testing.T) {
	base := &Response{N: 7, Data: []byte("abcd")}
	// The 4 payload bytes leave as one DATA frame ahead of the RESP.
	respOff := FrameHeaderLen + len(base.Data)
	errOff := respOff + FrameHeaderLen
	dataLenOff := errOff + 2 + len(base.Err) + 8

	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[respOff] = 0x00 }},
		{"bad version", func(b []byte) { b[respOff+1] = version2 + 1 }},
		{"payload length over MaxMessage", func(b []byte) {
			binary.LittleEndian.PutUint32(b[respOff+8:], MaxMessage+1)
		}},
		{"error length beyond body", func(b []byte) {
			binary.LittleEndian.PutUint16(b[errOff:], 0xFFFF)
		}},
		{"data length beyond body", func(b []byte) {
			binary.LittleEndian.PutUint32(b[dataLenOff:], 1<<20) // more than the DATA frames delivered
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeResponseV2(t, 7, base)
			tc.mutate(frame)
			if _, err := ReadResponseV2Into(bytes.NewReader(frame), 7, nil); err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
		})
	}

	// The wire layer does not look inside the span trailer: whatever
	// bytes the trace length covers are surfaced verbatim (best-effort
	// tracing: the response must not be rejected for them).
	t.Run("trailing bytes become the span trailer", func(t *testing.T) {
		frame := append(encodeResponseV2(t, 7, base), 0xEE, 0xFF)
		binary.LittleEndian.PutUint32(frame[respOff+8:], binary.LittleEndian.Uint32(frame[respOff+8:])+2)
		binary.LittleEndian.PutUint32(frame[dataLenOff+4:], 2)
		got, err := ReadResponseV2Into(bytes.NewReader(frame), 7, nil)
		if err != nil {
			t.Fatalf("trailing bytes failed the response: %v", err)
		}
		if !bytes.Equal(got.Trace, []byte{0xEE, 0xFF}) || !bytes.Equal(got.Data, base.Data) {
			t.Fatalf("got %+v", got)
		}
	})
}

// FuzzReadRequest throws arbitrary bytes at the REQ metadata decoder
// directly — no frame header to get past first, which is where
// FuzzReadRequestV2 spends most of its inputs. It must never panic, and
// a body it accepts (one announcing no payload: there is no stream
// behind it here) must re-encode to the same request.
func FuzzReadRequest(f *testing.F) {
	f.Add(reqBody(f, &Request{Op: OpPing}))
	f.Add(reqBody(f, &Request{Op: OpRead, Path: "/a", Extents: []Extent{{Off: 0, Len: 16}}}))
	f.Add(reqBody(f, &Request{Op: OpWrite, Path: "/b",
		Extents: []Extent{{Off: 4, Len: 2}, {Off: 32, Len: 2}}, Data: []byte("wxyz")}))
	f.Add(reqBody(f, &Request{Op: OpRename, Path: "/old", Data: []byte("/new")}))
	f.Add(reqBody(f, &Request{Op: OpRead, Path: "/t", Extents: []Extent{{Off: 0, Len: 8}},
		TraceID: 0x0123456789abcdef, SpanID: 0xfedcba9876543210, Sampled: true}))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := readReqBody(body)
		if err != nil {
			return
		}
		again, err := readReqBody(reqBody(t, req))
		if err != nil {
			t.Fatalf("re-encoded accepted request rejected: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", req, again)
		}
	})
}

// FuzzReadResponse is the response-side mirror: arbitrary bytes at the
// RESP metadata decoder.
func FuzzReadResponse(f *testing.F) {
	f.Add(appendResponseMeta(nil, &Response{}, 0))
	f.Add(appendResponseMeta(nil, &Response{Err: "subfile missing"}, 0))
	f.Add(appendResponseMeta(nil, &Response{N: 1 << 40}, 4))
	f.Add(appendResponseMeta(nil, &Response{Trace: []byte{1, 0, 0, 9, 9}}, 1))
	f.Add(appendResponseMeta(nil, &Response{Delta: []byte("DPgd-delta")}, 1))
	f.Add(appendResponseMeta(nil, &Response{Trace: []byte{7}, Delta: []byte("DPgd!")}, 0))
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, dataLen, err := DecodeResponseMetaV2(body)
		if err != nil {
			return
		}
		again, dataLen2, err := DecodeResponseMetaV2(appendResponseMeta(nil, resp, dataLen))
		if err != nil {
			t.Fatalf("re-encoded accepted response rejected: %v", err)
		}
		if dataLen != dataLen2 || !reflect.DeepEqual(resp, again) {
			t.Fatalf("roundtrip mismatch: %+v (%d) vs %+v (%d)", resp, dataLen, again, dataLen2)
		}
	})
}

// encodeRequestV2 returns the full v2 framing of req under tag.
func encodeRequestV2(t testing.TB, tag uint32, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequestV2(&buf, tag, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeResponseV2 returns the full framing of resp under tag: its
// data as DATA frames, then the RESP frame.
func encodeResponseV2(t testing.TB, tag uint32, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponseV2(&buf, tag, resp, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readRequestV2 decodes one complete v2 request (header + metadata +
// payload frames) from raw bytes.
func readRequestV2(raw []byte) (*Request, error) {
	req, _, err := decodeRequest(bytes.NewReader(raw))
	return req, err
}

// TestFrameHeaderEveryPrefixTruncation feeds the frame-header decoder
// every proper prefix: each must error, never hang or panic.
func TestFrameHeaderEveryPrefixTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrameHeader(&buf, FrameHeader{Kind: FrameData, Tag: 3, Len: 64}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadFrameHeader(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("header prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestRequestV2EveryPrefixTruncation sweeps the whole multi-frame
// encoding (REQ metadata + DATA frames) of a packed, traced write.
func TestRequestV2EveryPrefixTruncation(t *testing.T) {
	full := encodeRequestV2(t, 11, &Request{
		Op: OpWrite, Path: "/sub/file",
		Extents: []Extent{{Off: 0, Len: 4}, {Off: 100, Len: 4}},
		Data:    []byte("12345678"),
		TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00, Sampled: true,
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := readRequestV2(full[:cut]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
	if _, err := readRequestV2(full); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// TestResponseV2EveryPrefixTruncation is the response-side mirror.
func TestResponseV2EveryPrefixTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponseV2(&buf, 11, &Response{Err: "", N: 42, Data: []byte("payload"),
		Trace: []byte{1, 2, 3, 4, 5}}, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadResponseV2Into(bytes.NewReader(full[:cut]), 11, nil); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
	if _, err := ReadResponseV2Into(bytes.NewReader(full), 11, nil); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// TestCorruptFrameHeaders mutates v2 frame-header fields; framing
// errors (bad magic/version, oversized length) must be rejected while
// unknown kinds pass header validation (receivers skip them).
func TestCorruptFrameHeaders(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(b []byte)
		ok     bool
	}{
		{"v1 magic on a v2 stream", func(b []byte) { b[0] = 0xD9 }, false}, // the retired protocol's
		{"zero magic", func(b []byte) { b[0] = 0x00 }, false},
		{"bad version", func(b []byte) { b[1] = version2 + 1 }, false},
		{"length over MaxMessage", func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], MaxMessage+1)
		}, false},
		{"unknown kind survives header validation", func(b []byte) { b[2] = 0xEE }, true},
		{"unknown flags survive header validation", func(b []byte) { b[3] = 0xFE }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeFrameHeader(&buf, FrameHeader{Kind: FrameData, Tag: 5, Len: 9}); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			tc.mutate(b)
			_, err := ReadFrameHeader(bytes.NewReader(b))
			if tc.ok && err != nil {
				t.Fatalf("header rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("corrupt header decoded without error")
			}
		})
	}
}

// TestCorruptRequestV2Frames mutates v2 request encodings. The frame
// layout is FrameHeaderLen of header, then: 16 bytes trace context,
// op byte + reserved, u16 path length, path, u64 gen, u32 extent
// count, extents, u32 payload length, u32 selection length, selection,
// then DATA frames.
func TestCorruptRequestV2Frames(t *testing.T) {
	base := &Request{
		Op: OpWrite, Path: "/s", Gen: 3,
		Extents: []Extent{{Off: 8, Len: 6}},
		Sel:     AppendSelection(nil, 0, []Run{{Off: 0, Len: 2, Stride: 4, Count: 2}}),
		Data:    []byte("abcd"),
	}
	pathLenOff := FrameHeaderLen + 16 + 2
	extCountOff := pathLenOff + 2 + len(base.Path) + 8
	payloadLenOff := extCountOff + 4 + 16*len(base.Extents)
	selLenOff := payloadLenOff + 4
	dataFrameOff := selLenOff + 4 + len(base.Sel) // header of the first DATA frame

	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"path length beyond body", func(b []byte) {
			binary.LittleEndian.PutUint16(b[pathLenOff:], 0xFFFF)
		}},
		{"extent count beyond limit", func(b []byte) {
			binary.LittleEndian.PutUint32(b[extCountOff:], 1<<24+1)
		}},
		{"extent count beyond body", func(b []byte) {
			binary.LittleEndian.PutUint32(b[extCountOff:], 1000)
		}},
		{"metadata shorter than layout", func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], 4) // REQ frame length cut mid-metadata
		}},
		{"payload larger than DATA frames deliver", func(b []byte) {
			binary.LittleEndian.PutUint32(b[payloadLenOff:], 1<<20)
		}},
		{"metadata ending inside the selection length", func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], uint32(selLenOff+2-FrameHeaderLen))
		}},
		{"selection length beyond body", func(b []byte) {
			binary.LittleEndian.PutUint32(b[selLenOff:], uint32(len(base.Sel)+1))
		}},
		{"trailing bytes after the selection", func(b []byte) {
			binary.LittleEndian.PutUint32(b[selLenOff:], uint32(len(base.Sel)-1))
		}},
		{"selection section of no bytes", func(b []byte) {
			// An empty selection is sent as no section; a section
			// announcing none has the selection's bytes trailing it.
			binary.LittleEndian.PutUint32(b[selLenOff:], 0)
		}},
		{"zero-length DATA frame", func(b []byte) {
			binary.LittleEndian.PutUint32(b[dataFrameOff+8:], 0)
		}},
		{"DATA frame overruns announced payload", func(b []byte) {
			binary.LittleEndian.PutUint32(b[dataFrameOff+8:], 1<<19)
		}},
		{"DATA frame for a different tag", func(b []byte) {
			binary.LittleEndian.PutUint32(b[dataFrameOff+4:], 999)
		}},
		{"DATA frame with wrong kind", func(b []byte) {
			b[dataFrameOff+2] = byte(FrameCancel)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeRequestV2(t, 7, base)
			tc.mutate(frame)
			if _, err := readRequestV2(frame); err == nil {
				t.Fatal("corrupt v2 request decoded without error")
			}
		})
	}
}

// TestResponseV2UnknownFramesSkipped pins forward compatibility on a
// single-exchange conn: unknown frame kinds and stray CANCELs between
// DATA frames are skipped without failing the in-flight exchange.
func TestResponseV2UnknownFramesSkipped(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteData(4, []byte("he")); err != nil {
		t.Fatal(err)
	}
	// Interleave an unknown kind with a body, and a CANCEL for some
	// other tag — both must be ignored.
	if err := writeFrameHeader(&buf, FrameHeader{Kind: FrameKind(0x77), Tag: 4, Len: 5}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("junk!")
	if err := NewFrameWriter(&buf).WriteCancel(9999); err != nil {
		t.Fatal(err)
	}
	if err := NewFrameWriter(&buf).WriteData(4, []byte("llo")); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponseV2(&buf, 4, &Response{N: 5}, 5); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponseV2Into(&buf, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "hello" || resp.N != 5 {
		t.Fatalf("got %+v", resp)
	}
}

// TestResponseV2GarbageBetweenFrames pins the opposite: bytes that are
// NOT valid frames (wrong magic) desynchronize the stream and must
// surface as an error rather than silently corrupting the response.
func TestResponseV2GarbageBetweenFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteData(4, []byte("he")); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B})
	if err := WriteResponseV2(&buf, 4, &Response{N: 2}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponseV2Into(&buf, 4, nil); err == nil {
		t.Fatal("garbage between frames decoded without error")
	}
}

// FuzzReadFrameHeader throws arbitrary bytes at the v2 header decoder:
// never panic; accepted headers re-encode identically.
func FuzzReadFrameHeader(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrameHeader(&seed, FrameHeader{Kind: FrameReq, Flags: FlagSampled, Tag: 1, Len: 10})
	f.Add(seed.Bytes())
	f.Add([]byte{Magic2, version2, byte(FrameCancel), 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{Magic2, version2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadFrameHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrameHeader(&buf, h); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFrameHeader(&buf)
		if err != nil || again != h {
			t.Fatalf("header roundtrip: %+v vs %+v (%v)", h, again, err)
		}
	})
}

// FuzzReadRequestV2 fuzzes the full v2 request decode (header,
// metadata, payload frames): never panic; accepted requests re-encode
// and decode identically.
func FuzzReadRequestV2(f *testing.F) {
	f.Add(encodeRequestV2(f, 1, &Request{Op: OpPing}))
	f.Add(encodeRequestV2(f, 2, &Request{Op: OpRead, Path: "/a", Extents: []Extent{{Off: 0, Len: 16}}}))
	f.Add(encodeRequestV2(f, 3, &Request{Op: OpWrite, Path: "/b",
		Extents: []Extent{{Off: 4, Len: 2}, {Off: 32, Len: 2}}, Data: []byte("wxyz")}))
	f.Add(encodeRequestV2(f, 4, &Request{Op: OpRead, Path: "/t", Extents: []Extent{{Off: 0, Len: 8}},
		TraceID: 0x0123456789abcdef, SpanID: 0xfedcba9876543210, Sampled: true}))
	f.Add(encodeRequestV2(f, 5, &Request{Op: OpWrite, Path: "/c", Extents: []Extent{{Off: 0, Len: 12}},
		Sel: AppendSelection(nil, 0, []Run{{Off: 0, Len: 2, Stride: 10, Count: 2}}), Data: []byte("wxyz")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readRequestV2(data)
		if err != nil {
			return
		}
		again, err := readRequestV2(encodeRequestV2(t, 1, req))
		if err != nil {
			t.Fatalf("re-encoded accepted request rejected: %v", err)
		}
		if req.Op != again.Op || req.Path != again.Path || req.Gen != again.Gen ||
			!reflect.DeepEqual(req.Extents, again.Extents) || !bytes.Equal(req.Data, again.Data) || !bytes.Equal(req.Sel, again.Sel) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", req, again)
		}
		if req.TraceID != again.TraceID || req.SpanID != again.SpanID || req.Sampled != again.Sampled {
			t.Fatalf("trace context roundtrip mismatch: %+v vs %+v", req, again)
		}
	})
}

// FuzzReadResponseV2 is the response-side mirror.
func FuzzReadResponseV2(f *testing.F) {
	encode := func(t testing.TB, resp *Response) []byte {
		var buf bytes.Buffer
		if err := WriteResponseV2(&buf, 1, resp, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(f, &Response{}))
	f.Add(encode(f, &Response{Err: "subfile missing"}))
	f.Add(encode(f, &Response{N: 1 << 40, Data: []byte("data")}))
	f.Add(encode(f, &Response{Data: []byte("d"), Trace: []byte{1, 0, 0, 9, 9}}))
	f.Add(encode(f, &Response{Data: []byte("d"), Delta: []byte("DPgd-delta")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponseV2Into(bytes.NewReader(data), 1, nil)
		if err != nil {
			return
		}
		again, err := ReadResponseV2Into(bytes.NewReader(encode(t, resp)), 1, nil)
		if err != nil {
			t.Fatalf("re-encoded accepted response rejected: %v", err)
		}
		if resp.Err != again.Err || resp.N != again.N || !bytes.Equal(resp.Data, again.Data) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", resp, again)
		}
		if !bytes.Equal(resp.Trace, again.Trace) {
			t.Fatalf("trace roundtrip mismatch: %v vs %v", resp.Trace, again.Trace)
		}
		if !bytes.Equal(resp.Delta, again.Delta) {
			t.Fatalf("delta roundtrip mismatch: %v vs %v", resp.Delta, again.Delta)
		}
	})
}
