// Tagged frames: many outstanding requests multiplex over one
// connection by prefixing every message with a small frame header
// carrying (kind, flags, tag, length). A request is a REQ frame
// (metadata: trace context, op, path, generation, extents, payload
// length, selections) followed by its payload as contiguous DATA frames; a response
// is any number of DATA frames followed by a RESP frame that closes the
// tag (the trailer position lets the server stream brick bytes as
// subfile I/O completes and still report an error discovered
// mid-stream). Cancellation is a CANCEL frame naming the tag — the
// connection survives. Trace context rides in fixed frame fields (the
// flags byte and the first 16 bytes of the REQ body).
//
// Every frame header opens with the magic 0xDA, so a peer speaking
// anything else fails its first header read and is dropped. See
// DESIGN.md "Wire protocol".
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
)

const (
	// Magic2 is the first byte of every frame. (0xD9 was the retired
	// one-exchange-per-conn protocol and 0xDB the retired gob gossip
	// exchange; both are refused.)
	Magic2   = 0xDA
	version2 = 2
	// FrameHeaderLen is the fixed size of a v2 frame header: magic,
	// version, kind, flags, u32 tag, u32 body length.
	FrameHeaderLen = 12
)

// StreamChunk caps the body of one DATA frame a sender emits. Large
// payloads split into several frames, so a receiver never needs more
// than this much contiguous buffer per frame and a streaming server
// can interleave other tags' frames between chunks.
const StreamChunk = 256 << 10

// FrameKind enumerates the v2 frame types.
type FrameKind uint8

const (
	// FrameReq opens a tag: the body is request metadata, and
	// PayloadLen bytes of DATA frames for the same tag follow
	// contiguously.
	FrameReq FrameKind = 1
	// FrameResp closes a tag: the body is response metadata (error,
	// scalar, trace, total data length). Any DATA frames for the tag
	// precede it.
	FrameResp FrameKind = 2
	// FrameData carries a payload chunk for a tag.
	FrameData FrameKind = 3
	// FrameCancel abandons a tag. It has no body; a receiver that does
	// not know the tag ignores it.
	FrameCancel FrameKind = 4

	// The catalog's frames (internal/metadb/mdbnet), on the metadata
	// server's ports. Their bodies are internal/metadb's catalog codec.

	// FrameSQL carries one batch of statements: the trace prefix, then
	// the statements.
	FrameSQL FrameKind = 5
	// FrameSQLResult answers the FrameSQL of the same tag: the results,
	// the error text and the server's span tree.
	FrameSQLResult FrameKind = 6
	// FrameRepl carries one replication message between the members of
	// a metadata replica group.
	FrameRepl FrameKind = 7
)

// FlagSampled on a REQ or SQL frame marks the carried trace context
// sampled.
const FlagSampled = 0x01

// TracePrefixLen is the size of the trace context a REQ or SQL frame
// body opens with: u64 trace ID, u64 parent span ID. The sampled bit
// rides in the header's flags.
const TracePrefixLen = 16

// AppendTrace appends the trace prefix to b and returns the header
// flags that go with it.
func AppendTrace(b []byte, traceID, spanID uint64, sampled bool) ([]byte, uint8) {
	b = binary.LittleEndian.AppendUint64(b, traceID)
	b = binary.LittleEndian.AppendUint64(b, spanID)
	if sampled {
		return b, FlagSampled
	}
	return b, 0
}

// ParseTrace splits the trace prefix off the body of the frame h
// heads. A zero trace ID means untraced: span ID and sampled then read
// as zero whatever was sent.
func ParseTrace(h FrameHeader, body []byte) (traceID, spanID uint64, sampled bool, rest []byte, err error) {
	if len(body) < TracePrefixLen {
		return 0, 0, false, nil, errors.New("wire: frame body shorter than its trace prefix")
	}
	traceID = binary.LittleEndian.Uint64(body[:8])
	if traceID != 0 {
		spanID = binary.LittleEndian.Uint64(body[8:16])
		sampled = h.Flags&FlagSampled != 0
	}
	return traceID, spanID, sampled, body[TracePrefixLen:], nil
}

// FrameHeader is the decoded v2 frame header.
type FrameHeader struct {
	Kind  FrameKind
	Flags uint8
	Tag   uint32
	Len   uint32
}

// PutFrameHeader encodes h into b (len(b) >= FrameHeaderLen): how a
// sender that writes a frame's body itself, such as a server sending a
// DATA frame's bytes by sendfile, frames them.
func PutFrameHeader(b []byte, h FrameHeader) {
	b[0] = Magic2
	b[1] = version2
	b[2] = byte(h.Kind)
	b[3] = h.Flags
	binary.LittleEndian.PutUint32(b[4:8], h.Tag)
	binary.LittleEndian.PutUint32(b[8:12], h.Len)
}

// ReadFrameHeader reads and validates one v2 frame header. A header
// whose magic, version or length is wrong is a framing error: the
// stream has lost sync (or the peer speaks another protocol) and the
// connection cannot be recovered. Unknown kinds are NOT rejected here —
// receivers skip them for forward compatibility.
func ReadFrameHeader(r io.Reader) (FrameHeader, error) {
	var b [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return FrameHeader{}, err
	}
	if b[0] != Magic2 || b[1] != version2 {
		return FrameHeader{}, fmt.Errorf("wire: bad v2 magic %#x version %d", b[0], b[1])
	}
	h := FrameHeader{
		Kind:  FrameKind(b[2]),
		Flags: b[3],
		Tag:   binary.LittleEndian.Uint32(b[4:8]),
		Len:   binary.LittleEndian.Uint32(b[8:12]),
	}
	if h.Len > MaxMessage {
		return FrameHeader{}, fmt.Errorf("wire: v2 frame of %d bytes exceeds limit", h.Len)
	}
	return h, nil
}

// DiscardFrameBody consumes and drops the body of a frame whose header
// was just read — how receivers skip unknown kinds and frames for
// unknown tags without losing stream sync.
func DiscardFrameBody(r io.Reader, h FrameHeader) error {
	if h.Len == 0 {
		return nil
	}
	_, err := io.CopyN(io.Discard, r, int64(h.Len))
	return err
}

// CheckDataFrame refuses, as a framing error, a DATA frame whose body
// exceeds StreamChunk. No sender emits one, and a receiver that sized a
// buffer from the header alone would let a 12-byte header claim up to
// MaxMessage of memory before any body arrived; both response readers,
// ReadResponseV2Into and the client mux's demux reader, check every DATA
// header with it.
func CheckDataFrame(h FrameHeader) error {
	if h.Len > StreamChunk {
		return fmt.Errorf("wire: DATA frame of %d bytes exceeds the %d-byte chunk", h.Len, StreamChunk)
	}
	return nil
}

// FrameWriter sends v2 frames on one connection. Frame headers and
// metadata bodies are built in a scratch the writer keeps, and the
// buffer vector is reused, so a steady-state frame costs no allocation;
// payload bytes are referenced, never copied, and each message leaves
// in one vectored write. A FrameWriter is not safe for concurrent use:
// whoever holds the connection's write lock owns it.
type FrameWriter struct {
	w    io.Writer
	meta []byte      // every header and metadata body of the message being built
	vec  [][]byte    // backing array of the buffer vector, reused across messages
	out  net.Buffers // the vector handed to WriteTo, which consumes it
}

// NewFrameWriter returns a FrameWriter sending to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// begin starts a message whose headers and metadata need at most n
// bytes of scratch. Reserving up front keeps the scratch from moving
// while the vector points into it.
func (fw *FrameWriter) begin(n int) {
	if cap(fw.meta) < n {
		fw.meta = make([]byte, 0, n)
	}
	if fw.vec == nil {
		fw.vec = make([][]byte, 0, 8) // a response with its tail chunk is 3 pieces
	}
	fw.meta = fw.meta[:0]
	fw.vec = fw.vec[:0]
}

// flush sends the message in one vectored write.
func (fw *FrameWriter) flush() error {
	fw.out = fw.vec
	_, err := fw.out.WriteTo(fw.w)
	for i := range fw.vec {
		fw.vec[i] = nil // drop payload references until the next message
	}
	return err
}

// header appends a frame header to the scratch and the vector and
// returns it — with the scratch's spare capacity behind it, so a body
// appended to the scratch next can leave as the same piece.
func (fw *FrameWriter) header(h FrameHeader) []byte {
	n := len(fw.meta)
	fw.meta = fw.meta[:n+FrameHeaderLen]
	PutFrameHeader(fw.meta[n:], h)
	fw.vec = append(fw.vec, fw.meta[n:])
	return fw.meta[n:]
}

// dataFrames splits the payload slices into DATA frames of at most
// StreamChunk bytes each and appends (header, chunk pieces...) to the
// vector.
func (fw *FrameWriter) dataFrames(tag uint32, segs ...[]byte) {
	var hdr []byte // header of the frame being filled
	room := 0
	for _, s := range segs {
		for len(s) > 0 {
			if room == 0 {
				hdr = fw.header(FrameHeader{Kind: FrameData, Tag: tag})
				room = StreamChunk
			}
			take := min(len(s), room)
			fw.vec = append(fw.vec, s[:take])
			room -= take
			binary.LittleEndian.PutUint32(hdr[8:12], uint32(StreamChunk-room))
			s = s[take:]
		}
	}
}

// dataHeaders bounds the header scratch the DATA frames of an n-byte
// payload need.
func dataHeaders(n int) int { return (n/StreamChunk + 1) * FrameHeaderLen }

// WriteRequest frames and sends a request under tag: one REQ frame
// followed by the payload as contiguous DATA frames. REQ body layout:
// u64 trace ID, u64 parent span ID, u8 op, u8 reserved, u16 path
// length, path, u64 generation, u32 extent count, 16 bytes per extent,
// u32 payload length, then optionally u32 selection length and the
// selection bytes (the section is omitted entirely when there is no
// selection, so a request without one is encoded as it always was). The
// sampled bit travels in the frame header's flags.
func (fw *FrameWriter) WriteRequest(tag uint32, req *Request) error {
	if len(req.Path) > 0xFFFF {
		return errors.New("wire: path too long")
	}
	dlen := req.PayloadLen()
	n := 8 + 8 + 1 + 1 + 2 + len(req.Path) + 8 + 4 + 16*len(req.Extents) + 4
	if len(req.Sel) > 0 {
		n += 4 + len(req.Sel)
	}
	fw.begin(FrameHeaderLen + n + dataHeaders(dlen))
	hdr := fw.header(FrameHeader{Kind: FrameReq, Tag: tag, Len: uint32(n)})
	le := binary.LittleEndian
	b, flags := AppendTrace(fw.meta, req.TraceID, req.SpanID, req.Sampled)
	hdr[3] = flags // the header's flags byte
	b = append(b, byte(req.Op), 0)
	b = le.AppendUint16(b, uint16(len(req.Path)))
	b = append(b, req.Path...)
	b = le.AppendUint64(b, uint64(req.Gen))
	b = le.AppendUint32(b, uint32(len(req.Extents)))
	for _, e := range req.Extents {
		b = le.AppendUint64(b, uint64(e.Off))
		b = le.AppendUint64(b, uint64(e.Len))
	}
	b = le.AppendUint32(b, uint32(dlen))
	if len(req.Sel) > 0 {
		b = le.AppendUint32(b, uint32(len(req.Sel)))
		b = append(b, req.Sel...)
	}
	fw.meta = b
	fw.vec[0] = hdr[:FrameHeaderLen+n] // header and body leave as one piece
	if req.Segments != nil {
		fw.dataFrames(tag, req.Segments...)
	} else {
		fw.dataFrames(tag, req.Data)
	}
	return fw.flush()
}

// WriteRequestV2 frames and sends one request on w. Connections that
// send many keep a FrameWriter instead.
func WriteRequestV2(w io.Writer, tag uint32, req *Request) error {
	return NewFrameWriter(w).WriteRequest(tag, req)
}

// ReadRequestV2 decodes a request whose REQ frame header h was just
// read from r, then consumes its payload from the contiguous DATA
// frames that follow. alloc, when non-nil, supplies the payload buffer
// (servers pass their pooled-buffer getter); the returned request's
// Data aliases it.
func ReadRequestV2(r io.Reader, h FrameHeader, alloc func(int64) []byte) (*Request, error) {
	if h.Kind != FrameReq {
		return nil, fmt.Errorf("wire: frame kind %d is not a request", h.Kind)
	}
	body := make([]byte, h.Len)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	req := &Request{}
	var err error
	req.TraceID, req.SpanID, req.Sampled, body, err = ParseTrace(h, body)
	if err != nil {
		return nil, err
	}
	p := 0
	get := func(k int) ([]byte, error) {
		if p+k > len(body) {
			return nil, errors.New("wire: truncated v2 request")
		}
		b := body[p : p+k]
		p += k
		return b, nil
	}
	b, err := get(2)
	if err != nil {
		return nil, err
	}
	req.Op = Op(b[0])
	b, err = get(2)
	if err != nil {
		return nil, err
	}
	plen := int(binary.LittleEndian.Uint16(b))
	b, err = get(plen)
	if err != nil {
		return nil, err
	}
	req.Path = string(b)
	b, err = get(8)
	if err != nil {
		return nil, err
	}
	req.Gen = int64(binary.LittleEndian.Uint64(b))
	b, err = get(4)
	if err != nil {
		return nil, err
	}
	ne := int(binary.LittleEndian.Uint32(b))
	if ne > 1<<24 {
		return nil, fmt.Errorf("wire: %d extents exceeds limit", ne)
	}
	if ne > (len(body)-p)/16 {
		// Refused before the slice is made: a count is four bytes, the
		// slice it asks for up to 256 MiB.
		return nil, errors.New("wire: truncated v2 request")
	}
	req.Extents = make([]Extent, ne)
	for i := 0; i < ne; i++ {
		b, err = get(16)
		if err != nil {
			return nil, err
		}
		req.Extents[i].Off = int64(binary.LittleEndian.Uint64(b[:8]))
		req.Extents[i].Len = int64(binary.LittleEndian.Uint64(b[8:16]))
	}
	b, err = get(4)
	if err != nil {
		return nil, err
	}
	dlen := int64(binary.LittleEndian.Uint32(b))
	if dlen > MaxMessage {
		return nil, fmt.Errorf("wire: v2 payload of %d bytes exceeds limit", dlen)
	}
	if p != len(body) {
		// The selection section: its length, which is never zero (an
		// empty selection is no section), then exactly that many bytes.
		b, err = get(4)
		if err != nil {
			return nil, err
		}
		if slen := int(binary.LittleEndian.Uint32(b)); slen == 0 || slen != len(body)-p {
			return nil, fmt.Errorf("wire: selection section of %d bytes in the %d left of v2 request metadata", slen, len(body)-p)
		}
		req.Sel = body[p:]
	}
	if dlen == 0 {
		return req, nil
	}
	var buf []byte
	if alloc != nil {
		buf = alloc(dlen)
	} else {
		buf = make([]byte, dlen)
	}
	pos := int64(0)
	for pos < dlen {
		dh, err := ReadFrameHeader(r)
		if err != nil {
			return nil, err
		}
		if dh.Kind != FrameData || dh.Tag != h.Tag {
			return nil, fmt.Errorf("wire: expected DATA frame for tag %d, got kind %d tag %d", h.Tag, dh.Kind, dh.Tag)
		}
		if dh.Len == 0 || int64(dh.Len) > dlen-pos {
			return nil, fmt.Errorf("wire: DATA frame of %d bytes overruns %d-byte payload", dh.Len, dlen)
		}
		if _, err := io.ReadFull(r, buf[pos:pos+int64(dh.Len)]); err != nil {
			return nil, err
		}
		pos += int64(dh.Len)
	}
	req.Data = buf
	return req, nil
}

// responseMetaLen is the encoded size of resp's RESP body.
func responseMetaLen(resp *Response) int {
	n := 2 + min(len(resp.Err), 0xFFFF) + 8 + 4 + 4 + len(resp.Trace)
	if len(resp.Delta) > 0 {
		n += 4 + len(resp.Delta)
	}
	return n
}

// appendResponseMeta appends the body of a RESP frame: u16 error
// length, error, u64 scalar, u32 total data length (the sum of the
// tag's DATA frames), u32 trace length, trace bytes, then optionally
// u32 delta length and the gossip-delta bytes (the section is omitted
// entirely when there is no delta, keeping the original encoding
// byte-identical).
func appendResponseMeta(b []byte, resp *Response, dataLen int64) []byte {
	errStr := resp.Err
	if len(errStr) > 0xFFFF {
		errStr = errStr[:0xFFFF]
	}
	le := binary.LittleEndian
	b = le.AppendUint16(b, uint16(len(errStr)))
	b = append(b, errStr...)
	b = le.AppendUint64(b, uint64(resp.N))
	b = le.AppendUint32(b, uint32(dataLen))
	b = le.AppendUint32(b, uint32(len(resp.Trace)))
	b = append(b, resp.Trace...)
	if len(resp.Delta) > 0 {
		b = le.AppendUint32(b, uint32(len(resp.Delta)))
		b = append(b, resp.Delta...)
	}
	return b
}

// DecodeResponseMetaV2 parses a RESP frame body. dataLen is the total
// payload the sender streamed as DATA frames before the RESP; callers
// compare it against what they accumulated (unless Err is set — an
// error reported mid-stream abandons whatever data preceded it).
func DecodeResponseMetaV2(body []byte) (resp *Response, dataLen int64, err error) {
	resp = &Response{}
	p := 0
	get := func(k int) ([]byte, error) {
		if p+k > len(body) {
			return nil, errors.New("wire: truncated v2 response")
		}
		b := body[p : p+k]
		p += k
		return b, nil
	}
	b, err := get(2)
	if err != nil {
		return nil, 0, err
	}
	elen := int(binary.LittleEndian.Uint16(b))
	b, err = get(elen)
	if err != nil {
		return nil, 0, err
	}
	resp.Err = string(b)
	b, err = get(8)
	if err != nil {
		return nil, 0, err
	}
	resp.N = int64(binary.LittleEndian.Uint64(b))
	b, err = get(4)
	if err != nil {
		return nil, 0, err
	}
	dataLen = int64(binary.LittleEndian.Uint32(b))
	b, err = get(4)
	if err != nil {
		return nil, 0, err
	}
	tlen := int(binary.LittleEndian.Uint32(b))
	b, err = get(tlen)
	if err != nil {
		return nil, 0, err
	}
	if tlen > 0 {
		resp.Trace = b
	}
	// Optional delta section: u32 length + bytes, present only when it
	// fits the remaining body exactly. Any other remainder is ignored
	// for forward compatibility — the delta, like the trace, is
	// best-effort and must never fail the response that carries it.
	if rest := len(body) - p; rest >= 4 {
		dlen := int(binary.LittleEndian.Uint32(body[p : p+4]))
		if dlen > 0 && 4+dlen == rest {
			resp.Delta = body[p+4:]
		}
	}
	return resp, dataLen, nil
}

// WriteFrame sends one frame of kind, flags and tag around a body the
// caller built. Header and body leave in one vectored write; the body
// is referenced, not copied, and h.Len is ignored.
func (fw *FrameWriter) WriteFrame(h FrameHeader, body []byte) error {
	if len(body) > MaxMessage {
		return fmt.Errorf("wire: frame body of %d bytes exceeds limit", len(body))
	}
	h.Len = uint32(len(body))
	fw.begin(FrameHeaderLen)
	fw.header(h)
	fw.vec = append(fw.vec, body)
	return fw.flush()
}

// WriteData sends one DATA frame for tag (the chunk is referenced, not
// copied). Callers chunk at StreamChunk; an empty chunk writes nothing.
func (fw *FrameWriter) WriteData(tag uint32, chunk []byte) error {
	if len(chunk) == 0 {
		return nil
	}
	return fw.WriteFrame(FrameHeader{Kind: FrameData, Tag: tag}, chunk)
}

// WriteResponse frames and sends a response under tag: resp.Data (if
// any) as DATA frames, then the RESP frame whose data length covers
// both streamed (bytes the caller already emitted as DATA frames) and
// resp.Data — the tail of a streamed read rides with its trailer.
func (fw *FrameWriter) WriteResponse(tag uint32, resp *Response, streamed int64) error {
	n := responseMetaLen(resp)
	fw.begin(dataHeaders(len(resp.Data)) + FrameHeaderLen + n)
	fw.dataFrames(tag, resp.Data)
	hdr := fw.header(FrameHeader{Kind: FrameResp, Tag: tag, Len: uint32(n)})
	fw.meta = appendResponseMeta(fw.meta, resp, streamed+int64(len(resp.Data)))
	fw.vec[len(fw.vec)-1] = hdr[:FrameHeaderLen+n] // header and body leave as one piece
	return fw.flush()
}

// WriteCancel sends a CANCEL frame for tag.
func (fw *FrameWriter) WriteCancel(tag uint32) error {
	return fw.WriteFrame(FrameHeader{Kind: FrameCancel, Tag: tag}, nil)
}

// WriteResponseV2 frames and sends one response on w; see
// FrameWriter.WriteResponse.
func WriteResponseV2(w io.Writer, tag uint32, resp *Response, streamed int64) error {
	return NewFrameWriter(w).WriteResponse(tag, resp, streamed)
}

// ReadResponseV2Into reads DATA frames and the closing RESP frame for
// tag from a connection carrying exactly one exchange (Call and
// tests; the client mux demultiplexes interleaved tags itself). Data
// accumulates into scratch when it fits, and then aliases it.
// Unknown frame kinds are skipped; a frame for a different tag is a
// protocol error here, since nothing else can be in flight.
func ReadResponseV2Into(r io.Reader, tag uint32, scratch []byte) (*Response, error) {
	var data []byte
	if scratch != nil {
		data = scratch[:0]
	}
	for {
		h, err := ReadFrameHeader(r)
		if err != nil {
			return nil, err
		}
		switch h.Kind {
		case FrameData:
			if h.Tag != tag {
				return nil, fmt.Errorf("wire: DATA for unexpected tag %d", h.Tag)
			}
			if err := CheckDataFrame(h); err != nil {
				return nil, err
			}
			off, n := len(data), int(h.Len)
			if off+n > MaxMessage {
				return nil, fmt.Errorf("wire: v2 response payload exceeds %d bytes", MaxMessage)
			}
			data = slices.Grow(data, n)[:off+n]
			if _, err := io.ReadFull(r, data[off:]); err != nil {
				return nil, err
			}
		case FrameResp:
			if h.Tag != tag {
				return nil, fmt.Errorf("wire: RESP for unexpected tag %d", h.Tag)
			}
			body := make([]byte, h.Len)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, err
			}
			resp, dataLen, err := DecodeResponseMetaV2(body)
			if err != nil {
				return nil, err
			}
			if resp.Err != "" {
				return resp, nil
			}
			if dataLen != int64(len(data)) {
				return nil, fmt.Errorf("wire: response announced %d data bytes, received %d", dataLen, len(data))
			}
			if len(data) > 0 {
				resp.Data = data
			}
			return resp, nil
		default:
			// Unknown kinds (and stray CANCELs) are skipped for forward
			// compatibility — they must never fail the in-flight exchange.
			if err := DiscardFrameBody(r, h); err != nil {
				return nil, err
			}
		}
	}
}

// Call dials addr (a nil dial is a plain TCP dial), runs one exchange
// under a fixed tag on the new connection, bounded by ctx's deadline,
// and closes it: what a
// caller that must see the peer as it is right now (a repair pull, a
// liveness probe, a gossip exchange) does instead of going through a
// Client's mux, retries and breaker.
func Call(ctx context.Context, dial func(context.Context, string) (net.Conn, error), addr string, req *Request) (*Response, error) {
	if dial == nil {
		var d net.Dialer
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	const tag = 1
	if err := WriteRequestV2(conn, tag, req); err != nil {
		return nil, err
	}
	return ReadResponseV2Into(conn, tag, nil)
}
