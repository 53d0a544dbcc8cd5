// Package wire defines the binary protocol between DPFS clients and
// DPFS I/O servers. The paper's servers receive brick requests over
// TCP sockets and perform the actual I/O with the local file system API
// (Section 2); this package is the message layer of that path.
//
// A message is a 4-byte magic+version header, a 4-byte little-endian
// payload length, and the payload. Requests name an operation, a
// subfile path, the file's distribution generation and a list of byte
// extents; WRITE requests carry the concatenated extent data, READ
// responses return it — all of it, or the strided pieces a selection in
// the READ request picks out of each extent (selection.go). A combined
// request (Section 4.2) is simply one message whose extent list covers
// many bricks.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// Op enumerates the server operations.
type Op uint8

const (
	// OpPing checks liveness.
	OpPing Op = iota + 1
	// OpRead returns the bytes of each extent of a subfile, or of the
	// pieces a Selection in the payload picks out of it.
	OpRead
	// OpWrite stores the carried bytes at each extent of a subfile.
	OpWrite
	// OpRemove deletes a subfile.
	OpRemove
	// OpStat returns a subfile's current size.
	OpStat
	// OpUsage returns the server's total stored bytes.
	OpUsage
	// OpTruncate cuts a subfile to a length.
	OpTruncate
	// OpRename moves a subfile: Path is the old name, Data carries the
	// new name.
	OpRename
	// OpCopy tells a server to materialize brick slots of a subfile by
	// copying from another server (online repair). Path names the
	// destination subfile, Gen its generation, Extents pair up as
	// (dst, src): extent 2i is the destination slot range and extent
	// 2i+1 the matching source range. Data carries the copy source as
	// "srcAddr\nsrcPath\nsrcGen"; an empty srcAddr means the source is
	// this server itself (a local generation bump). An empty srcAddr
	// AND srcPath with no extents is the cleanup form: superseded
	// on-disk generations of Path are deleted (sent by repair after the
	// new generation is committed to the catalog).
	OpCopy
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpRemove:
		return "REMOVE"
	case OpStat:
		return "STAT"
	case OpUsage:
		return "USAGE"
	case OpTruncate:
		return "TRUNCATE"
	case OpRename:
		return "RENAME"
	case OpCopy:
		return "COPY"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Extent is one contiguous byte range of a subfile.
type Extent struct {
	Off int64
	Len int64
}

// Request is one client→server message.
type Request struct {
	Op   Op
	Path string
	// Gen is the file's distribution generation (the gen column of the
	// file's dpfs_file_distribution rows). Servers key subfiles by
	// (path, generation) and reject a request whose generation is older
	// than what they hold, so a client acting on a stale cached
	// distribution — e.g. a retried read after the file was removed and
	// recreated — gets an error instead of silently wrong bricks. Gen 0
	// means "ungenerationed" and addresses the bare path (the pre-cache
	// wire behavior, still used by raw tools and tests).
	Gen     int64
	Extents []Extent
	// Data carries the concatenated payload of all extents for
	// OpWrite; its length must equal the sum of extent lengths. For
	// OpRead it carries the selections that narrow extents to strided
	// pieces (AppendSelection), empty when every extent is wanted
	// whole. For OpTruncate, Extents[0].Len holds the new size.
	Data []byte
	// Segments, when non-nil, carries the OpWrite payload as a
	// scatter list instead of Data: WriteRequest flushes the pieces
	// with vectored I/O (net.Buffers / writev) so the sender never
	// packs them into one intermediate buffer. The concatenation of
	// the segments must equal the sum of extent lengths. Senders set
	// exactly one of Data and Segments; receivers always see Data.
	Segments [][]byte

	// TraceID, SpanID and Sampled are the wire-propagated trace
	// context, carried as an optional trailer after the payload so the
	// server can attach its spans to the client's request tree. A zero
	// TraceID means untraced and sends no trailer. Tracing is
	// best-effort: receivers ignore malformed trailers rather than
	// failing the request.
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// PayloadLen returns the number of payload bytes the request carries
// (len(Data), or the total of Segments when the scatter form is used).
func (req *Request) PayloadLen() int {
	if req.Segments != nil {
		n := 0
		for _, s := range req.Segments {
			n += len(s)
		}
		return n
	}
	return len(req.Data)
}

// Response is one server→client message.
type Response struct {
	// Err is non-empty when the operation failed.
	Err string
	// Data carries the concatenated extent payload for OpRead.
	Data []byte
	// N returns a scalar: bytes written, subfile size for OpStat,
	// stored bytes for OpUsage.
	N int64
	// Trace optionally carries the server's span tree for the request
	// (obs.EncodeSpans format), sent as a trailer after Data when the
	// request was sampled. Like Data it may alias the scratch buffer
	// passed to ReadResponseInto, so consume it before reuse. Decoding
	// failures are ignored by callers — tracing is best-effort.
	Trace []byte
	// Delta optionally carries a gossip server-table delta
	// (internal/gossip delta format) piggybacked on the response, so
	// clients learn membership changes at RPC latency instead of
	// waiting out their metadata-cache TTL. On v1 it rides as a
	// self-delimiting footer after the span trailer; on v2 as an
	// explicit section of the RESP metadata. Like Trace it is
	// best-effort — a damaged delta is dropped, never an RPC error —
	// and may alias the scratch buffer.
	Delta []byte
}

const (
	magic     = 0xD9
	version   = 1
	headerLen = 8
)

// MaxMessage bounds a message payload; both sides reject bigger frames
// to avoid unbounded allocations from corrupt peers.
const MaxMessage = 1 << 30

// RespOverhead is the fixed framing overhead of a successful response
// body beyond its extent data (error length + scalar + data length).
// Callers of ReadResponseInto add it to the expected data size when
// sizing a scratch buffer.
const RespOverhead = 2 + 8 + 4

// traceTrailerLen is the size of the optional request trace-context
// trailer: u64 trace ID, u64 parent span ID, one flags byte (bit 0 =
// sampled). A request body with exactly this many bytes after the
// payload carries trace context; any other remainder is ignored so
// future extensions and garbage alike never fail a request.
const traceTrailerLen = 8 + 8 + 1

// deltaFooterLen is the fixed tail of the optional v1 response delta
// footer: u32 delta length followed by the 4-byte footer magic. The
// footer is parsed from the end of the response body — everything
// between the payload and the footer remains the span trailer — so
// old peers, which treat all post-payload bytes as the trailer, and
// new peers interoperate without negotiation. A body whose tail
// happens to end in the magic without a consistent length is treated
// as plain trailer bytes: the delta is best-effort by contract.
const deltaFooterLen = 4 + 4

// deltaFooterMagic closes a v1 response delta footer. It is distinct
// from every frame magic so a truncation cannot alias a frame start.
var deltaFooterMagic = [4]byte{0xDB, 'g', 'd', 0xD9}

// FormatCopySource encodes the OpCopy source descriptor carried in
// Request.Data.
func FormatCopySource(addr, path string, gen int64) []byte {
	return []byte(addr + "\n" + path + "\n" + fmt.Sprintf("%d", gen))
}

// ParseCopySource decodes an OpCopy source descriptor.
func ParseCopySource(data []byte) (addr, path string, gen int64, err error) {
	parts := bytes.SplitN(data, []byte("\n"), 3)
	if len(parts) != 3 {
		return "", "", 0, errors.New("wire: malformed copy source")
	}
	g, err := strconv.ParseInt(string(parts[2]), 10, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("wire: bad copy source generation: %w", err)
	}
	return string(parts[0]), string(parts[1]), g, nil
}

// DataBytes sums the extent lengths.
func DataBytes(exts []Extent) int64 {
	var n int64
	for _, e := range exts {
		n += e.Len
	}
	return n
}

// WriteRequest frames and sends a request. The framing meta data is
// packed into one buffer; the payload — Data or the scatter Segments —
// is flushed behind it with vectored I/O, so scatter payloads reach the
// socket without an intermediate packing copy.
func WriteRequest(w io.Writer, req *Request) error {
	dlen := req.PayloadLen()
	var trailer []byte
	if req.TraceID != 0 {
		trailer = make([]byte, traceTrailerLen)
		binary.LittleEndian.PutUint64(trailer[0:8], req.TraceID)
		binary.LittleEndian.PutUint64(trailer[8:16], req.SpanID)
		if req.Sampled {
			trailer[16] = 1
		}
	}
	n := 2 + len(req.Path) + 8 + 4 + 16*len(req.Extents) + 4 + dlen + len(trailer)
	buf := make([]byte, headerLen, headerLen+n-dlen-len(trailer))
	buf[0] = magic
	buf[1] = version
	buf[2] = byte(req.Op)
	// buf[3] reserved
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))

	if len(req.Path) > 0xFFFF {
		return errors.New("wire: path too long")
	}
	var tmp [16]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(req.Path)))
	buf = append(buf, tmp[:2]...)
	buf = append(buf, req.Path...)
	binary.LittleEndian.PutUint64(tmp[:8], uint64(req.Gen))
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(req.Extents)))
	buf = append(buf, tmp[:4]...)
	for _, e := range req.Extents {
		binary.LittleEndian.PutUint64(tmp[:8], uint64(e.Off))
		binary.LittleEndian.PutUint64(tmp[8:16], uint64(e.Len))
		buf = append(buf, tmp[:16]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(dlen))
	buf = append(buf, tmp[:4]...)
	if req.Segments != nil {
		bufs := make(net.Buffers, 0, 2+len(req.Segments))
		bufs = append(bufs, buf)
		for _, s := range req.Segments {
			if len(s) > 0 {
				bufs = append(bufs, s)
			}
		}
		if trailer != nil {
			bufs = append(bufs, trailer)
		}
		_, err := bufs.WriteTo(w)
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if len(req.Data) > 0 {
		if _, err := w.Write(req.Data); err != nil {
			return err
		}
	}
	if trailer != nil {
		if _, err := w.Write(trailer); err != nil {
			return err
		}
	}
	return nil
}

// ReadRequest reads one framed request.
func ReadRequest(r io.Reader) (*Request, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magic || hdr[1] != version {
		return nil, fmt.Errorf("wire: bad magic %#x version %d", hdr[0], hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxMessage {
		return nil, fmt.Errorf("wire: request of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	req := &Request{Op: Op(hdr[2])}
	p := 0
	get := func(k int) ([]byte, error) {
		if p+k > len(body) {
			return nil, errors.New("wire: truncated request")
		}
		b := body[p : p+k]
		p += k
		return b, nil
	}
	b, err := get(2)
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
	dlen := int(binary.LittleEndian.Uint32(b))
	b, err = get(dlen)
	if err != nil {
		return nil, err
	}
	if dlen > 0 {
		req.Data = b
	}
	// Bytes past the payload are the optional trace-context trailer.
	// Tracing is best-effort: only an exact-size trailer with a
	// non-zero trace ID is honored; anything else (truncated trailers,
	// unknown extensions, garbage) is silently ignored rather than
	// failing the request.
	if len(body)-p == traceTrailerLen {
		if id := binary.LittleEndian.Uint64(body[p : p+8]); id != 0 {
			req.TraceID = id
			req.SpanID = binary.LittleEndian.Uint64(body[p+8 : p+16])
			req.Sampled = body[p+16]&1 == 1
		}
	}
	return req, nil
}

// WriteResponse frames and sends a response. A non-empty Trace is
// appended after Data as the span trailer; a non-empty Delta follows
// it as a magic-closed footer.
func WriteResponse(w io.Writer, resp *Response) error {
	if len(resp.Err) > 0xFFFF {
		resp = &Response{Err: resp.Err[:0xFFFF]}
	}
	footer := len(resp.Delta)
	if footer > 0 {
		footer += deltaFooterLen
	}
	n := 2 + len(resp.Err) + 8 + 4 + len(resp.Data) + len(resp.Trace) + footer
	buf := make([]byte, headerLen, headerLen+n-len(resp.Data)-len(resp.Trace)-footer)
	buf[0] = magic
	buf[1] = version
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))

	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(resp.Err)))
	buf = append(buf, tmp[:2]...)
	buf = append(buf, resp.Err...)
	binary.LittleEndian.PutUint64(tmp[:8], uint64(resp.N))
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(resp.Data)))
	buf = append(buf, tmp[:4]...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if len(resp.Data) > 0 {
		if _, err := w.Write(resp.Data); err != nil {
			return err
		}
	}
	if len(resp.Trace) > 0 {
		if _, err := w.Write(resp.Trace); err != nil {
			return err
		}
	}
	if len(resp.Delta) > 0 {
		foot := make([]byte, deltaFooterLen)
		binary.LittleEndian.PutUint32(foot[0:4], uint32(len(resp.Delta)))
		copy(foot[4:8], deltaFooterMagic[:])
		if _, err := w.Write(resp.Delta); err != nil {
			return err
		}
		if _, err := w.Write(foot); err != nil {
			return err
		}
	}
	return nil
}

// ReadResponse reads one framed response.
func ReadResponse(r io.Reader) (*Response, error) {
	return ReadResponseInto(r, nil)
}

// ReadResponseInto reads one framed response, using scratch as the
// body buffer when its capacity suffices (the returned Response's Data
// then aliases scratch, so the caller must consume it before reusing
// the buffer). A nil or short scratch falls back to allocating; the
// response body carries a small fixed overhead beyond the extent data,
// so callers should size scratch with RespOverhead slack.
func ReadResponseInto(r io.Reader, scratch []byte) (*Response, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magic || hdr[1] != version {
		return nil, fmt.Errorf("wire: bad magic %#x version %d", hdr[0], hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxMessage {
		return nil, fmt.Errorf("wire: response of %d bytes exceeds limit", n)
	}
	var body []byte
	if uint64(cap(scratch)) >= uint64(n) {
		body = scratch[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	resp := &Response{}
	p := 0
	get := func(k int) ([]byte, error) {
		if p+k > len(body) {
			return nil, errors.New("wire: truncated response")
		}
		b := body[p : p+k]
		p += k
		return b, nil
	}
	b, err := get(2)
	if err != nil {
		return nil, err
	}
	elen := int(binary.LittleEndian.Uint16(b))
	b, err = get(elen)
	if err != nil {
		return nil, err
	}
	resp.Err = string(b)
	b, err = get(8)
	if err != nil {
		return nil, err
	}
	resp.N = int64(binary.LittleEndian.Uint64(b))
	b, err = get(4)
	if err != nil {
		return nil, err
	}
	dlen := int(binary.LittleEndian.Uint32(b))
	b, err = get(dlen)
	if err != nil {
		return nil, err
	}
	if dlen > 0 {
		resp.Data = b
	}
	// Bytes past the payload are the optional span trailer, possibly
	// closed by a gossip-delta footer. Both are best-effort: the raw
	// bytes are handed to the caller, a caller that fails to decode
	// them just drops the remote spans or the delta, and a footer
	// whose length does not fit stays part of the trailer.
	tail := body[p:]
	if len(tail) >= deltaFooterLen && [4]byte(tail[len(tail)-4:]) == deltaFooterMagic {
		dlen := int(binary.LittleEndian.Uint32(tail[len(tail)-8 : len(tail)-4]))
		if dlen > 0 && dlen <= len(tail)-deltaFooterLen {
			resp.Delta = tail[len(tail)-deltaFooterLen-dlen : len(tail)-deltaFooterLen]
			tail = tail[:len(tail)-deltaFooterLen-dlen]
		}
	}
	if len(tail) > 0 {
		resp.Trace = tail
	}
	return resp, nil
}
