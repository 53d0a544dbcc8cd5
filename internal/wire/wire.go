// Package wire defines the binary protocol between DPFS clients and
// DPFS I/O servers. The paper's servers receive brick requests over
// TCP sockets and perform the actual I/O with the local file system API
// (Section 2); this package is the message layer of that path.
//
// Messages travel as tagged frames (frame.go), many outstanding
// requests multiplexed over one connection. Requests name an operation,
// a subfile path, the file's distribution generation and a list of byte
// extents; WRITE requests carry the extent data, READ responses return
// it — all of each extent, or the strided pieces a selection in the
// request picks out of it (selection.go), in either direction. A
// combined request (Section 4.2) is simply one message whose extent
// list covers many bricks.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Op enumerates the server operations.
type Op uint8

const (
	// OpPing checks liveness.
	OpPing Op = iota + 1
	// OpRead returns the bytes of each extent of a subfile, or of the
	// pieces a Selection (Request.Sel) picks out of it.
	OpRead
	// OpWrite stores the carried bytes at each extent of a subfile, or
	// at the pieces a Selection (Request.Sel) picks out of it.
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
	// OpGossip carries one exchange of the servers' gossip mesh
	// (internal/gossip): Data holds the encoded push or pull message,
	// and a pull's reply comes back in Response.Data.
	OpGossip
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
	case OpGossip:
		return "GOSSIP"
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
	// Data carries the payload of OpWrite: the bytes of every extent
	// in order — of its selected pieces only, where Sel narrows it —
	// so its length must equal what ParseSelections counts. OpRead
	// carries none. For OpTruncate, Extents[0].Len holds the new size.
	Data []byte
	// Segments, when non-nil, carries the OpWrite payload as a
	// scatter list instead of Data: FrameWriter.WriteRequest flushes the
	// pieces with vectored I/O (net.Buffers / writev) so the sender never
	// packs them into one intermediate buffer. The concatenation of
	// the segments is what Data would hold. Senders set exactly one of
	// Data and Segments; receivers always see Data.
	Segments [][]byte
	// Sel carries the selections that narrow extents of an OpRead or
	// OpWrite to strided pieces (AppendSelection), empty when every
	// extent moves whole. It is request metadata — a section of the
	// REQ frame's body, not payload.
	Sel []byte

	// TraceID, SpanID and Sampled are the wire-propagated trace
	// context, carried in fixed fields of the REQ frame so the server
	// can attach its spans to the client's request tree. A zero TraceID
	// means untraced.
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
	// (obs.EncodeSpans format), a section of the RESP metadata sent when
	// the request was sampled. Decoding failures are ignored by callers
	// — tracing is best-effort.
	Trace []byte
	// Delta optionally carries a gossip server-table delta
	// (internal/gossip delta format) piggybacked on the response as a
	// section of the RESP metadata, so clients learn membership changes
	// at RPC latency instead of waiting out their metadata-cache TTL.
	// Like Trace it is best-effort — a damaged delta is dropped, never
	// an RPC error.
	Delta []byte
}

// MaxMessage bounds a message payload; both sides reject bigger frames
// to avoid unbounded allocations from corrupt peers.
const MaxMessage = 1 << 30

// RespOverhead is slack callers of the retired one-body response codec
// added to a scratch buffer beyond the expected data. Frames land DATA
// bodies alone in the scratch, so nothing needs it any more; it stays
// only because the frozen benchmark adapter still sizes its buffer with
// it (ROADMAP 7a drops it there and here).
const RespOverhead = 2 + 8 + 4

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
