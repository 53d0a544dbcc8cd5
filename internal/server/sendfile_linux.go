//go:build linux

package server

import (
	"net"
	"syscall"

	"dpfs/internal/wire"
)

// frameSender sends one session's zero-copy DATA frames: the header,
// then StreamChunk bytes of a subfile by sendfile(2), page cache to
// socket without passing through this process. Its callbacks are bound
// once per session and a frame's state lives in its fields, so a frame
// allocates nothing; the session's write lock serializes its use.
type frameSender struct {
	conn    syscall.RawConn
	control func(uintptr)      // fromFile, bound
	write   func(uintptr) bool // toSocket, bound
	hdr     [wire.FrameHeaderLen]byte

	// The frame in flight.
	ffd             int   // the subfile's descriptor
	off             int64 // where sendfile reads next
	head, sent, pad int   // header, subfile and zero bytes sent so far
	eof             bool  // the subfile ended inside the frame
	err             error
}

// newFrameSender returns a sender for conn when DATA frames may leave
// it by sendfile: conn must be the kernel's socket itself, a bare
// *net.TCPConn. A wrapper, such as internal/fault's, hides it, so the
// wrapper's Write sees every byte, and nil keeps the session on the
// copy path.
func newFrameSender(conn net.Conn) *frameSender {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &frameSender{conn: raw}
	s.control, s.write = s.fromFile, s.toSocket
	return s
}

// padZeros completes a frame whose subfile ends inside it.
var padZeros [64 << 10]byte

// send writes one DATA frame of tag holding StreamChunk bytes of file
// from off, and returns how many of them file held; zeros complete the
// frame if file ends first (hole semantics). file is used through
// Control, which holds its descriptor open for the whole frame, so a
// concurrent drop cannot close it mid-send, yet takes no lock, so frames
// of one subfile to different conns never queue behind each other's
// socket (os.File.ReadAt takes none for the same reason).
func (s *frameSender) send(file syscall.RawConn, tag uint32, off int64) (int, error) {
	wire.PutFrameHeader(s.hdr[:], wire.FrameHeader{Kind: wire.FrameData, Tag: tag, Len: wire.StreamChunk})
	s.off, s.head, s.sent, s.pad, s.eof, s.err = off, 0, 0, 0, false, nil
	if err := file.Control(s.control); err != nil {
		return 0, err
	}
	return s.sent, s.err
}

// fromFile runs with the subfile's descriptor held open and sends the
// whole frame through the conn's Write callback, so EAGAIN waits for
// the socket to drain.
func (s *frameSender) fromFile(ffd uintptr) {
	s.ffd = int(ffd)
	if err := s.conn.Write(s.write); s.err == nil {
		s.err = err
	}
}

// toSocket sends what is left of the frame: the header with MSG_MORE,
// so it leaves in one segment with the bytes behind it, then the
// subfile's bytes at an explicit offset, as pread reads, then any zeros.
// It returns false to wait until the socket drains.
func (s *frameSender) toSocket(sfd uintptr) bool {
	fd := int(sfd)
	for s.err == nil && s.head+s.sent+s.pad < len(s.hdr)+wire.StreamChunk {
		var m int
		switch {
		case s.head < len(s.hdr):
			m, s.err = syscall.SendmsgN(fd, s.hdr[s.head:], nil, nil, syscall.MSG_MORE)
			s.head += max(m, 0)
		case !s.eof:
			m, s.err = syscall.Sendfile(fd, s.ffd, &s.off, wire.StreamChunk-s.sent)
			s.sent += max(m, 0)
			s.eof = m == 0 && s.err == nil
		default:
			m, s.err = syscall.Write(fd, padZeros[:min(wire.StreamChunk-s.sent-s.pad, len(padZeros))])
			s.pad += max(m, 0)
		}
		switch s.err {
		case syscall.EAGAIN:
			s.err = nil
			return false
		case syscall.EINTR:
			s.err = nil
		}
	}
	return true
}
