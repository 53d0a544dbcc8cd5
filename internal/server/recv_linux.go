//go:build linux

package server

import (
	"io"
	"net"
	"syscall"
	"unsafe"
)

// iovMax caps the pieces one readv(2) fills (the kernel's IOV_MAX).
const iovMax = 1024

// frameReceiver reads the rest of a DATA frame straight from a conn's
// socket into a call's landing list with readv(2), so the bytes reach
// the caller's memory without passing through the demux reader's
// buffer. Its callback is bound once per conn and a frame's state
// lives in its fields, so a frame allocates nothing; only the conn's
// demux reader uses it.
type frameReceiver struct {
	conn syscall.RawConn
	read func(uintptr) bool // fromSocket, bound
	iov  []syscall.Iovec

	// The frame in flight.
	l    *landList
	left int // bytes still to read
	got  int // bytes read so far
	err  error
}

// newFrameReceiver returns a receiver for conn when DATA bodies may be
// read from it by readv: conn must be the kernel's socket itself, a bare
// *net.TCPConn. A wrapper, such as internal/fault's, hides it, so the
// wrapper's Read sees every byte, and nil keeps the conn on the buffered
// reader.
func newFrameReceiver(conn net.Conn) *frameReceiver {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &frameReceiver{conn: raw}
	r.read = r.fromSocket
	return r
}

// receive lands the next n bytes of the socket in l and returns how many
// it landed. It reads through the conn's Read callback, so EAGAIN waits
// for the socket and the conn's read deadline and Close cut the wait
// short as they do a plain Read.
func (r *frameReceiver) receive(l *landList, n int) (int, error) {
	r.l, r.left, r.got, r.err = l, n, 0, nil
	err := r.conn.Read(r.read)
	clear(r.iov[:cap(r.iov)]) // keep no reference to the caller's memory
	r.l = nil
	if r.err == nil {
		r.err = err
	}
	return r.got, r.err
}

// fromSocket reads until the frame is in, and returns false to wait
// when the socket has nothing more yet.
func (r *frameReceiver) fromSocket(fd uintptr) bool {
	for r.left > 0 {
		r.iovecs()
		m, _, errno := syscall.Syscall(syscall.SYS_READV, fd, uintptr(unsafe.Pointer(&r.iov[0])), uintptr(len(r.iov)))
		switch {
		case errno == syscall.EAGAIN:
			return false
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			r.err = errno
			return true
		case m == 0:
			r.err = io.ErrUnexpectedEOF
			return true
		}
		r.l.advance(int(m))
		r.left -= int(m)
		r.got += int(m)
	}
	return true
}

// iovecs describes the next r.left bytes of the landing list, up to
// iovMax pieces of it.
func (r *frameReceiver) iovecs() {
	r.iov = r.iov[:0]
	i, off, n := r.l.i, r.l.off, r.left
	for n > 0 && len(r.iov) < iovMax {
		p := r.l.pieces[i][off:]
		i, off = i+1, 0
		if len(p) == 0 {
			continue
		}
		p = p[:min(len(p), n)]
		v := syscall.Iovec{Base: &p[0]}
		v.SetLen(len(p))
		r.iov = append(r.iov, v)
		n -= len(p)
	}
}
