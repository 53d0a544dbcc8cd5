//go:build !linux

package server

import (
	"errors"
	"net"
	"syscall"
)

// frameSender is Linux's zero-copy DATA frame sender; elsewhere there is
// none, and every frame takes the copy path through the read buffer.
type frameSender struct{}

func newFrameSender(net.Conn) *frameSender { return nil }

// send is never called off Linux, where newFrameSender returns nil.
func (*frameSender) send(syscall.RawConn, uint32, int64) (int, error) {
	return 0, errors.ErrUnsupported
}
