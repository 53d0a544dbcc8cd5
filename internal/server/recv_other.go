//go:build !linux

package server

import (
	"errors"
	"net"
)

// frameReceiver is Linux's readv DATA frame receiver; elsewhere there is
// none, and every body lands through the demux reader's buffered reader.
type frameReceiver struct{}

func newFrameReceiver(net.Conn) *frameReceiver { return nil }

// receive is never called off Linux, where newFrameReceiver returns nil.
func (*frameReceiver) receive(*landList, int) (int, error) {
	return 0, errors.ErrUnsupported
}
