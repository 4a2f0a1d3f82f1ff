//go:build !linux

package transport

import "errors"

// kernelState and recvState are empty off Linux: there is no kernel send or
// splice path to hold state for.
type (
	kernelState struct{}
	recvState   struct{}
)

// kernelSendLocked always reports no kernel path off Linux, so
// WriteClusterBody streams file-backed bodies through the pooled-buffer copy
// — byte-identical wire output, one copy more. No pipe body is ever made.
func (c *Conn) kernelSendLocked(*Frame) (bool, error) { return false, nil }

// spliceable is false off Linux: no stream has a splice path.
func (c *Conn) spliceable() bool { return false }

// spliceRecvLocked is never reached off Linux.
func (c *Conn) spliceRecvLocked(p *splicePipe, size int64) (int64, bool, error) {
	return 0, false, nil
}

func newPipe(int) (int, int, error) { return 0, 0, errors.New("transport: no pipes off linux") }

func closePipe(int, int) {}

func (p *splicePipe) drain([]byte) error { return errPipeShort }
