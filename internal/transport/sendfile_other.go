//go:build !linux

package transport

import "os"

// kernelState is empty off Linux: there is no kernel send path to hold
// state for.
type kernelState struct{}

// sendBodyLocked always reports no kernel path off Linux, so
// WriteClusterBody streams file-backed bodies through the pooled-buffer
// copy — byte-identical wire output, one copy more.
func (c *Conn) sendBodyLocked(f *os.File, off, size int64) (bool, error) {
	return false, nil
}
