//go:build linux

package transport

import (
	"io"
	"os"
	"syscall"
)

// Linux kernel send path: cluster bodies whose frames are file-backed
// (Frame.FileBody) are handed to sendfile(2), so the bytes travel page cache
// → socket without ever entering Go userspace. The loop runs inside
// syscall.RawConn.Write, which parks on the runtime poller on EAGAIN and
// resumes when the socket drains, so a slow receiver costs a blocked
// goroutine, not a spin. Sources are always addressed with explicit
// offsets (the pread convention), never the descriptor's file position: the
// descriptor is shared with every concurrent reader of the same block.

// kernelState is the per-connection Linux kernel-send state, all guarded by
// the connection's write lock. The RawConn and the step callback are bound
// once, and the in-flight transfer state lives here rather than in per-call
// closures: a transfer may suspend on EAGAIN and resume inside the poller,
// and the steady-state send must not allocate.
type kernelState struct {
	// RawConn of the underlying socket plus the pre-bound poller callback.
	rc     syscall.RawConn
	rcOK   bool
	sfStep func(fd uintptr) bool

	// One transfer's state, reset by sendBodyLocked per body.
	src         int   // source file descriptor
	off, size   int64 // body range within the source file
	sent        int64 // bytes delivered to the socket
	opErr       error
	unsupported bool
}

// maxKernelChunk bounds one sendfile request so a huge cluster cannot pin
// the write lock through a single monster syscall.
const maxKernelChunk = 4 << 20

// sendBodyLocked transfers size bytes at offset off of f into the
// connection's stream with sendfile(2). It reports kernel = false (with a
// nil error) when the stream has no usable kernel path — not a real socket,
// or sendfile refused the transfer before moving any bytes — in which case
// the caller falls back to the userspace copy. A non-nil error means bytes
// may have moved and the stream is no longer framable. Callers hold wmu.
func (c *Conn) sendBodyLocked(f *os.File, off, size int64) (bool, error) {
	if size == 0 {
		return true, nil
	}
	ks := &c.ks
	if !ks.rcOK {
		sc, ok := c.rw.(syscall.Conn)
		if !ok {
			return false, nil
		}
		rc, err := sc.SyscallConn()
		if err != nil {
			return false, nil
		}
		ks.rc, ks.rcOK = rc, true
		ks.sfStep = c.sendfileStep
	}
	ks.src = int(f.Fd())
	ks.off, ks.size = off, size
	ks.sent, ks.opErr, ks.unsupported = 0, nil, false
	if err := ks.rc.Write(ks.sfStep); err != nil && ks.opErr == nil {
		ks.opErr = err
	}
	if ks.opErr != nil {
		return true, ks.opErr
	}
	return !ks.unsupported, nil
}

// sendfileStep is the poller callback running the sendfile(2) loop over the
// transfer state in c.ks. Returning false parks until the socket is
// writable; ks.unsupported reports a refusal before any byte moved
// (EINVAL/ENOSYS class), so the userspace copy may still take the body.
func (c *Conn) sendfileStep(fd uintptr) bool {
	ks := &c.ks
	for ks.sent < ks.size {
		pos := ks.off + ks.sent
		n, err := syscall.Sendfile(int(fd), ks.src, &pos, int(min(ks.size-ks.sent, maxKernelChunk)))
		if n > 0 {
			ks.sent += int64(n)
		}
		switch err {
		case nil:
			if n == 0 {
				// The file ended before the promised body length: the frame
				// header already announced size bytes, so the stream is
				// broken, not recoverable.
				ks.opErr = io.ErrUnexpectedEOF
				return true
			}
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false // socket full: park until writable, then resume
		case syscall.EINVAL, syscall.ENOSYS, syscall.EOPNOTSUPP:
			if ks.sent == 0 {
				ks.unsupported = true
				return true
			}
			ks.opErr = err
			return true
		default:
			ks.opErr = err
			return true
		}
	}
	return true
}
