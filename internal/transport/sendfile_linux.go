//go:build linux

package transport

import (
	"io"
	"os"
	"syscall"
)

// Linux kernel send path: a cluster body that is file-backed
// (Frame.FileBody) is handed to sendfile(2) and one that is pipe-backed to
// splice(2), so the bytes travel page cache or pipe → socket without ever
// entering Go userspace. The loop runs inside syscall.RawConn.Write, which
// parks on the runtime poller on EAGAIN and resumes when the socket drains,
// so a slow receiver costs a blocked goroutine, not a spin. File sources are
// always addressed with explicit offsets (the pread convention), never the
// descriptor's file position: the descriptor is shared with every concurrent
// reader of the same block.

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

	// One transfer's state, reset by kernelSendLocked per body.
	src         int   // source file or pipe read-end descriptor
	fromPipe    bool  // splice from a pipe rather than sendfile from a file
	off, size   int64 // body range within the source file
	sent        int64 // bytes delivered to the socket
	opErr       error
	unsupported bool
}

// maxKernelChunk bounds one sendfile request so a huge cluster cannot pin
// the write lock through a single monster syscall.
const maxKernelChunk = 4 << 20

// splice(2) flags (the syscall package does not name them). spliceNonblock
// makes the pipe side non-blocking; the socket side already is.
const (
	spliceMove     = 0x1
	spliceNonblock = 0x2
)

// sendBodyLocked transfers size bytes at offset off of f into the
// connection's stream with sendfile(2). It reports kernel = false (with a
// nil error) when the stream has no usable kernel path — not a real socket,
// or sendfile refused the transfer before moving any bytes — in which case
// the caller falls back to the userspace copy. A non-nil error means bytes
// may have moved and the stream is no longer framable. Callers hold wmu.
func (c *Conn) sendBodyLocked(f *os.File, off, size int64) (bool, error) {
	return c.kernelSendLocked(int(f.Fd()), false, off, size)
}

// spliceBodyLocked moves the size bytes p holds into the connection's stream
// with splice(2), with sendBodyLocked's results. Whatever moved is taken off
// p.held, so a pipe a failed send left bytes in is closed, not reused.
// Callers hold wmu.
func (c *Conn) spliceBodyLocked(p *splicePipe, size int64) (bool, error) {
	kernel, err := c.kernelSendLocked(p.r, true, 0, size)
	p.held -= c.ks.sent
	return kernel, err
}

func (c *Conn) kernelSendLocked(src int, fromPipe bool, off, size int64) (bool, error) {
	ks := &c.ks
	ks.sent = 0
	if size == 0 {
		return true, nil
	}
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
	ks.src, ks.fromPipe = src, fromPipe
	ks.off, ks.size = off, size
	ks.opErr, ks.unsupported = nil, false
	if err := ks.rc.Write(ks.sfStep); err != nil && ks.opErr == nil {
		ks.opErr = err
	}
	if ks.opErr != nil {
		return true, ks.opErr
	}
	return !ks.unsupported, nil
}

// sendfileStep is the poller callback running the sendfile(2) or splice(2)
// loop over the transfer state in c.ks. Returning false parks until the
// socket is writable; ks.unsupported reports a refusal before any byte moved
// (EINVAL/ENOSYS class), so the userspace copy may still take the body. A
// pipe source always holds the whole rest of the body, so EAGAIN means the
// socket is full, never that the pipe is empty.
func (c *Conn) sendfileStep(fd uintptr) bool {
	ks := &c.ks
	for ks.sent < ks.size {
		chunk := int(min(ks.size-ks.sent, maxKernelChunk))
		var n int
		var err error
		if ks.fromPipe {
			var m int64
			m, err = spliceN(ks.src, int(fd), chunk)
			n = int(m)
		} else {
			pos := ks.off + ks.sent
			n, err = syscall.Sendfile(int(fd), ks.src, &pos, chunk)
		}
		if n > 0 {
			ks.sent += int64(n)
		}
		switch err {
		case nil:
			if n == 0 {
				// The source ended before the promised body length: the
				// frame header already announced size bytes, so the stream
				// is broken, not recoverable.
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
