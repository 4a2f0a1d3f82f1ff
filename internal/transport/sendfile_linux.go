//go:build linux

package transport

import (
	"io"
	"syscall"
)

// Linux kernel send path: a cluster body that is file-backed is handed to
// sendfile(2) and one that is pipe-backed to splice(2), so the bytes travel
// page cache or pipe → socket without ever entering Go userspace. The loop
// runs inside syscall.RawConn.Write, which parks on the runtime poller on
// EAGAIN and resumes when the socket drains, so a slow receiver costs a
// blocked goroutine, not a spin. File sources are always addressed with
// explicit offsets (the pread convention), never the descriptor's file
// position: the descriptor is shared with every concurrent reader of the
// same block.

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
	body        *Frame // the file or pipe body in flight
	sent        int64  // bytes delivered to the socket
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

// kernelSendLocked moves a file or pipe body into the connection's stream
// inside the kernel: sendfile(2) from a file, splice(2) from a pipe. It
// reports kernel = false (with a nil error) when the stream has no usable
// kernel path — not a real socket, or the kernel refused the transfer before
// moving any bytes — in which case the caller falls back to the userspace
// copy. A non-nil error means bytes may have moved and the stream is no
// longer framable; a pipe then still holds the rest, so its release closes
// it. Callers hold wmu.
func (c *Conn) kernelSendLocked(body *Frame) (bool, error) {
	ks := &c.ks
	ks.sent = 0
	if body.size == 0 {
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
	ks.body, ks.opErr, ks.unsupported = body, nil, false
	if err := ks.rc.Write(ks.sfStep); err != nil && ks.opErr == nil {
		ks.opErr = err
	}
	ks.body = nil
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
// socket is full, never that the pipe is empty. The gate passes each chunk.
func (c *Conn) sendfileStep(fd uintptr) bool {
	ks := &c.ks
	b := ks.body
	for ks.sent < b.size {
		if ks.opErr = c.pass(); ks.opErr != nil {
			return true
		}
		chunk := int(min(b.size-ks.sent, maxKernelChunk))
		var n int64
		var err error
		if b.kind == kindPipe {
			n, err = b.pipe.sendTo(int(fd), chunk)
		} else {
			pos := b.off + ks.sent
			var m int
			m, err = syscall.Sendfile(int(fd), int(b.file.Fd()), &pos, chunk)
			n = int64(m)
		}
		if n > 0 {
			ks.sent += n
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
