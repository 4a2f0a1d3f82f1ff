//go:build linux

package transport

import (
	"io"
	"os"
	"syscall"
)

// Linux kernel send path: cluster bodies whose frames are file-backed
// (Frame.FileBody) are handed to sendfile(2) — or, when sendfile is not
// applicable to the stream, splice(2) through a per-connection pipe — so the
// bytes travel page cache → socket without ever entering Go userspace. Both
// loops run inside syscall.RawConn.Write, which parks on the runtime poller
// on EAGAIN and resumes when the socket drains, so a slow receiver costs a
// blocked goroutine, not a spin. Sources are always addressed with explicit
// offsets (the pread convention), never the descriptor's file position: the
// descriptor is shared with every concurrent reader of the same block.

// kernelState is the per-connection Linux kernel-send state, all guarded by
// the connection's write lock. The RawConn and the two step callbacks are
// bound once, and the in-flight transfer state lives here rather than in
// per-call closures: a transfer may suspend on EAGAIN and resume inside the
// poller, and the steady-state send must not allocate.
type kernelState struct {
	// Splice staging pipe, lazily created.
	pr, pw  int
	hasPipe bool

	// RawConn of the underlying socket plus the pre-bound poller callbacks.
	rc     syscall.RawConn
	rcOK   bool
	sfStep func(fd uintptr) bool
	spStep func(fd uintptr) bool

	// One transfer's state, reset by sendBodyLocked per body.
	src         int   // source file descriptor
	off, size   int64 // body range within the source file
	sent        int64 // bytes delivered to the socket
	filled      int64 // bytes staged into the splice pipe
	inPipe      int64 // staged bytes not yet drained to the socket
	opErr       error
	unsupported bool
}

// close releases the splice pipe, if one was created.
func (k *kernelState) close() {
	if k.hasPipe {
		_ = syscall.Close(k.pr)
		_ = syscall.Close(k.pw)
		k.hasPipe = false
	}
}

// maxKernelChunk bounds one sendfile/splice request so a huge cluster cannot
// pin the write lock through a single monster syscall.
const maxKernelChunk = 4 << 20

// Splice flag bits (linux/include/uapi/linux/fcntl.h; package syscall wraps
// the call but not the flags): move pages when possible, never block on the
// pipe.
const (
	spliceFMove     = 0x1
	spliceFNonblock = 0x2
	spliceFlags     = spliceFMove | spliceFNonblock
)

// sendBodyLocked transfers size bytes at offset off of f into the
// connection's stream inside the kernel. It reports kernel = false (with a
// nil error) when the stream has no usable kernel path — not a real socket,
// or the kernel refused both sendfile and splice before moving any bytes —
// in which case the caller falls back to the userspace copy. A non-nil
// error means bytes may have moved and the stream is no longer framable.
// Callers hold wmu.
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
		ks.spStep = c.spliceStep
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
	if !ks.unsupported {
		return true, nil
	}
	return c.spliceBodyLocked(f, off, size)
}

// sendfileStep is the poller callback running the sendfile(2) loop over the
// transfer state in c.ks. Returning false parks until the socket is
// writable; ks.unsupported reports a refusal before any byte moved
// (EINVAL/ENOSYS class), so another path may still take the body.
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

// spliceBodyLocked transfers the body with splice(2): file → staging pipe →
// socket. Split out of sendBodyLocked so tests can drive the splice leg
// directly. Same contract as sendBodyLocked; callers hold wmu.
func (c *Conn) spliceBodyLocked(f *os.File, off, size int64) (bool, error) {
	ks := &c.ks
	if !ks.rcOK {
		return false, nil
	}
	if !ks.hasPipe {
		var p [2]int
		if err := syscall.Pipe2(p[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
			return false, nil
		}
		ks.pr, ks.pw, ks.hasPipe = p[0], p[1], true
	}
	ks.src = int(f.Fd())
	ks.off, ks.size = off, size
	ks.sent, ks.filled, ks.inPipe = 0, 0, 0
	ks.opErr, ks.unsupported = nil, false
	if err := ks.rc.Write(ks.spStep); err != nil && ks.opErr == nil {
		ks.opErr = err
	}
	if ks.opErr != nil {
		return true, ks.opErr
	}
	return !ks.unsupported, nil
}

// spliceStep is the poller callback running the splice(2) loop over the
// transfer state in c.ks. A fill only happens when the pipe is empty and a
// drain empties it completely before the next fill, so the pipe's capacity
// bounds each leg.
func (c *Conn) spliceStep(fd uintptr) bool {
	ks := &c.ks
	for ks.sent < ks.size {
		if ks.inPipe == 0 {
			pos := ks.off + ks.filled
			n, err := syscall.Splice(ks.src, &pos, ks.pw, nil, int(min(ks.size-ks.filled, maxKernelChunk)), spliceFlags)
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EINVAL || err == syscall.ENOSYS || err == syscall.EOPNOTSUPP:
				if ks.filled == 0 && ks.sent == 0 {
					ks.unsupported = true
					return true
				}
				ks.opErr = err
				return true
			case err != nil:
				ks.opErr = err
				return true
			case n == 0:
				ks.opErr = io.ErrUnexpectedEOF
				return true
			}
			// Splice returns int64 on 64-bit Linux and int on 386.
			ks.filled += int64(n)
			ks.inPipe = int64(n)
		}
		for ks.inPipe > 0 {
			n, err := syscall.Splice(ks.pr, nil, int(fd), nil, int(ks.inPipe), spliceFlags)
			if n > 0 {
				ks.inPipe -= int64(n)
				ks.sent += int64(n)
			}
			switch err {
			case nil:
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false // socket full: park, resume draining
			default:
				ks.opErr = err
				return true
			}
		}
	}
	return true
}
