//go:build linux

package transport

import (
	"io"
	"syscall"
)

// Linux splice receive path: ReadClusterReply moves a cluster body from the
// peer's socket into a pooled pipe with splice(2), inside
// syscall.RawConn.Read, which parks on the runtime poller while the socket
// is empty. A full pipe returns EAGAIN too; the two are told apart by peeking
// at the socket (recv with MSG_PEEK): a byte waiting means the pipe is full,
// and the body finishes through the pooled copy.

// recvState is the per-connection Linux splice-receive state, all guarded by
// the connection's read lock: the bound RawConn and poller callback, and one
// transfer's progress.
type recvState struct {
	rc    syscall.RawConn
	rcOK  bool
	noRaw bool
	step  func(fd uintptr) bool
	pipeW int
	size  int64
	got   int64
	unsup bool
	opErr error
	peek  [1]byte
}

// spliceN splices up to n bytes from in to out, non-blocking on the pipe
// side. syscall.Splice returns int on 32-bit Linux and int64 elsewhere.
func spliceN(in, out, n int) (int64, error) {
	m, err := syscall.Splice(in, nil, out, nil, n, spliceMove|spliceNonblock)
	return int64(m), err
}

// sendTo splices up to n of the bytes p holds into the socket fd, taking
// what moved off p.held, so a pipe a failed send left bytes in is closed,
// not reused.
func (p *splicePipe) sendTo(fd, n int) (int64, error) {
	m, err := spliceN(p.r, fd, n)
	if m > 0 {
		p.held -= m
	}
	return m, err
}

// newPipe opens a non-blocking pipe and grows it to capacity bytes.
func newPipe(capacity int) (r, w int, err error) {
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK); err != nil {
		return 0, 0, err
	}
	if _, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fds[0]), syscall.F_SETPIPE_SZ, uintptr(capacity)); e != 0 {
		closePipe(fds[0], fds[1])
		return 0, 0, e
	}
	return fds[0], fds[1], nil
}

func closePipe(r, w int) {
	_ = syscall.Close(r)
	_ = syscall.Close(w)
}

// drain reads len(buf) bytes out of the pipe. The bytes are already there,
// so a non-blocking read that finds the pipe empty first means the pipe held
// less than promised.
func (p *splicePipe) drain(buf []byte) error {
	for len(buf) > 0 {
		n, err := syscall.Read(p.r, buf)
		if n > 0 {
			p.held -= int64(n)
			buf = buf[n:]
			continue
		}
		if err == syscall.EINTR {
			continue
		}
		if err == nil || err == syscall.EAGAIN {
			return errPipeShort
		}
		return err
	}
	return nil
}

// spliceable reports whether the connection's stream is a raw socket that
// splice can read from, binding its RawConn on first use. Callers hold rmu.
func (c *Conn) spliceable() bool {
	rs := &c.rs
	if rs.rcOK || rs.noRaw {
		return rs.rcOK
	}
	rs.noRaw = true
	sc, ok := c.rw.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	rs.rc, rs.rcOK, rs.noRaw = rc, true, false
	rs.step = c.spliceRecvStep
	return true
}

// spliceRecvLocked moves size bytes from the connection's socket, which
// must be spliceable, into p. ok = false (nil error, p untouched) means the
// kernel refused before any byte moved, and the caller reads the whole body
// by copy. Otherwise got < size with a nil error means the pipe filled
// first: the first got bytes are in p, the rest still in the socket. A
// non-nil error means the stream broke. Callers hold rmu.
func (c *Conn) spliceRecvLocked(p *splicePipe, size int64) (got int64, ok bool, err error) {
	rs := &c.rs
	rs.pipeW, rs.size, rs.got = p.w, size, 0
	rs.unsup, rs.opErr = false, nil
	if rerr := rs.rc.Read(rs.step); rerr != nil && rs.opErr == nil {
		rs.opErr = rerr
	}
	p.held += rs.got
	if rs.unsup {
		return 0, false, nil
	}
	return rs.got, true, rs.opErr
}

// spliceRecvStep is the poller callback of spliceRecvLocked. Returning false
// parks until the socket is readable. The gate passes each chunk.
func (c *Conn) spliceRecvStep(fd uintptr) bool {
	rs := &c.rs
	// retried is set when a peek found bytes the splice before it did not:
	// they may have arrived in between, so one more splice decides.
	retried := false
	for rs.got < rs.size {
		if rs.opErr = c.pass(); rs.opErr != nil {
			return true
		}
		n, err := spliceN(int(fd), rs.pipeW, int(min(rs.size-rs.got, maxKernelChunk)))
		if n > 0 {
			rs.got += n
			retried = false
			continue
		}
		switch err {
		case nil:
			rs.opErr = io.ErrUnexpectedEOF // the peer closed mid-body
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			// An empty socket or a full pipe. Parking on a socket that
			// already holds bytes, or is at EOF, would wait for an edge that
			// never comes, so peek: a byte waiting means the pipe is full.
			m, _, perr := syscall.Recvfrom(int(fd), rs.peek[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			switch {
			case m > 0 && !retried:
				retried = true
			case m > 0:
				return true // the caller finishes the body by copy
			case perr == nil:
				rs.opErr = io.ErrUnexpectedEOF
				return true
			case perr == syscall.EAGAIN:
				return false
			case perr != syscall.EINTR:
				rs.opErr = perr
				return true
			}
		case syscall.EINVAL, syscall.ENOSYS, syscall.EOPNOTSUPP:
			if rs.got == 0 {
				rs.unsup = true
			} else {
				rs.opErr = err
			}
			return true
		default:
			rs.opErr = err
			return true
		}
	}
	return true
}
