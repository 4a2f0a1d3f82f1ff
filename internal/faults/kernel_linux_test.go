//go:build linux

package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/transport"
)

// kernelRig is one connection an armed injector dialed to peer "B" on a
// virtual clock, the accepted far end, and the pools and descriptor count
// a fault on the kernel paths must leave as it found them.
type kernelRig struct {
	vc    *clock.Virtual
	inj   *Injector
	ln    net.Listener
	gated *transport.Conn
	far   net.Conn
	pool  *transport.BufferPool
	pipes *transport.PipePool
	fds   int
}

func newKernelRig(t *testing.T, plan Plan, bodyBytes int64) *kernelRig {
	t.Helper()
	r := &kernelRig{vc: clock.NewVirtual(time.Unix(0, 0)), fds: openFDs(t)}
	r.inj = mustInjector(t, plan, 1, r.vc)
	if err := r.inj.Start(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.ln = ln
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	if r.gated, err = r.inj.Dial("B", nil, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if r.far = <-accepted; r.far == nil {
		t.Fatal("accept failed")
	}
	r.pool = transport.NewBufferPool(nil)
	r.pipes = transport.NewPipePool(nil, 2, bodyBytes)
	return r
}

// close shuts the rig down and checks that nothing outlived it: no pipe, no
// buffer lease, no cut-set entry, no descriptor.
func (r *kernelRig) close(t *testing.T) {
	t.Helper()
	r.inj.Stop()
	_ = r.gated.Close()
	_ = r.far.Close()
	_ = r.ln.Close()
	r.pipes.Close()
	if n := r.pipes.Open(); n != 0 {
		t.Errorf("%d pipes open after Close", n)
	}
	if n := r.pool.Outstanding(); n != 0 {
		t.Errorf("%d buffer leases outstanding", n)
	}
	r.inj.mu.Lock()
	n := len(r.inj.conns)
	r.inj.mu.Unlock()
	if n != 0 {
		t.Errorf("%d connections left in the cut set after Close", n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		fds := openFDs(t)
		if fds <= r.fds {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d descriptors open after Close, baseline %d", fds, r.fds)
			return
		}
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(entries)
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// testBody is a deterministic, non-repeating body of size bytes.
func testBody(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + i>>11)
	}
	return b
}

// clusterReply is a whole cluster.ok frame carrying body.
func clusterReply(t *testing.T, body []byte) []byte {
	t.Helper()
	var out bufStream
	c := transport.NewConn(&out)
	c.EnableBinaryFrames()
	p := transport.ClusterPayload{Title: "t", Length: int64(len(body)), Source: "B"}
	if err := c.WriteClusterFrame(p, body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

type bufStream struct{ bytes.Buffer }

func (*bufStream) Close() error { return nil }

type replyResult struct {
	frame *transport.Frame
	err   error
}

// startSplicedReply sends a cluster reply's header and the first half of
// its body from the far end, reads it on the gated connection, and returns
// once the reader holds a pipe, i.e. is splicing the body; the rest of the
// wire bytes are returned for the caller to send.
func startSplicedReply(t *testing.T, r *kernelRig, body []byte) (rest []byte, res chan replyResult) {
	t.Helper()
	wire := clusterReply(t, body)
	cut := len(wire) - len(body)/2
	res = make(chan replyResult, 1)
	go func() {
		_, f, err := r.gated.ReadClusterReply(r.pool, r.pipes)
		res <- replyResult{f, err}
	}()
	if _, err := r.far.Write(wire[:cut]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the reply body to reach a pipe", func() bool { return r.pipes.Open() == 1 })
	return wire[cut:], res
}

// cutOrStreamError accepts what a cut may end in: the injector's typed
// error, or the broken stream it leaves.
func cutOrStreamError(t *testing.T, what string, err error) {
	t.Helper()
	var fe *FaultError
	if err == nil {
		t.Fatalf("%s survived a peer.down cut", what)
	}
	if !errors.As(err, &fe) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) &&
		!errors.Is(err, transport.ErrBadFrame) {
		t.Fatalf("%s ended in %v, want a fault or a stream error", what, err)
	}
}

const spliceBodyBytes = 256 << 10

// TestFaultCutSplicedReply: a peer.down that activates while a cluster
// reply's body is being spliced into a pipe ends the read in an error, and
// the pipe, the buffer lease and the connection are all given back.
func TestFaultCutSplicedReply(t *testing.T) {
	var plan Plan
	plan.FailPeer(10*time.Millisecond, 10*time.Millisecond, "B")
	r := newKernelRig(t, plan, spliceBodyBytes)
	_, res := startSplicedReply(t, r, testBody(spliceBodyBytes))
	r.vc.Advance(15 * time.Millisecond)
	select {
	case rr := <-res:
		if rr.frame != nil {
			rr.frame.Release()
		}
		cutOrStreamError(t, "a spliced reply", rr.err)
	case <-time.After(5 * time.Second):
		t.Fatal("a spliced reply still blocked after its peer was cut")
	}
	if r.inj.InjectedTotal() == 0 {
		t.Fatal("the cut was not counted as injected")
	}
	r.close(t)
}

// TestFaultStallSplicedReply: a peer.stall that activates mid-splice
// freezes the body until the window closes, then the reply completes with
// every byte intact.
func TestFaultStallSplicedReply(t *testing.T) {
	var plan Plan
	plan.StallPeer(10*time.Millisecond, 10*time.Millisecond, "B")
	r := newKernelRig(t, plan, spliceBodyBytes)
	body := testBody(spliceBodyBytes)
	rest, res := startSplicedReply(t, r, body)
	r.vc.Advance(15 * time.Millisecond)
	if _, err := r.far.Write(rest); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the splice to stall", func() bool { return r.vc.PendingTimers() == 1 })
	select {
	case rr := <-res:
		t.Fatalf("the reply finished inside the stall window: %v", rr.err)
	case <-time.After(20 * time.Millisecond):
	}
	r.vc.Advance(10 * time.Millisecond)
	rr := <-res
	if rr.err != nil {
		t.Fatalf("stalled reply: %v", rr.err)
	}
	got, free, err := rr.frame.BodyBytes(r.pool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("the stalled reply's body differs from what was sent")
	}
	free()
	rr.frame.Release()
	if r.inj.InjectedTotal() == 0 {
		t.Fatal("the stall was not counted as injected")
	}
	r.close(t)
}

// sendfileBodyBytes is well above what loopback socket buffers hold, so a
// sendfile to a far end that stopped reading parks mid-body.
const sendfileBodyBytes = 8 << 20

// startSendfile sends a file-backed cluster from the gated connection and
// returns once the far end has read the frame header and the first MiB of
// the body, i.e. with the send parked mid-body on a full socket.
func startSendfile(t *testing.T, r *kernelRig, body []byte) (sent chan error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "body-*.blk")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(body); err != nil {
		t.Fatal(err)
	}
	frame := transport.NewFileFrame(f, 0, int64(len(body)), func() { _ = f.Close() })
	if err := r.far.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	r.gated.EnableBinaryFrames()
	sent = make(chan error, 1)
	go func() {
		p := transport.ClusterPayload{Title: "t", Length: int64(len(body)), Source: "B"}
		kernel, err := r.gated.WriteClusterBody(r.pool, transport.TypeClusterOK, p, frame)
		if err == nil && !kernel {
			err = errors.New("the body went by copy")
		}
		frame.Release()
		sent <- err
	}()
	head := len(clusterReply(t, nil)) + 1<<20
	if _, err := io.ReadFull(r.far, make([]byte, head)); err != nil {
		t.Fatal(err)
	}
	return sent
}

// TestFaultCutSendfile: a peer.down that activates while a sendfile send is
// parked mid-body ends the send in an error and releases the file.
func TestFaultCutSendfile(t *testing.T) {
	var plan Plan
	plan.FailPeer(10*time.Millisecond, 10*time.Millisecond, "B")
	r := newKernelRig(t, plan, spliceBodyBytes)
	sent := startSendfile(t, r, testBody(sendfileBodyBytes))
	r.vc.Advance(15 * time.Millisecond)
	select {
	case err := <-sent:
		cutOrStreamError(t, "a sendfile send", err)
	case <-time.After(5 * time.Second):
		t.Fatal("a sendfile send still blocked after its peer was cut")
	}
	r.close(t)
}

// TestFaultStallSendfile: a peer.stall that activates while a sendfile send
// is parked mid-body holds the send until the window closes, then it
// completes and the far end reads every byte.
func TestFaultStallSendfile(t *testing.T) {
	var plan Plan
	plan.StallPeer(10*time.Millisecond, 10*time.Millisecond, "B")
	r := newKernelRig(t, plan, spliceBodyBytes)
	body := testBody(sendfileBodyBytes)
	sent := startSendfile(t, r, body)
	r.vc.Advance(15 * time.Millisecond)
	rest := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(io.LimitReader(r.far, int64(len(body)-1<<20)))
		rest <- b
	}()
	waitFor(t, "the send to stall", func() bool { return r.vc.PendingTimers() == 1 })
	select {
	case err := <-sent:
		t.Fatalf("the send finished inside the stall window: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.vc.Advance(10 * time.Millisecond)
	if err := <-sent; err != nil {
		t.Fatalf("stalled send: %v", err)
	}
	if !bytes.Equal(<-rest, body[1<<20:]) {
		t.Fatal("the far end read a body that differs from the file")
	}
	if r.inj.InjectedTotal() == 0 {
		t.Fatal("the stall was not counted as injected")
	}
	r.close(t)
}

// TestFaultStallEndsOnClose: closing a connection whose sendfile send is
// stalled inside its kernel step ends the stall, so the Close, which waits
// for that step, returns long before the window would close.
func TestFaultStallEndsOnClose(t *testing.T) {
	var plan Plan
	plan.StallPeer(10*time.Millisecond, time.Hour, "B")
	r := newKernelRig(t, plan, spliceBodyBytes)
	sent := startSendfile(t, r, testBody(sendfileBodyBytes))
	r.vc.Advance(15 * time.Millisecond)
	go func() { _, _ = io.Copy(io.Discard, r.far) }()
	waitFor(t, "the send to stall", func() bool { return r.vc.PendingTimers() == 1 })
	closed := make(chan error, 1)
	go func() { closed <- r.gated.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close of a stalled connection still blocked after 5 s")
	}
	if err := <-sent; err == nil {
		t.Fatal("a send stalled into a Close succeeded")
	}
	r.close(t)
}
