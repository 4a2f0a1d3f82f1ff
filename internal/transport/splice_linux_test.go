//go:build linux

package transport

import (
	"bytes"
	"io"
	"syscall"
	"testing"
)

// splicedReply sends data as a cluster reply from a sendfile origin over
// loopback TCP and reads it back with ReadClusterReply through pipes, the way
// a home reads a peer's reply.
func splicedReply(t *testing.T, pool *BufferPool, pipes *PipePool, data []byte) (ClusterPayload, *Frame) {
	t.Helper()
	f, off := bodyFile(t, data)
	originNC, homeNC := tcpPair(t)
	origin := NewConn(originNC)
	origin.EnableBinaryFrames()
	body := NewFileFrame(f, off, int64(len(data)), nil)
	sent := make(chan error, 1)
	go func() {
		kernel, err := origin.WriteClusterBody(nil, TypeClusterOK, kernelPayload(len(data)), body)
		if err == nil && !kernel {
			err = io.ErrShortWrite
		}
		body.Release()
		sent <- err
	}()
	p, fr, err := NewConn(homeNC).ReadClusterReply(pool, pipes)
	if err != nil {
		t.Fatalf("ReadClusterReply: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("origin send: %v", err)
	}
	if p != kernelPayload(len(data)) {
		t.Fatalf("payload = %+v", p)
	}
	return p, fr
}

// clusterWire is what WriteClusterFrame puts on the wire for data.
func clusterWire(t *testing.T, data []byte) []byte {
	t.Helper()
	var want sink
	w := NewConn(&want)
	w.EnableBinaryFrames()
	if err := w.WriteClusterFrame(kernelPayload(len(data)), data); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// resend sends fr to a loopback client the way a home sends a pulled
// cluster on, and returns the client's wire bytes and the send's path.
func resend(t *testing.T, pool *BufferPool, p ClusterPayload, fr *Frame) ([]byte, bool) {
	t.Helper()
	homeNC, clientNC := tcpPair(t)
	home := NewConn(homeNC)
	home.EnableBinaryFrames()
	type res struct {
		kernel bool
		err    error
	}
	done := make(chan res, 1)
	go func() {
		kernel, err := home.WriteClusterBody(pool, TypeCluster, p, fr)
		homeNC.Close()
		done <- res{kernel, err}
	}()
	wire, err := io.ReadAll(clientNC)
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("home send: %v", r.err)
	}
	return wire, r.kernel
}

func testBody(size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	return data
}

// TestSplicedReplyResentByteIdentical: a reply from a sendfile origin lands
// in a pipe, not a buffer, and goes on to the client by splice with the same
// wire bytes the copy path writes. Afterwards the pipe is back in its pool,
// empty, and no buffer was leased.
func TestSplicedReplyResentByteIdentical(t *testing.T) {
	size := 256 << 10
	data := testBody(size)
	pool := NewBufferPool(nil)
	pipes := NewPipePool(nil, 4, int64(size))
	defer pipes.Close()
	p, fr := splicedReply(t, pool, pipes, data)
	if fr.kind != kindPipe {
		t.Fatal("reply body not in a pipe")
	}
	if fr.BodyLen() != int64(size) {
		t.Fatalf("BodyLen = %d", fr.BodyLen())
	}
	wire, kernel := resend(t, pool, p, fr)
	fr.Release()
	if !kernel {
		t.Fatal("kernel = false for a pipe body on TCP")
	}
	if !bytes.Equal(wire, clusterWire(t, data)) {
		t.Fatal("spliced wire bytes differ from the copy path's")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("splice hop leased %d buffers", n)
	}
	if n := pipes.Open(); n != 1 {
		t.Fatalf("%d pipes open, want the one idle pipe", n)
	}
	if n := pipes.discards.Value(); n != 0 {
		t.Fatalf("%d pipes discarded, want 0", n)
	}
}

// TestPipeOverflowFinishesByCopy: a body that overflows a pipe sized below
// it is drained from the pipe and finished from the socket into a leased
// buffer, byte-identical, and goes on by the copy path.
func TestPipeOverflowFinishesByCopy(t *testing.T) {
	size := 256 << 10
	data := testBody(size)
	pool := NewBufferPool(nil)
	pipes := NewPipePool(nil, 4, int64(size))
	defer pipes.Close()
	pipes.SetCapacity(4 << 10)
	p, fr := splicedReply(t, pool, pipes, data)
	if fr.kind == kindPipe {
		t.Fatal("a body larger than its pipe stayed in the pipe")
	}
	if !bytes.Equal(fr.Payload, data) {
		t.Fatal("overflowed body differs from the origin's")
	}
	if n := pipes.overflows.Value(); n != 1 {
		t.Fatalf("pipe_overflows = %d, want 1", n)
	}
	wire, kernel := resend(t, pool, p, fr)
	fr.Release()
	if kernel {
		t.Fatal("kernel = true for a byte body")
	}
	if !bytes.Equal(wire, clusterWire(t, data)) {
		t.Fatal("overflowed body's wire bytes differ")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leases outstanding: %d", n)
	}
}

// TestPipeBodyRetainPanics: a pipe can be read once, so sharing a pipe body
// must fail loudly. Releasing it still holding its bytes closes the pipe.
func TestPipeBodyRetainPanics(t *testing.T) {
	pipes := NewPipePool(nil, 4, 64<<10)
	defer pipes.Close()
	_, fr := splicedReply(t, nil, pipes, testBody(64<<10))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Retain on a pipe body did not panic")
			}
		}()
		fr.Retain()
	}()
	fr.Release()
	if n := pipes.Open(); n != 0 {
		t.Fatalf("%d pipes open after releasing a full pipe, want it closed", n)
	}
	if n := pipes.discards.Value(); n != 1 {
		t.Fatalf("pipe_discards = %d, want 1", n)
	}
}

// TestPipeBodyBytesDrains: BodyBytes moves a pipe body into a leased buffer
// in place; the frame is then byte-backed and shareable, and the emptied
// pipe is back in its pool.
func TestPipeBodyBytesDrains(t *testing.T) {
	data := testBody(100 << 10)
	pool := NewBufferPool(nil)
	pipes := NewPipePool(nil, 4, int64(len(data)))
	defer pipes.Close()
	_, fr := splicedReply(t, pool, pipes, data)
	body, free, err := fr.BodyBytes(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("drained body differs")
	}
	free()
	if fr.kind == kindPipe || fr.BodyLen() != int64(len(data)) {
		t.Fatalf("frame after drain: pipe=%v len=%d", fr.kind == kindPipe, fr.BodyLen())
	}
	fr.Retain().Release()
	fr.Release()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leases outstanding: %d", n)
	}
	if n, d := pipes.Open(), pipes.discards.Value(); n != 1 || d != 0 {
		t.Fatalf("open=%d discards=%d, want the drained pipe idle", n, d)
	}
}

// TestSpliceSendZeroAlloc: after warm-up, the steady-state splice send of a
// pipe body allocates nothing. Each round refills the one frame's pipe
// outside the send.
func TestSpliceSendZeroAlloc(t *testing.T) {
	size := 64 << 10
	data := testBody(size)
	pipes := NewPipePool(nil, 1, int64(size))
	defer pipes.Close()
	p := pipes.get()
	if p == nil {
		t.Skip("no pipe available")
	}
	fr := &Frame{Version: FrameVersion, Type: FrameCluster, kind: kindPipe, pipe: p, size: int64(size)}
	fr.refs.Store(1)
	defer fr.Release()
	cliNC, srvNC := tcpPair(t)
	srv := NewConn(srvNC)
	srv.EnableBinaryFrames()
	drain := make([]byte, 64<<10)
	go func() {
		for {
			if _, err := cliNC.Read(drain); err != nil {
				return
			}
		}
	}()
	payload := kernelPayload(size)
	send := func() {
		for rest := data; len(rest) > 0; {
			n, err := syscall.Write(p.w, rest)
			if err != nil {
				t.Fatalf("fill pipe: %v", err)
			}
			rest = rest[n:]
		}
		p.held = int64(size)
		kernel, err := srv.WriteClusterBody(nil, TypeCluster, payload, fr)
		if err != nil || !kernel {
			t.Fatalf("splice send: kernel=%v err=%v", kernel, err)
		}
		if p.held != 0 {
			t.Fatalf("pipe holds %d bytes after the send", p.held)
		}
	}
	send() // warm-up: binds the RawConn, sizes the scratch and vector
	if allocs := testing.AllocsPerRun(50, send); allocs != 0 {
		t.Fatalf("splice send allocates %.1f/op, want 0", allocs)
	}
}
