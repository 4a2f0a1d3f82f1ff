//go:build linux

package transport

import (
	"errors"
	"io"
	"testing"
)

// TestSendfileTruncatedFile: a body shorter than the announced size must
// fail loudly (the frame header already promised the bytes), not hang or
// report success.
func TestSendfileTruncatedFile(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	c := NewConn(srvNC)
	data := make([]byte, 4<<10)
	f, off := bodyFile(t, data)
	go func() { _, _ = io.Copy(io.Discard, cliNC) }()

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.kernelSendLocked(NewFileFrame(f, off, int64(2*len(data)), nil)); err != io.ErrUnexpectedEOF {
		t.Fatalf("sendfile past EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestKernelSendZeroAlloc locks in the CI gate's contract: after warm-up, a
// steady-state kernel send allocates nothing — no closures, no leases, no
// vector regrowth.
func TestKernelSendZeroAlloc(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	srv := NewConn(srvNC)
	srv.EnableBinaryFrames()
	size := 64 << 10
	data := make([]byte, size)
	f, off := bodyFile(t, data)
	frame := NewFileFrame(f, off, int64(size), nil)
	defer frame.Release()
	pool := NewBufferPool(nil)
	go func() {
		drain := make([]byte, 64<<10)
		for {
			if _, err := cliNC.Read(drain); err != nil {
				return
			}
		}
	}()
	payload := kernelPayload(size)
	send := func() {
		kernel, err := srv.WriteClusterBody(pool, TypeCluster, payload, frame)
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		if !kernel {
			t.Fatal("kernel = false on linux TCP")
		}
	}
	send() // warm-up: binds the RawConn, sizes the scratch and vector
	if allocs := testing.AllocsPerRun(50, send); allocs != 0 {
		t.Fatalf("kernel send allocates %.1f/op, want 0", allocs)
	}
}

// countGate is a test Gate: it counts its passes and fails each one with
// err while err is set.
type countGate struct {
	passes int
	err    error
}

func (g *countGate) Pass() error { g.passes++; return g.err }
func (g *countGate) Closed()     {}

// TestGateFaultsEveryIO: a gated connection passes its gate before reads,
// writes, each sendfile chunk and each splice chunk, and a gate error fails
// each of them before a byte moves.
func TestGateFaultsEveryIO(t *testing.T) {
	aNC, bNC := tcpPair(t)
	g := &countGate{}
	a := &Conn{rw: aNC, gate: g}
	b := NewConn(bNC)
	errGate := errors.New("gate shut")
	ping, _ := Encode(TypePing, nil)

	// Open gate: a write and a read each pass it, and the bytes flow.
	if err := a.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if g.passes < 2 {
		t.Fatalf("a write and a read passed the gate %d times", g.passes)
	}

	// Shut gate: every path fails with the gate's error.
	g.err = errGate
	if err := a.WriteMessage(ping); !errors.Is(err, errGate) {
		t.Fatalf("write through a shut gate: %v", err)
	}
	if err := b.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadMessage(); !errors.Is(err, errGate) {
		t.Fatalf("read through a shut gate: %v", err)
	}

	data := testBody(64 << 10)
	f, off := bodyFile(t, data)
	body := NewFileFrame(f, off, int64(len(data)), nil)
	defer body.Release()
	a.wmu.Lock()
	passes := g.passes
	kernel, err := a.kernelSendLocked(body)
	sent := a.ks.sent
	a.wmu.Unlock()
	if !kernel || !errors.Is(err, errGate) || sent != 0 || g.passes != passes+1 {
		t.Fatalf("sendfile through a shut gate: kernel=%v err=%v, %d bytes sent, %d passes", kernel, err, sent, g.passes-passes)
	}

	pipes := NewPipePool(nil, 1, int64(len(data)))
	defer pipes.Close()
	p := pipes.get()
	if p == nil {
		t.Skip("no pipe to splice into")
	}
	defer pipes.put(p)
	if _, err := bNC.Write(data); err != nil {
		t.Fatal(err)
	}
	a.rmu.Lock()
	if !a.spliceable() {
		t.Fatal("a gated TCP socket is not spliceable")
	}
	passes = g.passes
	got, ok, err := a.spliceRecvLocked(p, int64(len(data)))
	a.rmu.Unlock()
	if !ok || !errors.Is(err, errGate) || got != 0 || g.passes != passes+1 {
		t.Fatalf("splice through a shut gate: ok=%v err=%v, %d bytes spliced, %d passes", ok, err, got, g.passes-passes)
	}

	// Open again: the chunks pass the gate and the kernel paths run.
	g.err = nil
	go func() { _, _ = io.Copy(io.Discard, bNC) }()
	a.wmu.Lock()
	passes = g.passes
	kernel, err = a.kernelSendLocked(body)
	a.wmu.Unlock()
	if !kernel || err != nil || g.passes == passes {
		t.Fatalf("sendfile through an open gate: kernel=%v err=%v, %d passes", kernel, err, g.passes-passes)
	}
}
