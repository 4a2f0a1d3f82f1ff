//go:build linux

package transport

import (
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
