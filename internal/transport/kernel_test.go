package transport

import (
	"bytes"
	"io"
	"net"
	"os"
	"runtime"
	"testing"

	"dvod/internal/metrics"
)

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

// bodyFile writes data at a 16-byte offset of a temp file — the shape of a
// disk block file — and returns it opened for positioned reads.
func bodyFile(t testing.TB, data []byte) (*os.File, int64) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "body-*.blk")
	if err != nil {
		t.Fatalf("temp file: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	pad := make([]byte, 16)
	if _, err := f.Write(pad); err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		t.Fatalf("write body file: %v", err)
	}
	return f, 16
}

func kernelPayload(size int) ClusterPayload {
	return ClusterPayload{Title: "feature", Index: 7, Offset: int64(7 * size), Length: int64(size), Source: "U2"}
}

// TestWriteClusterBodyKernelTCP drives the full kernel delivery path over
// loopback: a queued control frame and the cluster header coalesce into the
// first writev, the file-backed body follows via sendfile, and the receiver
// decodes a byte-exact cluster. The sending pool must never be touched.
func TestWriteClusterBodyKernelTCP(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	srv, cli := NewConn(srvNC), NewConn(cliNC)
	srv.EnableBinaryFrames()
	cli.EnableBinaryFrames()

	size := 256 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	f, off := bodyFile(t, data)
	frame := NewFileFrame(f, off, int64(size), nil)
	defer frame.Release()

	reg := metrics.NewRegistry()
	pool := NewBufferPool(reg)

	head, err := Encode(TypeWatchOK, WatchOKPayload{Title: "feature", SizeBytes: int64(size)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.QueueMessage(head); err != nil {
		t.Fatalf("QueueMessage: %v", err)
	}

	type sendRes struct {
		kernel bool
		err    error
	}
	done := make(chan sendRes, 1)
	go func() {
		kernel, err := srv.WriteClusterBody(pool, TypeCluster, kernelPayload(size), frame)
		done <- sendRes{kernel, err}
	}()

	// The queued watch.ok must arrive first, then the cluster frame.
	m, fr, err := cli.ReadFrameOrMessage(nil)
	if err != nil || fr != nil || m.Type != TypeWatchOK {
		t.Fatalf("first read = (%v, %v, %v), want queued watch.ok", m, fr, err)
	}
	m, p, fr, err := cli.ReadClusterOrMessage(nil)
	if err != nil || fr == nil {
		t.Fatalf("second read = (%v, %v, %v), want cluster frame", m, fr, err)
	}
	if p != kernelPayload(size) {
		t.Fatalf("payload = %+v", p)
	}
	if !bytes.Equal(fr.Payload, data) {
		t.Fatal("received body differs from file content")
	}
	fr.Release()

	r := <-done
	if r.err != nil {
		t.Fatalf("WriteClusterBody: %v", r.err)
	}
	if runtime.GOOS == "linux" && !r.kernel {
		t.Fatal("kernel = false on linux TCP: sendfile path not taken")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leases outstanding after send: %d", n)
	}
	if r.kernel {
		gets := reg.Counter("transport.pool_hits").Value() + reg.Counter("transport.pool_misses").Value()
		if gets != 0 {
			t.Fatalf("kernel path leased %d pooled buffers, want 0", gets)
		}
	}
}

// sink is a write-only in-memory stream with no kernel path.
type sink struct{ bytes.Buffer }

func (*sink) Close() error                  { return nil }
func (*sink) Read([]byte) (int, error)      { return 0, io.EOF }
func (s *sink) Write(p []byte) (int, error) { return s.Buffer.Write(p) }

// TestWriteClusterBodyFallbackByteIdentical proves the three binary senders
// emit identical wire bytes for one cluster: the kernel path over TCP, the
// userspace fallback (a stream with no kernel path), and the pre-existing
// WriteClusterFrame byte path.
func TestWriteClusterBodyFallbackByteIdentical(t *testing.T) {
	size := 64<<10 + 37 // odd size: exercise the non-aligned tail
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	f, off := bodyFile(t, data)
	payload := kernelPayload(size)

	// Arm 1: kernel path over TCP, wire bytes captured by the receiver.
	cliNC, srvNC := tcpPair(t)
	srv := NewConn(srvNC)
	srv.EnableBinaryFrames()
	frame := NewFileFrame(f, off, int64(size), nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.WriteClusterBody(nil, TypeCluster, payload, frame)
		frame.Release()
		srvNC.Close()
		errCh <- err
	}()
	wireTCP, err := io.ReadAll(cliNC)
	if err != nil {
		t.Fatalf("read TCP wire: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("kernel send: %v", err)
	}

	// Arm 2: the same file frame through a stream with no kernel path.
	var buf sink
	fb := NewConn(&buf)
	fb.EnableBinaryFrames()
	frame2 := NewFileFrame(f, off, int64(size), nil)
	defer frame2.Release()
	kernel, err := fb.WriteClusterBody(nil, TypeCluster, payload, frame2)
	if err != nil {
		t.Fatalf("fallback send: %v", err)
	}
	if kernel {
		t.Fatal("kernel = true on an in-memory stream")
	}
	if !bytes.Equal(wireTCP, buf.Bytes()) {
		t.Fatalf("fallback wire bytes differ from kernel path (%d vs %d bytes)", len(buf.Bytes()), len(wireTCP))
	}

	// Arm 3: the established byte path.
	var buf3 sink
	bc := NewConn(&buf3)
	bc.EnableBinaryFrames()
	if err := bc.WriteClusterFrame(payload, data); err != nil {
		t.Fatalf("WriteClusterFrame: %v", err)
	}
	if !bytes.Equal(wireTCP, buf3.Bytes()) {
		t.Fatal("kernel path wire bytes differ from WriteClusterFrame")
	}
}

// TestWriteClusterBodyJSONFraming sends a file-backed body on a connection
// that never negotiated binary framing: the body must arrive as the
// canonical JSON message + raw bytes, bounced through the pool with a
// balanced lease.
func TestWriteClusterBodyJSONFraming(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	srv, cli := NewConn(srvNC), NewConn(cliNC)

	size := 32 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i ^ 0x5C)
	}
	f, off := bodyFile(t, data)
	frame := NewFileFrame(f, off, int64(size), nil)
	defer frame.Release()
	pool := NewBufferPool(nil)

	sent := make(chan struct{})
	go func() {
		defer close(sent)
		kernel, err := srv.WriteClusterBody(pool, TypeCluster, kernelPayload(size), frame)
		if err != nil || kernel {
			t.Errorf("JSON-framing send: kernel=%v err=%v", kernel, err)
		}
	}()
	var p ClusterPayload
	_, body, err := cli.ReadMessageWithBodyPool(nil, func(m Message) (int64, error) {
		var derr error
		p, derr = Decode[ClusterPayload](m)
		return p.Length, derr
	})
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	// The sender returns its bounce buffer in a deferred release, after the
	// last byte is on the wire: the lease audit must wait for it.
	<-sent
	if p != kernelPayload(size) || !bytes.Equal(body.Payload, data) {
		t.Fatal("JSON-framed cluster differs from file content")
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("pool leases outstanding: %d", n)
	}
}

// TestQueueMessageOrdering checks the writev queue's ordering contract:
// queued frames precede any later write, across both Flush and piggybacked
// writes, and queue order is preserved.
func TestQueueMessageOrdering(t *testing.T) {
	var buf sink
	c := NewConn(&buf)
	for _, typ := range []string{TypePing, TypePong} {
		m, err := Encode(typ, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.QueueMessage(m); err != nil {
			t.Fatalf("QueueMessage: %v", err)
		}
	}
	if buf.Len() != 0 {
		t.Fatal("QueueMessage wrote to the stream")
	}
	last, err := Encode(TypeTitles, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(last); err != nil {
		t.Fatal(err)
	}
	rc := NewConn(&frameStream{buf.Buffer})
	for _, want := range []string{TypePing, TypePong, TypeTitles} {
		m, err := rc.ReadMessage()
		if err != nil || m.Type != want {
			t.Fatalf("read = (%q, %v), want %q", m.Type, err, want)
		}
	}
	// Flush drains the queue by itself too.
	m, err := Encode(TypePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.QueueMessage(m); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := c.Flush(); err != nil { // idempotent on an empty queue
		t.Fatalf("empty Flush: %v", err)
	}
	rc = NewConn(&frameStream{buf.Buffer}) // re-snapshot: the flush wrote after the last snapshot
	for range 3 {
		if _, err := rc.ReadMessage(); err != nil {
			t.Fatalf("re-read: %v", err)
		}
	}
	m2, err := rc.ReadMessage()
	if err != nil || m2.Type != TypePing {
		t.Fatalf("flushed read = (%q, %v)", m2.Type, err)
	}
}

// TestQueueMergeInfoFrameOrdering: the binary queue variant rides the next
// write like the JSON one.
func TestQueueMergeInfoFrameOrdering(t *testing.T) {
	var buf sink
	c := NewConn(&buf)
	c.EnableBinaryFrames()
	info := MergeInfoPayload{Cohort: 5, Role: MergeRoleBase, JoinIndex: 2}
	if err := c.QueueMergeInfoFrame(info); err != nil {
		t.Fatalf("QueueMergeInfoFrame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatal("QueueMergeInfoFrame wrote to the stream")
	}
	body := []byte("cluster-bytes")
	p := ClusterPayload{Title: "t", Index: 0, Length: int64(len(body)), Source: "U1"}
	if err := c.WriteClusterFrame(p, body); err != nil {
		t.Fatal(err)
	}
	rc := NewConn(&frameStream{buf.Buffer})
	_, fr, err := rc.ReadFrameOrMessage(nil)
	if err != nil || fr == nil {
		t.Fatalf("first read: (%v, %v)", fr, err)
	}
	got, err := DecodeMergeInfoFrame(fr)
	if err != nil || got != info {
		t.Fatalf("merge info = (%+v, %v), want %+v", got, err, info)
	}
	fr.Release()
	_, _, fr, err = rc.ReadClusterOrMessage(nil)
	if err != nil || fr == nil {
		t.Fatalf("second read: (%v, %v)", fr, err)
	}
	if !bytes.Equal(fr.Payload, body) {
		t.Fatal("cluster after queued merge info differs")
	}
	fr.Release()
}

// TestFileFrameLifecycle: BodyLen/BodyBytes accessors, the backing and the done
// hook firing exactly once at the final release, through a retain cycle.
func TestFileFrameLifecycle(t *testing.T) {
	data := []byte("file frame body")
	f, off := bodyFile(t, data)
	released := 0
	fr := NewFileFrame(f, off, int64(len(data)), func() { released++ })
	if fr.BodyLen() != int64(len(data)) {
		t.Fatalf("BodyLen = %d", fr.BodyLen())
	}
	if fr.kind != kindFile {
		t.Fatal("file frame not file-backed")
	}
	pool := NewBufferPool(nil)
	body, free, err := fr.BodyBytes(pool)
	if err != nil || !bytes.Equal(body, data) {
		t.Fatalf("BodyBytes = (%q, %v)", body, err)
	}
	free()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("BodyBytes leaked a lease: %d", n)
	}
	fr.Retain()
	fr.Release()
	if released != 0 {
		t.Fatal("done ran before the final release")
	}
	fr.Release()
	if released != 1 {
		t.Fatalf("done ran %d times, want 1", released)
	}
	// Byte-backed frames report no file body.
	bf := NewLeasedFrame(nil, []byte("x"))
	if bf.kind == kindFile {
		t.Fatal("byte-backed frame reports a file body")
	}
	if bf.BodyLen() != 1 {
		t.Fatalf("byte frame BodyLen = %d", bf.BodyLen())
	}
	bf.Release()
}

// benchKernelArm is the kernel arm of BenchmarkFraming: the timed loop is
// the sender (where the kernel path lives) and a raw-draining receiver
// provides backpressure without allocating, so -benchmem reflects the send
// pipeline alone.
func benchKernelArm(b *testing.B, size int, payload ClusterPayload) {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	f, off := bodyFile(b, data)
	frame := NewFileFrame(f, off, int64(size), nil)
	defer frame.Release()
	cliNC, srvNC := tcpPair(b)
	srv := NewConn(srvNC)
	srv.EnableBinaryFrames()
	pool := NewBufferPool(nil)
	// Drain raw bytes with one fixed buffer: parsing frames would allocate
	// and be charged to the benchmark's all-goroutine count. The buffer is
	// allocated here, not in the goroutine — on one core the receiver may
	// not be scheduled until after b.Loop resets the allocation counters.
	drain := make([]byte, 256<<10)
	go func() {
		for {
			if _, err := cliNC.Read(drain); err != nil {
				return
			}
		}
	}()
	// One warm-up send outside the timed loop: the first send populates the
	// connection's cached RawConn and writev backing arrays.
	if _, err := srv.WriteClusterBody(pool, TypeCluster, payload, frame); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := srv.WriteClusterBody(pool, TypeCluster, payload, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteHop times a home's relay hop for one pulled cluster: read
// the peer's reply, send it on to the client, release it. A sendfile origin
// streams replies back to back over loopback TCP (no request leg, so only
// the hop is timed) and a raw-draining client reads the far side. The pipe
// arm splices the body socket → pipe → socket (on Linux; elsewhere it falls
// back to the copy); the pooled arm reads it into a leased buffer and writes
// it from there.
func BenchmarkRemoteHop(b *testing.B) {
	b.Run("pipe", func(b *testing.B) { benchRemoteHop(b, true) })
	b.Run("pooled", func(b *testing.B) { benchRemoteHop(b, false) })
}

func benchRemoteHop(b *testing.B, splice bool) {
	size := 256 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	f, off := bodyFile(b, data)
	body := NewFileFrame(f, off, int64(size), nil)
	payload := kernelPayload(size)
	originNC, inNC := tcpPair(b)
	outNC, clientNC := tcpPair(b)
	origin, in, out := NewConn(originNC), NewConn(inNC), NewConn(outNC)
	origin.EnableBinaryFrames()
	out.EnableBinaryFrames()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for {
			if _, err := origin.WriteClusterBody(nil, TypeClusterOK, payload, body); err != nil {
				return
			}
		}
	}()
	// The origin may be mid-send when the benchmark ends: cut its stream and
	// wait for it before releasing the body it sends from.
	defer func() {
		inNC.Close()
		originNC.Close()
		<-sent
		body.Release()
	}()
	drain := make([]byte, 256<<10)
	go func() {
		for {
			if _, err := clientNC.Read(drain); err != nil {
				return
			}
		}
	}()
	pool := NewBufferPool(nil)
	var pipes *PipePool
	if splice {
		pipes = NewPipePool(nil, 4, int64(size))
		defer pipes.Close()
	}
	hop := func() {
		p, fr, err := in.ReadClusterReply(pool, pipes)
		if err != nil {
			b.Fatal(err)
		}
		_, err = out.WriteClusterBody(pool, TypeCluster, p, fr)
		fr.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Warm-up outside the timed loop: binds both RawConns, opens the pipe
	// and sizes the scratch buffers.
	hop()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for b.Loop() {
		hop()
	}
}

// TestWriteClusterBodyEveryBacking pins WriteClusterBody for every body
// backing on every kind of stream: the wire bytes match the byte-backed
// reference writer of the stream's framing, the body goes by the kernel only
// for a file or pipe body over binary-framed TCP on Linux, and afterwards no
// buffer lease, done hook or pipe is left over.
func TestWriteClusterBodyEveryBacking(t *testing.T) {
	size := 64<<10 + 37
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	payload := kernelPayload(size)
	bodyF, off := bodyFile(t, data)

	// reference is what a byte-backed writer puts on the wire: the binary
	// frame of WriteClusterFrame, or the JSON message plus raw body.
	reference := func(binary bool) []byte {
		var s sink
		c := NewConn(&s)
		if binary {
			if err := c.WriteClusterFrame(payload, data); err != nil {
				t.Fatal(err)
			}
			return s.Bytes()
		}
		m, err := Encode(TypeCluster, payload)
		if err == nil {
			err = c.WriteMessageWithBody(m, data)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s.Bytes()
	}

	// pipeBody reads data as a cluster reply from a sendfile origin over
	// loopback TCP, the way a home reads a peer's reply: on Linux the body
	// lands in a pipe and leases nothing.
	pipeBody := func(t *testing.T, pool *BufferPool, pipes *PipePool) *Frame {
		originNC, homeNC := tcpPair(t)
		origin := NewConn(originNC)
		origin.EnableBinaryFrames()
		src := NewFileFrame(bodyF, off, int64(size), nil)
		sent := make(chan error, 1)
		go func() {
			_, err := origin.WriteClusterBody(nil, TypeClusterOK, payload, src)
			src.Release()
			sent <- err
		}()
		p, fr, err := NewConn(homeNC).ReadClusterReply(pool, pipes)
		if err != nil {
			t.Fatalf("ReadClusterReply: %v", err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("origin send: %v", err)
		}
		if p != payload {
			t.Fatalf("reply payload = %+v", p)
		}
		if runtime.GOOS == "linux" && pool.Outstanding() != 0 {
			t.Fatal("reply body leased a buffer: not in a pipe")
		}
		return fr
	}

	type stream struct {
		name        string
		tcp, binary bool
	}
	streams := []stream{
		{"tcp-binary", true, true},
		{"sink-binary", false, true},
		{"tcp-json", true, false},
	}
	for _, backing := range []string{"bytes", "file", "pipe"} {
		for _, st := range streams {
			t.Run(backing+"/"+st.name, func(t *testing.T) {
				reg := metrics.NewRegistry()
				pool := NewBufferPool(reg)
				pipes := NewPipePool(reg, 4, int64(size))
				dones := 0
				var fr *Frame
				switch backing {
				case "bytes":
					buf := pool.Get(size)
					copy(buf, data)
					fr = NewLeasedFrame(pool, buf)
				case "file":
					fr = NewFileFrame(bodyF, off, int64(size), func() { dones++ })
				case "pipe":
					fr = pipeBody(t, pool, pipes)
				}

				var (
					wire   []byte
					kernel bool
					err    error
				)
				if st.tcp {
					srvNC, cliNC := tcpPair(t)
					srv := NewConn(srvNC)
					if st.binary {
						srv.EnableBinaryFrames()
					}
					type res struct {
						kernel bool
						err    error
					}
					done := make(chan res, 1)
					go func() {
						k, err := srv.WriteClusterBody(pool, TypeCluster, payload, fr)
						srvNC.Close()
						done <- res{k, err}
					}()
					if wire, err = io.ReadAll(cliNC); err != nil {
						t.Fatalf("client read: %v", err)
					}
					r := <-done
					kernel, err = r.kernel, r.err
				} else {
					var s sink
					c := NewConn(&s)
					if st.binary {
						c.EnableBinaryFrames()
					}
					kernel, err = c.WriteClusterBody(pool, TypeCluster, payload, fr)
					wire = s.Bytes()
				}
				fr.Release()
				if err != nil {
					t.Fatalf("WriteClusterBody: %v", err)
				}

				if !bytes.Equal(wire, reference(st.binary)) {
					t.Fatalf("wire bytes differ from the byte-backed writer's (%d bytes)", len(wire))
				}
				wantKernel := runtime.GOOS == "linux" && st.tcp && st.binary && backing != "bytes"
				if kernel != wantKernel {
					t.Fatalf("kernel = %v, want %v", kernel, wantKernel)
				}
				if n := pool.Outstanding(); n != 0 {
					t.Fatalf("pool leases outstanding: %d", n)
				}
				wantDones := 0
				if backing == "file" {
					wantDones = 1
				}
				if dones != wantDones {
					t.Fatalf("done ran %d times, want %d", dones, wantDones)
				}
				wantOpen := 0
				if backing == "pipe" && runtime.GOOS == "linux" {
					wantOpen = 1 // the emptied pipe, idle in its pool
				}
				if n, d := pipes.Open(), pipes.discards.Value(); n != wantOpen || d != 0 {
					t.Fatalf("pipes open=%d discards=%d, want %d and 0", n, d, wantOpen)
				}
				pipes.Close()
				if n := pipes.Open(); n != 0 {
					t.Fatalf("%d pipes open after Close", n)
				}
			})
		}
	}
}
