package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// frameStream is an in-memory duplex "wire" usable as one Conn's stream.
type frameStream struct{ bytes.Buffer }

func (*frameStream) Close() error { return nil }

// newFrameConn returns a Conn over an in-memory buffer plus the buffer
// itself, so tests can write one side and read it back on the same Conn.
func newFrameConn() (*Conn, *frameStream) {
	s := &frameStream{}
	return NewConn(s), s
}

func testClusterPayload(n int) (ClusterPayload, []byte) {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i * 31)
	}
	return ClusterPayload{
		Title:  "feature",
		Index:  7,
		Offset: 7 * int64(n),
		Length: int64(n),
		Source: "U4",
	}, body
}

func TestClusterFrameRoundTrip(t *testing.T) {
	pool := NewBufferPool(nil)
	c, _ := newFrameConn()
	payload, body := testClusterPayload(64 << 10)
	if err := c.WriteClusterFrame(payload, body); err != nil {
		t.Fatal(err)
	}
	m, f, err := c.ReadFrameOrMessage(pool)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatalf("demuxed to a control frame %+v", m)
	}
	if f.Version != FrameVersion || f.Type != FrameCluster || f.Flags != 0 {
		t.Fatalf("frame header = %+v", f)
	}
	got, gotBody, err := DecodeClusterFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != payload {
		t.Fatalf("payload = %+v, want %+v", got, payload)
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatal("body corrupted in transit")
	}
	f.Release()
	if f.Payload != nil {
		t.Fatal("payload not cleared by Release")
	}
}

// TestFrameDemux interleaves JSON control frames and binary cluster frames
// on one stream; the receiver must separate them by first octet alone.
func TestFrameDemux(t *testing.T) {
	c, _ := newFrameConn()
	ping, _ := Encode(TypePing, nil)
	if err := c.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	payload, body := testClusterPayload(4096)
	if err := c.WriteClusterFrame(payload, body); err != nil {
		t.Fatal(err)
	}
	done, _ := Encode(TypeWatchDone, nil)
	if err := c.WriteMessage(done); err != nil {
		t.Fatal(err)
	}

	m, f, err := c.ReadFrameOrMessage(nil)
	if err != nil || f != nil || m.Type != TypePing {
		t.Fatalf("first item: m=%+v f=%v err=%v", m, f, err)
	}
	_, f, err = c.ReadFrameOrMessage(nil)
	if err != nil || f == nil {
		t.Fatalf("second item: f=%v err=%v", f, err)
	}
	if _, _, err := DecodeClusterFrame(f); err != nil {
		t.Fatal(err)
	}
	f.Release()
	m, f, err = c.ReadFrameOrMessage(nil)
	if err != nil || f != nil || m.Type != TypeWatchDone {
		t.Fatalf("third item: m=%+v f=%v err=%v", m, f, err)
	}
}

// TestJSONFirstOctetIsZero pins the demultiplexing invariant the wire format
// depends on: every JSON length prefix starts 0x00 (MaxFrameBytes fits in 24
// bits) and the binary magic does not.
func TestJSONFirstOctetIsZero(t *testing.T) {
	if MaxFrameBytes > 0xFFFFFF {
		t.Fatalf("MaxFrameBytes %d no longer fits 24 bits; first-octet demux breaks", MaxFrameBytes)
	}
	if FrameMagic0 == 0 {
		t.Fatal("binary magic collides with JSON length prefix")
	}
	c, _ := newFrameConn()
	m, _ := Encode(TypePing, nil)
	if err := c.WriteMessage(m); err != nil {
		t.Fatal(err)
	}
	var first [1]byte
	stream := c.rw.(*frameStream)
	if _, err := stream.Read(first[:]); err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 {
		t.Fatalf("JSON frame first octet = 0x%02x, want 0x00", first[0])
	}
}

// TestReadMessageRejectsBinaryFrame: callers expecting a control frame get a
// clean typed error when a binary frame arrives instead.
func TestReadMessageRejectsBinaryFrame(t *testing.T) {
	c, _ := newFrameConn()
	payload, body := testClusterPayload(64)
	if err := c.WriteClusterFrame(payload, body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadMessage(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("error = %v, want ErrBadFrame", err)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	payload, body := testClusterPayload(256)
	valid := func() []byte {
		c, s := newFrameConn()
		if err := c.WriteClusterFrame(payload, body); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), s.Bytes()...)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"corrupt second magic", func(b []byte) []byte { b[1] = 0xFF; return b }, ErrBadMagic},
		{"version zero", func(b []byte) []byte { b[2] = 0; return b }, ErrBadVersion},
		{"version from the future", func(b []byte) []byte { b[2] = FrameVersion + 1; return b }, ErrBadVersion},
		{"oversized payload length", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[5:9], MaxFramePayload+1)
			return b
		}, ErrFrameTooLarge},
		{"zero payload length", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[5:9], 0)
			return b
		}, ErrBadFrame},
		{"truncated header", func(b []byte) []byte { return b[:5] }, ErrBadFrame},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-10] }, ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&frameStream{*bytes.NewBuffer(tc.mutate(valid()))})
			_, f, err := c.ReadFrameOrMessage(nil)
			if err == nil {
				_, _, err = DecodeClusterFrame(f)
				f.Release()
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}

	// Length field lying about the body size is caught at decode.
	t.Run("length field mismatch", func(t *testing.T) {
		raw := valid()
		// Flip the cluster-meta length field (payload offset 12 within the
		// frame payload, which starts at FrameHeaderLen).
		binary.BigEndian.PutUint64(raw[FrameHeaderLen+12:FrameHeaderLen+20], uint64(len(body)+1))
		c := NewConn(&frameStream{*bytes.NewBuffer(raw)})
		_, f, err := c.ReadFrameOrMessage(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		if _, _, err := DecodeClusterFrame(f); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("error = %v, want ErrBadFrame", err)
		}
	})
}

// TestFramePayloadOwnership pins the codec's ownership rule: two frames read
// back-to-back from one pool never alias, and a released buffer is recycled
// for the next read.
func TestFramePayloadOwnership(t *testing.T) {
	pool := NewBufferPool(nil)
	c, _ := newFrameConn()
	p1, b1 := testClusterPayload(8192)
	p2, b2 := testClusterPayload(8192)
	for i := range b2 {
		b2[i] ^= 0xAA
	}
	if err := c.WriteClusterFrame(p1, b1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteClusterFrame(p2, b2); err != nil {
		t.Fatal(err)
	}
	_, f1, err := c.ReadFrameOrMessage(pool)
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := c.ReadFrameOrMessage(pool)
	if err != nil {
		t.Fatal(err)
	}
	if &f1.Payload[0] == &f2.Payload[0] {
		t.Fatal("in-flight frames share a backing array")
	}
	_, body1, err := DecodeClusterFrame(f1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, b1) {
		t.Fatal("first frame corrupted by second read")
	}
	f1.Release()
	f2.Release()
	// Both leases were returned to the pool exactly once.
	if got := pool.returns.Value(); got != 2 {
		t.Fatalf("pool returns = %d, want 2", got)
	}
}

// TestFrameRetainRelease pins the multi-consumer lease: a retained frame
// keeps its buffer out of the pool until every holder has released.
func TestFrameRetainRelease(t *testing.T) {
	pool := NewBufferPool(nil)
	f := NewLeasedFrame(pool, pool.Get(4096))
	f.Retain()
	f.Retain()
	if got := f.Refs(); got != 3 {
		t.Fatalf("refs = %d, want 3", got)
	}
	f.Release()
	f.Release()
	if f.Payload == nil {
		t.Fatal("payload dropped while a reference remains")
	}
	if got := pool.returns.Value(); got != 0 {
		t.Fatalf("buffer returned early: pool returns = %d", got)
	}
	f.Release()
	if f.Payload != nil {
		t.Fatal("payload not cleared by final Release")
	}
	if got := pool.returns.Value(); got != 1 {
		t.Fatalf("pool returns = %d, want 1", got)
	}
}

// TestFrameDoubleReleasePanics: releasing past zero must panic rather than
// hand the same buffer to two readers.
func TestFrameDoubleReleasePanics(t *testing.T) {
	pool := NewBufferPool(nil)
	f := NewLeasedFrame(pool, pool.Get(4096))
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	f.Release()
}

// TestFrameRetainAfterReleasePanics: a fully released frame's buffer may
// already back another read, so reviving it must panic.
func TestFrameRetainAfterReleasePanics(t *testing.T) {
	f := NewLeasedFrame(nil, make([]byte, 16))
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final Release did not panic")
		}
	}()
	f.Retain()
}

func TestBufferPool(t *testing.T) {
	pool := NewBufferPool(nil)
	b := pool.Get(5000)
	if len(b) != 5000 || cap(b) != 8192 {
		t.Fatalf("len=%d cap=%d, want 5000/8192", len(b), cap(b))
	}
	pool.Put(b)
	if got := pool.returns.Value(); got != 1 {
		t.Fatalf("returns = %d, want 1", got)
	}
	if got := pool.Get(0); len(got) != 0 || got == nil {
		t.Fatalf("Get(0) = %v", got)
	}
	// Oversized requests fall back to direct allocation and are not pooled:
	// the Get counts as a miss and the Put is dropped.
	huge := pool.Get(1<<26 + 1)
	if len(huge) != 1<<26+1 {
		t.Fatalf("oversized len = %d", len(huge))
	}
	pool.Put(huge)
	if got := pool.returns.Value(); got != 1 {
		t.Fatalf("returns after oversized Put = %d, want 1", got)
	}
	if pool.misses.Value() < 2 {
		t.Fatalf("misses = %d, want at least 2", pool.misses.Value())
	}
}

// TestNegotiate runs the full hello exchange over a pipe: the client learns
// it may send binary frames and both conns flip their framing flag.
func TestNegotiate(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err := b.ReadMessage()
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if m.Type != TypeHello {
			t.Errorf("server got %q", m.Type)
			return
		}
		if err := b.AcceptHello(m); err != nil {
			t.Errorf("AcceptHello: %v", err)
		}
	}()
	ok, err := a.Negotiate()
	wg.Wait()
	if err != nil || !ok {
		t.Fatalf("Negotiate = %v, %v", ok, err)
	}
	if !a.BinaryFrames() || !b.BinaryFrames() {
		t.Fatal("negotiation did not enable binary framing on both ends")
	}
}

// TestNegotiateLegacyFallback: a server that answers "unknown message type"
// (the pre-handshake behaviour) leaves the client on JSON with no error.
func TestNegotiateLegacyFallback(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		if _, err := b.ReadMessage(); err != nil {
			return
		}
		_ = b.WriteError(`unknown message type "hello"`)
	}()
	ok, err := a.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if ok || a.BinaryFrames() {
		t.Fatal("legacy fallback enabled binary framing")
	}
}

// acceptHello sends offer to a server-side AcceptHello over a pipe and
// returns its grant plus whether the server enabled binary framing.
func acceptHello(t *testing.T, offer HelloPayload) (HelloOKPayload, bool) {
	t.Helper()
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		m, err := b.ReadMessage()
		if err != nil {
			return
		}
		_ = b.AcceptHello(m)
	}()
	req, _ := Encode(TypeHello, offer)
	if err := a.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	m, err := a.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Decode[HelloOKPayload](m)
	if err != nil {
		t.Fatal(err)
	}
	return ok, b.BinaryFrames()
}

// TestAcceptHelloVersionClamp: a client offering a future version is granted
// this build's version, and an offer without the cluster cap gets no caps.
func TestAcceptHelloVersionClamp(t *testing.T) {
	ok, enabled := acceptHello(t, HelloPayload{Version: 99, Caps: []string{"unknown-cap"}})
	if ok.Version != FrameVersion || len(ok.Caps) != 0 {
		t.Fatalf("grant = %+v", ok)
	}
	if enabled {
		t.Fatal("server enabled binary framing without the capability")
	}
}

// TestAcceptHelloGrantsOnlyClusterFrames: cluster-frames-v1 is the one
// capability. An offer that still lists the retired ledger-sync-v1 and
// member-sync-v1 strings is granted exactly cluster-frames-v1, not refused.
func TestAcceptHelloGrantsOnlyClusterFrames(t *testing.T) {
	ok, enabled := acceptHello(t, HelloPayload{Version: FrameVersion,
		Caps: []string{CapClusterFrames, "ledger-sync-v1", "member-sync-v1"}})
	if ok.Version != FrameVersion || !reflect.DeepEqual(ok.Caps, []string{CapClusterFrames}) {
		t.Fatalf("grant = %+v, want exactly [%s]", ok, CapClusterFrames)
	}
	if !enabled {
		t.Fatal("server did not enable binary framing")
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the binary frame reader and the
// cluster decoder: no panics, and every malformed input yields an error.
func FuzzDecodeFrame(f *testing.F) {
	payload, body := testClusterPayload(512)
	c, s := newFrameConn()
	if err := c.WriteClusterFrame(payload, body); err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), s.Bytes()...)
	f.Add(valid)
	f.Add(valid[:5])                                                  // truncated header
	f.Add(valid[:len(valid)-17])                                      // truncated payload
	f.Add([]byte{FrameMagic0})                                        // magic only
	f.Add([]byte{FrameMagic0, 0xFF, 1, 1, 0, 0, 0, 0, 1})             // corrupt magic1
	f.Add([]byte{FrameMagic0, FrameMagic1, 0, 1, 0, 0, 0, 0, 1, 'x'}) // version 0
	oversized := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(oversized[5:9], MaxFramePayload+1)
	f.Add(oversized) // oversized length
	lying := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(lying[FrameHeaderLen+12:], 1<<40)
	f.Add(lying) // meta length field disagrees with body

	pool := NewBufferPool(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&frameStream{*bytes.NewBuffer(data)})
		m, fr, err := c.ReadFrameOrMessage(pool)
		if err != nil {
			return
		}
		if fr == nil {
			if m.Type == "" {
				t.Fatal("nil error with empty message type")
			}
			return
		}
		defer fr.Release()
		if _, _, err := DecodeClusterFrame(fr); err == nil {
			// A structurally valid cluster frame must carry a consistent
			// length field.
			p, b, _ := DecodeClusterFrame(fr)
			if p.Length != int64(len(b)) {
				t.Fatalf("decoded inconsistent cluster: %+v with %d body bytes", p, len(b))
			}
		}
	})
}

// BenchmarkFraming compares the per-cluster cost of the two framings over a
// synchronous in-memory pipe, modeling the whole delivery pipeline: a sender
// goroutine plays the server (storage read into a send buffer, frame encode,
// write) and the timed loop plays the client (frame read, decode, consumable
// body). The JSON variant allocates per cluster exactly where the legacy
// path did — disk.Read's alloc+copy, the payload and message marshals, the
// receive-side unmarshals and body allocation; the binary variant runs the
// pooled zero-copy pipeline on both ends. Live-TCP end-to-end numbers are
// the Ext-13 study (cmd/vodbench -study framing).
func BenchmarkFraming(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		stored := make([]byte, size) // the "disk block"
		for i := range stored {
			stored[i] = byte(i)
		}
		payload := ClusterPayload{Title: "feature", Index: 3, Offset: int64(3 * size), Length: int64(size), Source: "U4"}
		name := fmt.Sprintf("%dKiB", size>>10)

		b.Run("json-"+name, func(b *testing.B) {
			snd, rcv := pipe()
			defer snd.Close()
			defer rcv.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					// Legacy send pipeline: disk.Read allocates and copies,
					// then the header is JSON-marshaled (payload, then
					// message).
					body := make([]byte, size)
					copy(body, stored)
					m, err := Encode(TypeCluster, payload)
					if err != nil {
						return
					}
					if err := snd.WriteMessageWithBody(m, body); err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				// Legacy receive pipeline: unmarshal twice, allocate the
				// body.
				_, got, err := rcv.ReadMessageWithBodyPool(nil, func(m Message) (int64, error) {
					p, err := Decode[ClusterPayload](m)
					if err != nil {
						return 0, err
					}
					return p.Length, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Payload) != size {
					b.Fatal("short body")
				}
			}
			rcv.Close()
			snd.Close()
			<-done
		})

		b.Run("binary-"+name, func(b *testing.B) {
			snd, rcv := pipe()
			defer snd.Close()
			defer rcv.Close()
			sendPool := NewBufferPool(nil)
			recvPool := NewBufferPool(nil)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					// Pooled send pipeline: lease, read into, frame, release.
					buf := sendPool.Get(size)
					copy(buf, stored)
					err := snd.WriteClusterFrame(payload, buf)
					sendPool.Put(buf)
					if err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				// Pooled receive pipeline: lease, decode in place, release.
				_, f, err := rcv.ReadFrameOrMessage(recvPool)
				if err != nil {
					b.Fatal(err)
				}
				_, got, err := DecodeClusterFrame(f)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != size {
					b.Fatal("short body")
				}
				f.Release()
			}
			rcv.Close()
			snd.Close()
			<-done
		})

		// The kernel arm runs over real loopback TCP — an in-memory pipe has
		// no kernel path — with the timed loop on the SEND side, where
		// sendfile lives. The receiver drains raw bytes without parsing so
		// the alloc report (a CI gate: 0 allocs/op) charges only the send
		// pipeline. Cross-framing MB/s comparisons live in Ext-13, which
		// times all arms over the same live-TCP harness.
		b.Run("kernel-"+name, func(b *testing.B) {
			benchKernelArm(b, size, payload)
		})
	}
}
