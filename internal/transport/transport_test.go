package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"dvod/internal/topology"
)

// pipe returns two framed conns joined by an in-memory duplex pipe.
func pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestMessageRoundTrip(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	msg, err := Encode(TypeWatch, WatchPayload{Title: "movie"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.WriteMessage(msg); err != nil {
			t.Errorf("WriteMessage: %v", err)
		}
	}()
	got, err := b.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	wg.Wait()
	if got.Type != TypeWatch {
		t.Fatalf("type = %s", got.Type)
	}
	p, err := Decode[WatchPayload](got)
	if err != nil {
		t.Fatal(err)
	}
	if p.Title != "movie" {
		t.Fatalf("payload = %+v", p)
	}
}

func TestMessageNoPayload(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		m, _ := Encode(TypePing, nil)
		_ = a.WriteMessage(m)
	}()
	got, err := b.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypePing || len(got.Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
	if _, err := Decode[WatchPayload](got); err == nil {
		t.Fatal("Decode accepted empty payload")
	}
}

func TestMessageWithBody(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	body := []byte("0123456789")
	msg, err := Encode(TypeClusterOK, ClusterPayload{
		Title: "m", Index: 2, Offset: 20, Length: int64(len(body)), Source: "U4",
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = a.WriteMessageWithBody(msg, body)
	}()
	got, gotBody, err := b.ReadMessageWithBodyPool(nil, func(m Message) (int64, error) {
		p, err := Decode[ClusterPayload](m)
		if err != nil {
			return 0, err
		}
		return p.Length, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gotBody.Release()
	if got.Type != TypeClusterOK || string(gotBody.Payload) != "0123456789" {
		t.Fatalf("got %s body %q", got.Type, gotBody.Payload)
	}
}

func TestReadMessageEOF(t *testing.T) {
	a, b := pipe()
	_ = a.Close()
	if _, err := b.ReadMessage(); !errors.Is(err, io.EOF) {
		t.Fatalf("error = %v, want EOF", err)
	}
}

func TestBadFrames(t *testing.T) {
	// Zero-length frame.
	a, b := net.Pipe()
	conn := NewConn(b)
	go func() {
		_, _ = a.Write([]byte{0, 0, 0, 0})
		_ = a.Close()
	}()
	if _, err := conn.ReadMessage(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero frame error = %v", err)
	}

	// Oversized frame.
	a2, b2 := net.Pipe()
	conn2 := NewConn(b2)
	go func() {
		_, _ = a2.Write([]byte{0xff, 0xff, 0xff, 0xff})
		_ = a2.Close()
	}()
	if _, err := conn2.ReadMessage(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame error = %v", err)
	}

	// Invalid JSON.
	a3, b3 := net.Pipe()
	conn3 := NewConn(b3)
	go func() {
		_, _ = a3.Write([]byte{0, 0, 0, 3})
		_, _ = a3.Write([]byte("{{{"))
		_ = a3.Close()
	}()
	if _, err := conn3.ReadMessage(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad json error = %v", err)
	}

	// Missing type.
	a4, b4 := net.Pipe()
	conn4 := NewConn(b4)
	go func() {
		payload := []byte(`{}`)
		_, _ = a4.Write([]byte{0, 0, 0, byte(len(payload))})
		_, _ = a4.Write(payload)
		_ = a4.Close()
	}()
	if _, err := conn4.ReadMessage(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("missing type error = %v", err)
	}
}

func TestReadMessageWithBodyBadLength(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		m, _ := Encode(TypeClusterOK, ClusterPayload{Length: 10})
		_ = a.WriteMessage(m)
	}()
	if _, _, err := b.ReadMessageWithBodyPool(nil, func(Message) (int64, error) {
		return -1, nil
	}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("negative body error = %v", err)
	}
}

func TestWriteErrorAndAsError(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		_ = a.WriteError("title not found")
	}()
	got, err := b.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	rerr := AsError(got)
	if rerr == nil || rerr.Error() != "remote error: title not found" {
		t.Fatalf("AsError = %v", rerr)
	}
	if AsError(Message{Type: TypePong}) != nil {
		t.Fatal("AsError non-error message should be nil")
	}
}

func TestDialRealTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		defer c.Close()
		m, err := c.ReadMessage()
		if err != nil || m.Type != TypePing {
			t.Errorf("server read %v %v", m, err)
			return
		}
		pong, _ := Encode(TypePong, nil)
		_ = c.WriteMessage(pong)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ping, _ := Encode(TypePing, nil)
	if err := c.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	m, err := c.ReadMessage()
	if err != nil || m.Type != TypePong {
		t.Fatalf("got %v %v", m, err)
	}
	<-done
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestEncodeUnmarshalableFails(t *testing.T) {
	if _, err := Encode("x", func() {}); err == nil {
		t.Fatal("Encode accepted a function payload")
	}
}

func TestAddrBook(t *testing.T) {
	b := NewAddrBook()
	if _, err := b.Lookup("U1"); err == nil {
		t.Fatal("empty lookup succeeded")
	}
	b.Set("U2", "127.0.0.1:9000")
	b.Set("U1", "127.0.0.1:9001")
	addr, err := b.Lookup("U2")
	if err != nil || addr != "127.0.0.1:9000" {
		t.Fatalf("Lookup = %s, %v", addr, err)
	}
	nodes := b.Nodes()
	if len(nodes) != 2 || nodes[0] != "U1" {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	links := []topology.LinkID{"A--B", "B--C"}
	c.ChargePath(links, 100)
	c.ChargePath(links[:1], 50)
	c.ChargePath(links, -10) // ignored
	got, err := c.LinkOctets("A--B")
	if err != nil || got != 150 {
		t.Fatalf("A--B = %d, %v", got, err)
	}
	got, err = c.LinkOctets("B--C")
	if err != nil || got != 100 {
		t.Fatalf("B--C = %d, %v", got, err)
	}
	got, err = c.LinkOctets("unseen--link")
	if err != nil || got != 0 {
		t.Fatalf("unseen = %d, %v", got, err)
	}
}

// sizedStream records the receive-buffer size a Conn forwards to it.
type sizedStream struct {
	net.Conn
	size int
}

func (s *sizedStream) SetReadBuffer(bytes int) error {
	s.size = bytes
	return nil
}

// TestConnSetReadBuffer: the size reaches a stream that has a receive buffer
// and is a no-op on one that has none.
func TestConnSetReadBuffer(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	s := &sizedStream{Conn: a}
	c := NewConn(s)
	defer c.Close()
	if err := c.SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if s.size != 64<<10 {
		t.Fatalf("stream saw size %d, want %d", s.size, 64<<10)
	}
	plain, other := pipe()
	defer plain.Close()
	defer other.Close()
	if err := plain.SetReadBuffer(64 << 10); err != nil {
		t.Fatalf("pipe without a receive buffer: %v", err)
	}
}
