package transport

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolStream is an in-memory stream that records Close and lets a test claim
// exclusive use of it.
type poolStream struct {
	closed atomic.Bool
	inUse  atomic.Bool
}

func (*poolStream) Read([]byte) (int, error)    { return 0, io.EOF }
func (*poolStream) Write(p []byte) (int, error) { return len(p), nil }
func (s *poolStream) Close() error              { s.closed.Store(true); return nil }

func pooledConn() (*Conn, *poolStream) {
	s := &poolStream{}
	return NewConn(s), s
}

// TestConnPoolLIFOAndCap: the newest connection comes back first, keys do not
// mix, and a Put beyond the per-key cap closes the connection.
func TestConnPoolLIFOAndCap(t *testing.T) {
	p := NewConnPool(time.Hour)
	defer p.Close()
	if c := p.Get("a"); c != nil {
		t.Fatal("empty pool handed out a connection")
	}
	var conns []*Conn
	var streams []*poolStream
	for range connPoolIdlePerKey + 1 {
		c, s := pooledConn()
		conns, streams = append(conns, c), append(streams, s)
		p.Put("a", c)
	}
	for i, s := range streams {
		if want := i == connPoolIdlePerKey; s.closed.Load() != want {
			t.Fatalf("connection %d closed = %v, want %v", i, s.closed.Load(), want)
		}
	}
	if c := p.Get("b"); c != nil {
		t.Fatal("key b got a connection pooled under key a")
	}
	for i := connPoolIdlePerKey - 1; i >= 0; i-- {
		if c := p.Get("a"); c != conns[i] {
			t.Fatalf("Get #%d did not return the most recently pooled connection", connPoolIdlePerKey-i)
		}
	}
	if c := p.Get("a"); c != nil {
		t.Fatal("drained key still handed out a connection")
	}
}

// TestConnPoolIdleAge: a connection idle past the limit is closed at Get, not
// handed out (a negative limit makes every pooled connection too old).
func TestConnPoolIdleAge(t *testing.T) {
	p := NewConnPool(-1)
	defer p.Close()
	c1, s1 := pooledConn()
	c2, s2 := pooledConn()
	p.Put("a", c1)
	p.Put("a", c2)
	if c := p.Get("a"); c != nil {
		t.Fatal("expired connection handed out")
	}
	if !s1.closed.Load() || !s2.closed.Load() {
		t.Fatal("expired connections were not closed")
	}
}

// TestConnPoolClose: Close closes what is idle, a later Put closes its
// connection, and a second Close is harmless.
func TestConnPoolClose(t *testing.T) {
	p := NewConnPool(time.Hour)
	idle, idleStream := pooledConn()
	out, outStream := pooledConn()
	p.Put("a", idle)
	p.Put("a", out)
	if c := p.Get("a"); c != out {
		t.Fatal("Get did not return the newest connection")
	}
	p.Close()
	if !idleStream.closed.Load() {
		t.Fatal("Close left an idle connection open")
	}
	if outStream.closed.Load() {
		t.Fatal("Close closed a connection that was out on a Get")
	}
	p.Put("a", out)
	if !outStream.closed.Load() {
		t.Fatal("Put after Close pooled the connection")
	}
	if c := p.Get("a"); c != nil {
		t.Fatal("closed pool handed out a connection")
	}
	p.Close()
}

// TestConnPoolExclusiveOwnership hammers one key from many goroutines: a
// connection obtained from Get must never be one another goroutine holds.
func TestConnPoolExclusiveOwnership(t *testing.T) {
	p := NewConnPool(time.Hour)
	var mu sync.Mutex
	streams := make(map[*Conn]*poolStream)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				c := p.Get("k")
				if c == nil {
					var s *poolStream
					c, s = pooledConn()
					mu.Lock()
					streams[c] = s
					mu.Unlock()
				}
				mu.Lock()
				s := streams[c]
				mu.Unlock()
				if !s.inUse.CompareAndSwap(false, true) {
					t.Error("pool handed out a connection another goroutine holds")
					return
				}
				if s.closed.Load() {
					t.Error("pool handed out a closed connection")
				}
				s.inUse.Store(false)
				p.Put("k", c)
			}
		}()
	}
	wg.Wait()
	p.Close()
	for _, s := range streams {
		if !s.closed.Load() {
			t.Fatal("a connection survived the pool's Close")
		}
	}
}
