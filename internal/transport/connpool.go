package transport

import (
	"sync"
	"time"
)

// connPoolIdlePerKey caps how many idle connections a ConnPool keeps per key;
// a Put beyond it closes the connection instead.
const connPoolIdlePerKey = 4

// ConnPool keeps idle connections for reuse, a LIFO stack per caller-chosen
// key (the most recently used connection is the least likely to have been
// timed out by the far end). A connection is owned by exactly one goroutine
// between Get and Put; the pool only ever holds connections nobody is using.
// Idle age is checked lazily at Get — there is no reaper goroutine — and a
// closed pool closes whatever is Put into it, so stragglers returning after
// shutdown cannot leak a socket. All methods are safe for concurrent use.
type ConnPool struct {
	maxIdle time.Duration

	mu     sync.Mutex
	closed bool
	idle   map[string][]idleConn
}

type idleConn struct {
	c     *Conn
	since time.Time
}

// NewConnPool builds a pool that discards connections idle longer than
// maxIdle; set it below the far end's own idle timeout.
func NewConnPool(maxIdle time.Duration) *ConnPool {
	return &ConnPool{maxIdle: maxIdle, idle: make(map[string][]idleConn)}
}

// Get returns the most recently pooled connection for key, or nil when there
// is none young enough. The caller owns it until Put or Close.
func (p *ConnPool) Get(key string) *Conn {
	p.mu.Lock()
	stack := p.idle[key]
	if len(stack) == 0 {
		p.mu.Unlock()
		return nil
	}
	top := stack[len(stack)-1]
	if time.Since(top.since) <= p.maxIdle {
		p.idle[key] = stack[:len(stack)-1]
		p.mu.Unlock()
		return top.c
	}
	// The newest is too old, so everything beneath it is too.
	delete(p.idle, key)
	p.mu.Unlock()
	for _, ic := range stack {
		_ = ic.c.Close()
	}
	return nil
}

// Put parks a connection the caller is done with under key. Only a
// connection whose last exchange completed belongs here: the next user
// starts a fresh request on it. Beyond the per-key cap, or after Close, the
// connection is closed instead.
func (p *ConnPool) Put(key string, c *Conn) {
	p.mu.Lock()
	if !p.closed && len(p.idle[key]) < connPoolIdlePerKey {
		p.idle[key] = append(p.idle[key], idleConn{c: c, since: time.Now()})
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	_ = c.Close()
}

// Close closes every idle connection and makes later Puts close theirs.
// Connections currently out on a Get are their owners' to close. Idempotent.
func (p *ConnPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]idleConn)
	p.closed = true
	p.mu.Unlock()
	for _, stack := range idle {
		for _, ic := range stack {
			_ = ic.c.Close()
		}
	}
}
