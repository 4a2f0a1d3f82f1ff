package transport

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"dvod/internal/metrics"
)

// Buffer pool size classes: powers of two from 4 KiB to 64 MiB. Requests
// above the largest class are allocated directly and never pooled.
const (
	minPoolShift = 12 // 4 KiB
	maxPoolShift = 26 // 64 MiB
	numPoolSizes = maxPoolShift - minPoolShift + 1
)

// BufferPool recycles cluster-body buffers across the delivery plane. Reads
// lease a buffer for exactly one frame; releasing the frame returns the
// buffer for reuse, so a steady-state stream moves clusters with zero
// per-cluster allocation. Buffers are grouped into power-of-two size classes
// and handed out with len equal to the requested size (cap is the class
// size). All methods are safe for concurrent use.
//
// Hit/miss/return counts surface as the counters transport.pool_hits,
// transport.pool_misses, and transport.pool_returns in the registry the pool
// was built with (a server's pool reports on its GET /metrics endpoint).
type BufferPool struct {
	// classes holds, per size class, the first byte of each idle buffer's
	// array: a pointer fits an interface without the heap allocation a
	// slice header would need, so Put allocates nothing.
	classes [numPoolSizes]sync.Pool
	hits    *metrics.Counter
	misses  *metrics.Counter
	returns *metrics.Counter
	// outstanding counts leases not yet returned (Get minus Put), the
	// balance a leak check asserts on: every frame Release and every error
	// path must Put exactly what it Got.
	outstanding atomic.Int64
}

// NewBufferPool builds a pool reporting into reg; nil allocates a private
// registry (the counters still work, they are just not exported anywhere).
func NewBufferPool(reg *metrics.Registry) *BufferPool {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &BufferPool{
		hits:    reg.Counter("transport.pool_hits"),
		misses:  reg.Counter("transport.pool_misses"),
		returns: reg.Counter("transport.pool_returns"),
	}
}

// defaultPool backs clients that do not wire their own pool.
var defaultPool = NewBufferPool(nil)

// DefaultPool returns the process-wide shared pool.
func DefaultPool() *BufferPool { return defaultPool }

// sizeClass returns the class index for a request of n bytes, or -1 when the
// request is too large to pool.
func sizeClass(n int) int {
	if n > 1<<maxPoolShift {
		return -1
	}
	c := 0
	for n > 1<<(minPoolShift+c) {
		c++
	}
	return c
}

// Get leases a buffer of length n (n <= 0 yields an empty, non-nil buffer).
// The caller owns the buffer until it calls Put; the pool never hands the
// same buffer out twice concurrently.
func (p *BufferPool) Get(n int) []byte {
	p.outstanding.Add(1)
	if n <= 0 {
		return []byte{}
	}
	c := sizeClass(n)
	if c < 0 {
		p.misses.Inc()
		return make([]byte, n)
	}
	if v := p.classes[c].Get(); v != nil {
		p.hits.Inc()
		return unsafe.Slice(v.(*byte), 1<<(minPoolShift+c))[:n]
	}
	p.misses.Inc()
	return make([]byte, n, 1<<(minPoolShift+c))
}

// Put returns a buffer obtained from Get. Buffers whose capacity does not
// match a size class (including oversized direct allocations) are dropped.
// The caller must not use the buffer after Put.
func (p *BufferPool) Put(buf []byte) {
	p.outstanding.Add(-1)
	c := sizeClass(cap(buf))
	if c < 0 || cap(buf) != 1<<(minPoolShift+c) {
		return
	}
	p.returns.Inc()
	p.classes[c].Put(unsafe.SliceData(buf))
}

// Outstanding reports leases handed out by Get and not yet returned by Put.
// A quiesced pipeline (no in-flight frames) must read 0; anything else is a
// leaked lease. Buffers too large to pool still count — the balance tracks
// ownership, not recycling.
func (p *BufferPool) Outstanding() int64 { return p.outstanding.Load() }
