package transport

import (
	"errors"
	"sync"

	"dvod/internal/metrics"
)

// Pipe-backed bodies: the home's relay hop without a copy. A cluster the
// home pulls from a peer is spliced from the peer's socket into a kernel pipe
// (ReadClusterReply) and from the pipe into the client's socket
// (WriteClusterBody), so its bytes never enter Go memory. On loopback the
// pipe holds references to the origin's pages rather than copies of them;
// that is safe because a stored block is written once and never rewritten in
// place (DESIGN.md § "The send path").

// splicePipe is one kernel pipe: its two descriptors, the bytes it holds right
// now, and the pool it returns to. Only the frame whose body it carries
// touches it, so it needs no lock.
type splicePipe struct {
	r, w int
	held int64
	pool *PipePool
}

// PipePool hands out kernel pipes sized for one cluster body and takes them
// back once they are empty. It is bounded: at most max pipes (two
// descriptors each) are open at once, idle or lent, and a Get beyond the
// bound — or one the kernel refuses (descriptor limit, pipe-user-pages-soft)
// — returns no pipe, so the caller reads the body through its pooled copy
// instead. A nil *PipePool never hands out a pipe. All methods are safe for
// concurrent use.
//
// Two counters tell where pipes went: transport.pipe_overflows counts bodies
// that overflowed their pipe and finished through the pooled copy, and
// transport.pipe_discards pipes closed while still holding bytes (a hedge
// loser's body, a send that broke off), in the registry the pool was built
// with.
type PipePool struct {
	// capacity is the size each pipe is grown to with F_SETPIPE_SZ.
	capacity int
	max      int

	overflows *metrics.Counter
	discards  *metrics.Counter

	mu     sync.Mutex
	idle   []*splicePipe
	open   int
	closed bool
}

// NewPipePool builds a pool of at most max pipes, each sized to carry a
// body of up to bodyBytes. A pipe slot holds one page fragment, and a socket
// hands a body over in fragments that need not fill their pages, so a pipe
// gets twice the body's size, and never less than the kernel's default 64
// KiB: a body that still overflows its pipe finishes through the pooled copy
// (see ReadClusterReply). The counters report into reg; nil allocates a
// private registry.
func NewPipePool(reg *metrics.Registry, max int, bodyBytes int64) *PipePool {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	capacity := 64 << 10
	for int64(capacity) < 2*bodyBytes && capacity < 1<<30 {
		capacity <<= 1
	}
	return &PipePool{
		capacity:  capacity,
		max:       max,
		overflows: reg.Counter("transport.pipe_overflows"),
		discards:  reg.Counter("transport.pipe_discards"),
		idle:      make([]*splicePipe, 0, max),
	}
}

// get returns an empty pipe, or nil when the pool is nil, closed, at its
// bound, or the kernel refuses a new pipe.
func (pp *PipePool) get() *splicePipe {
	if pp == nil {
		return nil
	}
	pp.mu.Lock()
	if n := len(pp.idle); n > 0 {
		p := pp.idle[n-1]
		pp.idle = pp.idle[:n-1]
		pp.mu.Unlock()
		return p
	}
	if pp.closed || pp.open >= pp.max {
		pp.mu.Unlock()
		return nil
	}
	pp.open++
	pp.mu.Unlock()
	r, w, err := newPipe(pp.capacity)
	if err != nil {
		pp.mu.Lock()
		pp.open--
		pp.mu.Unlock()
		return nil
	}
	return &splicePipe{r: r, w: w, pool: pp}
}

// put takes a pipe back: an empty one waits for the next get, one that
// still holds bytes — a hedge loser's, or a body whose send broke off — is
// closed, and so is every pipe put after Close.
func (pp *PipePool) put(p *splicePipe) {
	pp.mu.Lock()
	if p.held == 0 && !pp.closed {
		pp.idle = append(pp.idle, p)
		pp.mu.Unlock()
		return
	}
	pp.open--
	pp.mu.Unlock()
	if p.held != 0 {
		pp.discards.Inc()
	}
	closePipe(p.r, p.w)
}

// Close closes every idle pipe and makes later puts close theirs. Pipes
// still lent out close when their frames are released. Idempotent.
func (pp *PipePool) Close() {
	if pp == nil {
		return
	}
	pp.mu.Lock()
	idle := pp.idle
	pp.idle = nil
	pp.open -= len(idle)
	pp.closed = true
	pp.mu.Unlock()
	for _, p := range idle {
		closePipe(p.r, p.w)
	}
}

// Open reports how many pipes are open, idle or lent: a server whose
// sessions have all ended and that has been closed must read 0.
func (pp *PipePool) Open() int {
	if pp == nil {
		return 0
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.open
}

// errPipeShort reports a pipe that held fewer bytes than its frame's body.
var errPipeShort = errors.New("transport: pipe holds less than its body")
