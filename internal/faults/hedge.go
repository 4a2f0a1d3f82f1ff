package faults

import (
	"slices"
	"sync"
	"time"
)

// latencyWindow is how many recent samples a LatencyTracker keeps.
const latencyWindow = 128

// minHedgeSamples is how many samples must accumulate before the tracker
// trusts its percentile estimate over the configured floor.
const minHedgeSamples = 16

// deadlineRefresh is how many observations may pass before Deadline
// recomputes the percentile; in between it answers from the cached value.
// Deadline runs on every fetch, and one new sample in a 128-sample window
// moves a P99 too little to pay for a sort each time.
const deadlineRefresh = 16

// LatencyTracker derives the hedging deadline for cluster fetches from a
// sliding window of observed fetch latencies: a fetch still unanswered past
// the window's P99 is almost certainly stuck (a stalled peer, a dying
// connection), so racing a second replica then — and only then — buys tail
// latency without doubling steady-state load. All methods are safe for
// concurrent use.
type LatencyTracker struct {
	floor time.Duration

	mu      sync.Mutex
	samples [latencyWindow]time.Duration
	n       int // total observations (ring write position = n % latencyWindow)
	// cached is the deadline computed when the tracker held cachedAt
	// observations (zero: never computed); scratch is the sort buffer.
	cached   time.Duration
	cachedAt int
	scratch  [latencyWindow]time.Duration
}

// NewLatencyTracker builds a tracker whose deadline never drops below floor
// (non-positive floors default to 10 ms, so sub-millisecond LAN fetches do
// not hedge every request).
func NewLatencyTracker(floor time.Duration) *LatencyTracker {
	if floor <= 0 {
		floor = 10 * time.Millisecond
	}
	return &LatencyTracker{floor: floor}
}

// Observe records one successful fetch's latency.
func (t *LatencyTracker) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[t.n%latencyWindow] = d
	t.n++
}

// Deadline returns the current hedge deadline: the window's P99 (never below
// the floor). With fewer than minHedgeSamples observations it returns the
// floor — hedging conservatively until the estimate means something. The
// percentile is recomputed at most once per deadlineRefresh observations.
func (t *LatencyTracker) Deadline() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < minHedgeSamples {
		return t.floor
	}
	if t.cachedAt != 0 && t.n-t.cachedAt < deadlineRefresh {
		return t.cached
	}
	size := min(t.n, latencyWindow)
	sorted := t.scratch[:size]
	copy(sorted, t.samples[:size])
	slices.Sort(sorted)
	idx := min((size*99+99)/100, size) // ceil(0.99·size), 1-based rank
	t.cached = max(sorted[idx-1], t.floor)
	t.cachedAt = t.n
	return t.cached
}

// Samples reports how many latencies have been observed.
func (t *LatencyTracker) Samples() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
