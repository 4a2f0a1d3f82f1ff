package faults

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces jittered exponential retry delays: the nth delay is drawn
// uniformly from [base·factor^n/2, base·factor^n], capped at max. The lower
// half-window jitter ("equal jitter") keeps retries spread out so a burst of
// failures does not resynchronize into a retry storm, while still growing
// geometrically so a persistent fault backs callers off. All methods are safe
// for concurrent use; concurrent callers share one attempt sequence.
type Backoff struct {
	base   time.Duration
	max    time.Duration
	factor float64

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// NewBackoff builds a backoff schedule. base must be positive; max below base
// is raised to base; factor below 1 is raised to 2 (the conventional
// doubling). The seed pins the jitter sequence so retry timing is
// reproducible under a pinned fault plan.
func NewBackoff(base, max time.Duration, factor float64, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	if factor < 1 {
		factor = 2
	}
	return &Backoff{
		base:   base,
		max:    max,
		factor: factor,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Next returns the delay before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	ceil := float64(b.base)
	for i := 0; i < b.attempt; i++ {
		ceil *= b.factor
		if ceil >= float64(b.max) {
			ceil = float64(b.max)
			break
		}
	}
	b.attempt++
	half := ceil / 2
	d := time.Duration(half + b.rng.Float64()*half)
	if d > b.max {
		d = b.max
	}
	if d <= 0 {
		d = b.base
	}
	return d
}

// Reset rewinds the schedule to the first attempt (call after a success, so
// the next failure starts from the base delay again).
func (b *Backoff) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempt = 0
}

// Attempt reports how many delays have been handed out since the last Reset.
func (b *Backoff) Attempt() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempt
}
