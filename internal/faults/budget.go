package faults

import "sync"

// RetryBudget bounds how many retries a session may spend, in
// the token-bucket style of Finagle's retry budgets: the session starts with
// a small reserve, each success deposits a fraction of a token, and every
// retry withdraws a whole one. Under a total outage the reserve drains and
// retries stop — a thousand sessions each replaying their whole stream
// against a dead peer is exactly the retry storm this prevents — while under
// a transient blip the steady deposit keeps retries available indefinitely.
// All methods are safe for concurrent use.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	ratio  float64
}

// NewRetryBudget builds a budget with an initial reserve of min tokens (also
// the floor of the cap; values below 1 are raised to 1) and a deposit of
// ratio tokens per reported success (clamped to [0, 1]). The cap is twice
// the reserve, so a long healthy run cannot bank unlimited retries.
func NewRetryBudget(min int, ratio float64) *RetryBudget {
	if min < 1 {
		min = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return &RetryBudget{tokens: float64(min), cap: float64(2 * min), ratio: ratio}
}

// OnSuccess deposits the per-success fraction, up to the cap.
func (b *RetryBudget) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
}

// TryRetry withdraws one token, reporting whether the retry may proceed.
func (b *RetryBudget) TryRetry() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens reports the current reserve (for tests and logs).
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
