package faults

import (
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/metrics"
)

func TestBackoffGrowthAndJitterBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	bo := NewBackoff(base, max, 2, 1)
	ceil := float64(base)
	for i := 0; i < 8; i++ {
		d := bo.Next()
		if float64(d) < ceil/2 || float64(d) > ceil {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d,
				time.Duration(ceil/2), time.Duration(ceil))
		}
		ceil *= 2
		if ceil > float64(max) {
			ceil = float64(max)
		}
	}
	if got := bo.Attempt(); got != 8 {
		t.Fatalf("attempts = %d, want 8", got)
	}
	bo.Reset()
	if d := bo.Next(); d > base {
		t.Fatalf("post-reset delay %v exceeds base %v", d, base)
	}
}

func TestBackoffSeedPinned(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		bo := NewBackoff(time.Millisecond, 50*time.Millisecond, 2, seed)
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = bo.Next()
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBreakerAutomaton(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	reg := metrics.NewRegistry()
	s := NewBreakerSet(BreakerConfig{Failures: 3, Cooldown: 100 * time.Millisecond, Clock: vc, Metrics: reg})

	// Closed: failures below the threshold keep requests flowing.
	if !s.Allow("B") {
		t.Fatal("closed breaker refused")
	}
	s.Report("B", false)
	s.Report("B", false)
	if s.State("B") != BreakerClosed {
		t.Fatalf("state after 2 failures = %v", s.State("B"))
	}
	// A success resets the consecutive-failure count.
	s.Report("B", true)
	s.Report("B", false)
	s.Report("B", false)
	if s.State("B") != BreakerClosed {
		t.Fatal("success did not reset the failure count")
	}
	// The third consecutive failure trips it open.
	s.Report("B", false)
	if s.State("B") != BreakerOpen {
		t.Fatalf("state after trip = %v", s.State("B"))
	}
	if g := reg.Snapshot().Gauges["client.breaker_state.B"]; g != float64(BreakerOpen) {
		t.Fatalf("exported gauge = %v, want %v", g, float64(BreakerOpen))
	}
	if s.Allow("B") {
		t.Fatal("open breaker allowed inside cooldown")
	}
	if open := s.Open(); !open["B"] {
		t.Fatalf("Open() = %v, want B refusing", open)
	}

	// Cooldown elapsed: no longer listed as refusing; the first Allow is the
	// single half-open probe, the second must wait for its outcome.
	vc.Advance(101 * time.Millisecond)
	if open := s.Open(); open["B"] {
		t.Fatal("cooldown-elapsed breaker still listed as refusing")
	}
	if !s.Allow("B") {
		t.Fatal("half-open probe refused")
	}
	if s.State("B") != BreakerHalfOpen {
		t.Fatalf("state during probe = %v", s.State("B"))
	}
	if s.Allow("B") {
		t.Fatal("second concurrent probe allowed")
	}
	// A failed probe re-opens for a fresh cooldown.
	s.Report("B", false)
	if s.State("B") != BreakerOpen || s.Allow("B") {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// Next cooldown, successful probe closes it.
	vc.Advance(101 * time.Millisecond)
	if !s.Allow("B") {
		t.Fatal("second probe refused")
	}
	s.Report("B", true)
	if s.State("B") != BreakerClosed {
		t.Fatalf("state after successful probe = %v", s.State("B"))
	}
	if !s.Allow("B") {
		t.Fatal("closed breaker refused after recovery")
	}
	if g := reg.Snapshot().Gauges["client.breaker_state.B"]; g != float64(BreakerClosed) {
		t.Fatalf("exported gauge = %v, want %v", g, float64(BreakerClosed))
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(3, 0.1)
	if got := b.Tokens(); got != 3 {
		t.Fatalf("initial tokens = %v", got)
	}
	for i := 0; i < 3; i++ {
		if !b.TryRetry() {
			t.Fatalf("retry %d refused with reserve left", i)
		}
	}
	if b.TryRetry() {
		t.Fatal("retry allowed with drained reserve")
	}
	// Eleven successes bank a whole token (eleven, not ten: 10 × 0.1 sums
	// just under 1.0 in floating point).
	for i := 0; i < 11; i++ {
		b.OnSuccess()
	}
	if !b.TryRetry() {
		t.Fatal("deposited token not spendable")
	}
	// The cap is twice the reserve.
	for i := 0; i < 1000; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 6 {
		t.Fatalf("capped tokens = %v, want 6", got)
	}
	// Degenerate reserves are raised to one token.
	if got := NewRetryBudget(0, 0.1).Tokens(); got != 1 {
		t.Fatalf("floor tokens = %v, want 1", got)
	}
}

func TestLatencyTrackerDeadline(t *testing.T) {
	tr := NewLatencyTracker(0)
	if got := tr.Deadline(); got != 10*time.Millisecond {
		t.Fatalf("default floor = %v", got)
	}
	// Below minHedgeSamples the estimate is not trusted.
	for i := 0; i < minHedgeSamples-1; i++ {
		tr.Observe(50 * time.Millisecond)
	}
	if got := tr.Deadline(); got != 10*time.Millisecond {
		t.Fatalf("deadline before enough samples = %v, want floor", got)
	}
	// One more sample and the P99 (the window max here) takes over.
	tr.Observe(50 * time.Millisecond)
	if got := tr.Deadline(); got != 50*time.Millisecond {
		t.Fatalf("deadline = %v, want 50ms", got)
	}
	// The percentile is recomputed once per deadlineRefresh observations:
	// slower samples show in the deadline only when the cadence comes round.
	for i := 0; i < deadlineRefresh-1; i++ {
		tr.Observe(100 * time.Millisecond)
	}
	if got := tr.Deadline(); got != 50*time.Millisecond {
		t.Fatalf("deadline inside the refresh cadence = %v, want the cached 50ms", got)
	}
	tr.Observe(100 * time.Millisecond)
	if got := tr.Deadline(); got != 100*time.Millisecond {
		t.Fatalf("deadline at the refresh = %v, want 100ms", got)
	}
	// A fast window never hedges below the floor.
	fast := NewLatencyTracker(20 * time.Millisecond)
	for i := 0; i < 2*latencyWindow; i++ {
		fast.Observe(time.Millisecond)
	}
	if got := fast.Deadline(); got != 20*time.Millisecond {
		t.Fatalf("fast-window deadline = %v, want floor 20ms", got)
	}
	// The window slides: old outliers age out.
	for i := 0; i < latencyWindow; i++ {
		tr.Observe(time.Millisecond)
	}
	if got := tr.Deadline(); got != 10*time.Millisecond {
		t.Fatalf("deadline after outlier aged out = %v, want floor", got)
	}
}
