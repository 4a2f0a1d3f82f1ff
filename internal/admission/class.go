// Package admission implements per-server admission control and class-aware
// bandwidth management — the control-plane layer the paper leaves to "best
// effort". Each video server runs a bandwidth Broker that tracks committed
// megabits per node and per emulated link and applies a per-user-class
// policy: premium sessions may commit the whole node capacity, while lower
// classes are capped below it (trunk reservation), queue briefly for freed
// capacity, and fall back to a reduced bitrate before being rejected
// outright. The design follows the
// class-based bandwidth management literature on distributed VoD (see
// PAPERS.md): admission plus reservation is what keeps a saturated plant
// degrading gracefully instead of uniformly.
package admission

import (
	"fmt"
	"sort"
	"time"
)

// Class is a user service class.
type Class string

// The built-in service classes, best first.
const (
	// Premium sessions are never degraded and may use the full node
	// capacity.
	Premium Class = "premium"
	// Standard sessions accept one degradation step and are capped just
	// below full capacity, keeping headroom for premium arrivals.
	Standard Class = "standard"
	// Background sessions (prefetch, bulk replication, free tier) degrade
	// aggressively and may only use a fraction of the node.
	Background Class = "background"
)

// Classes lists the built-in classes, best first.
func Classes() []Class { return []Class{Premium, Standard, Background} }

// ParseClass maps a wire/flag string to a Class. The empty string means
// Standard, so class-unaware clients keep working.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "":
		return Standard, nil
	case Premium, Standard, Background:
		return Class(s), nil
	default:
		return "", fmt.Errorf("admission: unknown class %q", s)
	}
}

// Policy is one class's admission rules.
type Policy struct {
	// Priority orders classes; lower is better. Used for reporting only —
	// capacity protection comes from MaxShare.
	Priority int
	// MaxShare caps the node's total committed bandwidth (across all
	// classes) that an admission of this class may push it to, as a
	// fraction of capacity. Trunk reservation: a class with MaxShare 0.5
	// cannot commit the node past 50%, leaving the rest to better classes.
	MaxShare float64
	// DegradeSteps are bitrate multipliers tried in order when the full
	// rate does not fit (e.g. {0.75, 0.5}). Empty means never degrade.
	DegradeSteps []float64
	// QueueWindow is how long AdmitWait may hold a request waiting for
	// capacity or a session slot before rejecting it. Zero means reject
	// immediately.
	QueueWindow time.Duration
}

// DefaultPolicies returns the built-in three-class policy set.
func DefaultPolicies() map[Class]Policy {
	return map[Class]Policy{
		Premium: {
			Priority:    0,
			MaxShare:    1.0,
			QueueWindow: 2 * time.Second,
		},
		Standard: {
			Priority:     1,
			MaxShare:     0.85,
			DegradeSteps: []float64{0.75},
			QueueWindow:  time.Second,
		},
		Background: {
			Priority:     2,
			MaxShare:     0.5,
			DegradeSteps: []float64{0.75, 0.5},
			QueueWindow:  0,
		},
	}
}

// CalibratedLinkShare scales a class's MaxShare to one link's capacity: on a
// trunk where a single session is a large fraction of the pipe, a flat share
// under-protects better classes — a standard admission on a 2 Mbps link with
// share 0.85 can commit 1.7 Mbps and leave no room for a premium session at
// all. The calibrated share keeps at least one full-rate session of headroom:
//
//	calibrated = min(share, 1 − bitrate/capacity), clamped to ≥ 0
//
// A share of 1 (premium) is never reduced — the class entitled to the whole
// pipe must still fit on it. Wide backbone links are unaffected because
// bitrate/capacity is tiny there.
func CalibratedLinkShare(share, capacityMbps, bitrateMbps float64) float64 {
	if share >= 1 || capacityMbps <= 0 || bitrateMbps <= 0 {
		return share
	}
	cal := 1 - bitrateMbps/capacityMbps
	if cal < 0 {
		cal = 0
	}
	if cal < share {
		return cal
	}
	return share
}

func validatePolicies(ps map[Class]Policy) error {
	if len(ps) == 0 {
		return fmt.Errorf("admission: no class policies")
	}
	for c, p := range ps {
		if p.MaxShare <= 0 || p.MaxShare > 1 {
			return fmt.Errorf("admission: class %s MaxShare %g outside (0, 1]", c, p.MaxShare)
		}
		for _, f := range p.DegradeSteps {
			if f <= 0 || f >= 1 {
				return fmt.Errorf("admission: class %s degrade step %g outside (0, 1)", c, f)
			}
		}
		if p.QueueWindow < 0 {
			return fmt.Errorf("admission: class %s negative queue window", c)
		}
	}
	return nil
}

// sortedClasses returns the configured classes by priority then name, for
// deterministic reports.
func sortedClasses(ps map[Class]Policy) []Class {
	out := make([]Class, 0, len(ps))
	for c := range ps {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if ps[out[i]].Priority != ps[out[j]].Priority {
			return ps[out[i]].Priority < ps[out[j]].Priority
		}
		return out[i] < out[j]
	})
	return out
}
