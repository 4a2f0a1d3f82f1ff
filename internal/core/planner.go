package core

import (
	"errors"
	"fmt"

	"dvod/internal/db"
	"dvod/internal/topology"
)

// Planner binds a Selector to the database module: it resolves a title's
// candidate servers from the full-access catalog, builds the network
// snapshot from the limited-access link statistics, and delegates the
// choice. This is the application the paper describes as running "each time
// the user places a request".
type Planner struct {
	db       *db.DB
	selector Selector
	// available filters candidates (the VRA's "poll all of those servers
	// to find out which ones can provide the video" step). Nil admits all.
	available func(topology.NodeID) bool
	// committed reports broker-reserved Mbps per link, folded into the
	// network view by the bandwidth-aware planning path. Nil means no
	// reservations are tracked.
	committed func(topology.LinkID) float64
}

// NewPlanner builds a planner. The availability filter may be nil.
func NewPlanner(d *db.DB, s Selector, available func(topology.NodeID) bool) (*Planner, error) {
	if d == nil {
		return nil, errors.New("planner: nil db")
	}
	if s == nil {
		return nil, errors.New("planner: nil selector")
	}
	return &Planner{db: d, selector: s, available: available}, nil
}

// Selector returns the underlying policy.
func (p *Planner) Selector() Selector { return p.selector }

// SetCommitted installs a source of per-link committed bandwidth (normally
// an admission broker's LinkCommittedMbps). PlanBandwidth adds it on top of
// the SNMP-observed utilization so reserved-but-not-yet-visible sessions
// already weigh routes down.
func (p *Planner) SetCommitted(f func(topology.LinkID) float64) { p.committed = f }

// Candidates resolves the servers currently able to provide the title. It
// reads the catalog's published holder view — a lock-free atomic load — and
// returns a fresh slice the caller may reorder or filter in place.
func (p *Planner) Candidates(title string) ([]topology.NodeID, error) {
	holders, err := p.db.Catalog().HoldersView(title)
	if err != nil {
		return nil, err
	}
	out := make([]topology.NodeID, 0, len(holders))
	for _, h := range holders {
		if p.available == nil || p.available(h) {
			out = append(out, h)
		}
	}
	return out, nil
}

// Plan runs one selection for a client homed at home requesting the title.
func (p *Planner) Plan(home topology.NodeID, title string) (Decision, error) {
	return p.PlanExcluding(home, title, nil)
}

// PlanExcluding plans like Plan but additionally skips the listed servers —
// the retry path when a chosen server fails mid-delivery: its failed fetch
// excludes it and the next-best replica takes over, without waiting for any
// failure detector.
func (p *Planner) PlanExcluding(home topology.NodeID, title string, exclude map[topology.NodeID]bool) (Decision, error) {
	candidates, err := p.Candidates(title)
	if err != nil {
		return Decision{}, err
	}
	if len(exclude) > 0 {
		kept := candidates[:0]
		for _, c := range candidates {
			if !exclude[c] {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	if len(candidates) == 0 {
		return Decision{}, fmt.Errorf("%w: %s", ErrNoCandidates, title)
	}
	snap, err := p.db.Snapshot()
	if err != nil {
		return Decision{}, fmt.Errorf("plan snapshot: %w", err)
	}
	return p.selector.Select(snap, home, candidates)
}

// PlanBandwidth plans like PlanExcluding but is admission-aware: the network
// view folds in broker-committed bandwidth (SetCommitted), and candidates
// whose cheapest route lacks the residual headroom to carry bitrateMbps are
// skipped, next-cheapest first. It returns a *QoSError (wrapping
// ErrInsufficientBandwidth) when no replica's route can carry the rate.
func (p *Planner) PlanBandwidth(home topology.NodeID, title string, bitrateMbps float64,
	exclude map[topology.NodeID]bool) (Decision, error) {
	candidates, err := p.Candidates(title)
	if err != nil {
		return Decision{}, err
	}
	if len(exclude) > 0 {
		kept := candidates[:0]
		for _, c := range candidates {
			if !exclude[c] {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	if len(candidates) == 0 {
		return Decision{}, fmt.Errorf("%w: %s", ErrNoCandidates, title)
	}
	snap, err := p.db.Snapshot()
	if err != nil {
		return Decision{}, fmt.Errorf("plan snapshot: %w", err)
	}
	if p.committed != nil {
		extra := make(map[topology.LinkID]float64)
		for _, l := range snap.Graph().LinksView() {
			if mbps := p.committed(l.ID); mbps > 0 {
				extra[l.ID] = mbps / l.CapacityMbps
			}
		}
		if snap, err = snap.WithExtraUtilization(extra); err != nil {
			return Decision{}, fmt.Errorf("plan committed view: %w", err)
		}
	}
	return SelectWithQoS(p.selector, snap, home, candidates, bitrateMbps)
}
