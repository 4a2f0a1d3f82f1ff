// Package core implements the paper's primary contribution: the Virtual
// Routing Algorithm (VRA, Figure 5) that picks the video server each request
// is satisfied from, and the per-request session machinery that keeps
// re-running the VRA at every cluster boundary so an in-flight playback can
// switch servers when network conditions shift.
package core

import (
	"errors"
	"fmt"

	"dvod/internal/routing"
	"dvod/internal/topology"
)

// Errors reported by server selection.
var (
	ErrNoCandidates = errors.New("no server holds the title")
	ErrNoReachable  = errors.New("no candidate server reachable")
)

// Decision is the outcome of one selection: which server serves the next
// cluster(s) and over which route.
type Decision struct {
	// Server is the chosen video server.
	Server topology.NodeID
	// Path is the route from the chosen server to the client's home
	// server (stored home-first, the direction Dijkstra computed it).
	Path routing.Path
	// Cost is the LVN path cost (0 for local service).
	Cost float64
	// Local is true when the home server itself holds the title — the
	// VRA's short-circuit branch.
	Local bool
}

// Selector chooses a serving server for a client homed at a given node. The
// VRA and every baseline policy implement it.
type Selector interface {
	// Name identifies the policy for reports.
	Name() string
	// Select picks among candidates (servers that hold the title) for a
	// client attached to home, given the current network snapshot.
	Select(snap *topology.Snapshot, home topology.NodeID, candidates []topology.NodeID) (Decision, error)
}

// VRA is the paper's Virtual Routing Algorithm:
//
//  1. If the client's adjacent (home) server has the video, serve locally.
//  2. Otherwise compute each link's Link Validation Number (equations 1-4),
//     run Dijkstra from the home server, and among the candidate servers
//     pick the one whose least-cost path to the home server is cheapest.
type VRA struct {
	// NormalizationK is equation (4)'s constant; zero means the paper's
	// default of 10.
	NormalizationK float64
}

var _ Selector = VRA{}

// Name implements Selector.
func (VRA) Name() string { return "vra" }

// Select implements Selector with the Figure 5 procedure.
func (v VRA) Select(snap *topology.Snapshot, home topology.NodeID, candidates []topology.NodeID) (Decision, error) {
	if len(candidates) == 0 {
		return Decision{}, ErrNoCandidates
	}
	if !snap.Graph().HasNode(home) {
		return Decision{}, fmt.Errorf("%w: %s", routing.ErrUnknownNode, home)
	}
	for _, c := range candidates {
		if c == home {
			return Decision{
				Server: home,
				Path:   routing.Path{Nodes: []topology.NodeID{home}},
				Local:  true,
			}, nil
		}
	}
	k := v.NormalizationK
	if k == 0 {
		k = topology.DefaultNormalizationK
	}
	weights, err := snap.WeightsView(k)
	if err != nil {
		return Decision{}, fmt.Errorf("vra weights: %w", err)
	}
	best, err := routing.CheapestPath(snap.Graph(), routing.CostTable(weights), home, candidates)
	if err != nil {
		if errors.Is(err, routing.ErrUnreachable) {
			return Decision{}, fmt.Errorf("%w: %v", ErrNoReachable, err)
		}
		return Decision{}, fmt.Errorf("vra dijkstra: %w", err)
	}
	return Decision{Server: best.Dest(), Path: best, Cost: best.Cost}, nil
}

// SelectTrace runs the VRA like Select but also returns the Dijkstra step
// trace (nil when the decision was local), powering the Table 4/5 printers.
func (v VRA) SelectTrace(snap *topology.Snapshot, home topology.NodeID, candidates []topology.NodeID) (Decision, []routing.TraceStep, error) {
	if len(candidates) == 0 {
		return Decision{}, nil, ErrNoCandidates
	}
	for _, c := range candidates {
		if c == home {
			d, err := v.Select(snap, home, candidates)
			return d, nil, err
		}
	}
	k := v.NormalizationK
	if k == 0 {
		k = topology.DefaultNormalizationK
	}
	weights, err := snap.Weights(k)
	if err != nil {
		return Decision{}, nil, fmt.Errorf("vra weights: %w", err)
	}
	steps, tree, err := routing.DijkstraTrace(snap.Graph(), routing.CostTable(weights), home)
	if err != nil {
		return Decision{}, nil, fmt.Errorf("vra dijkstra: %w", err)
	}
	best, err := routing.CheapestTo(tree, candidates)
	if err != nil {
		if errors.Is(err, routing.ErrUnreachable) {
			return Decision{}, steps, fmt.Errorf("%w: %v", ErrNoReachable, err)
		}
		return Decision{}, steps, err
	}
	return Decision{Server: best.Dest(), Path: best, Cost: best.Cost}, steps, nil
}
