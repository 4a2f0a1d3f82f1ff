package topology

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Snapshot is a point-in-time view of the network: the static graph plus the
// utilization fraction (used bandwidth / capacity, in [0, 1+]) of every link,
// as sampled by the SNMP statistics module. Snapshots are immutable once
// built and safe for concurrent use.
type Snapshot struct {
	graph *Graph
	util  map[LinkID]float64
	// weights caches the last WeightsView table; a snapshot is immutable,
	// so its weights for one K never change.
	weights atomic.Pointer[linkWeights]
}

// linkWeights is one cached cost table and the K it was computed with.
type linkWeights struct {
	k float64
	w map[LinkID]float64
}

// NewSnapshot pairs a graph with per-link utilization fractions. Links absent
// from util default to 0 (idle). Utilizations below 0 are clamped to 0;
// values above 1 are preserved (an overloaded link is worse than a full one,
// and the weighting should reflect that). Unknown link IDs in util are
// rejected.
func NewSnapshot(g *Graph, util map[LinkID]float64) (*Snapshot, error) {
	clean := make(map[LinkID]float64, len(util))
	for id, u := range util {
		if _, ok := g.links[id]; !ok {
			return nil, fmt.Errorf("utilization for unknown link: %w: %s", ErrLinkUnknown, id)
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("utilization for %s is not finite: %g", id, u)
		}
		if u < 0 {
			u = 0
		}
		clean[id] = u
	}
	return &Snapshot{graph: g, util: clean}, nil
}

// Graph returns the underlying static topology.
func (s *Snapshot) Graph() *Graph { return s.graph }

// Utilization returns the utilization fraction of a link (0 when unreported).
func (s *Snapshot) Utilization(id LinkID) float64 { return s.util[id] }

// UsedBandwidthMbps returns UBW for a link: utilization × capacity.
func (s *Snapshot) UsedBandwidthMbps(id LinkID) float64 {
	l, ok := s.graph.links[id]
	if !ok {
		return 0
	}
	return s.util[id] * l.CapacityMbps
}

// NodeValidation computes NV(n), equation (2): the ratio of summed used
// bandwidth to summed capacity over all links adjacent to n. A node with no
// links has NV 0.
func (s *Snapshot) NodeValidation(n NodeID) float64 {
	var used, total float64
	for _, id := range s.graph.adjacent[n] {
		used += s.UsedBandwidthMbps(id)
		total += s.graph.links[id].CapacityMbps
	}
	if total == 0 {
		return 0
	}
	return used / total
}

// LinkValue computes LV_i, equation (4): capacity normalized by K.
func (s *Snapshot) LinkValue(id LinkID, k float64) (float64, error) {
	l, ok := s.graph.links[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrLinkUnknown, id)
	}
	if k <= 0 {
		return 0, fmt.Errorf("normalization constant must be positive, got %g", k)
	}
	return l.CapacityMbps / k, nil
}

// LinkUtilizationTerm computes LU_i, equation (3): LT_i × LV_i.
func (s *Snapshot) LinkUtilizationTerm(id LinkID, k float64) (float64, error) {
	lv, err := s.LinkValue(id, k)
	if err != nil {
		return 0, err
	}
	return s.util[id] * lv, nil
}

// LVN computes the Link Validation Number of a link, equation (1):
// max(NV_a, NV_b) + LU_i. Larger means worse. The paper phrases the weights
// as "of negative value" but uses them as positive costs throughout its case
// study; we follow the case study (Dijkstra requires non-negative weights).
func (s *Snapshot) LVN(id LinkID, k float64) (float64, error) {
	l, ok := s.graph.links[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrLinkUnknown, id)
	}
	lu, err := s.LinkUtilizationTerm(id, k)
	if err != nil {
		return 0, err
	}
	return math.Max(s.NodeValidation(l.A), s.NodeValidation(l.B)) + lu, nil
}

// Weights computes the LVN of every link with normalization constant k,
// producing the cost table the VRA hands to Dijkstra.
func (s *Snapshot) Weights(k float64) (map[LinkID]float64, error) {
	out := make(map[LinkID]float64, len(s.graph.links))
	for id := range s.graph.links {
		w, err := s.LVN(id, k)
		if err != nil {
			return nil, err
		}
		out[id] = w
	}
	return out, nil
}

// WeightsView returns the same table as Weights, computed once per snapshot
// and normalization constant and shared by every caller: the planner asks
// for it on every cluster, and the published snapshot changes only when a
// link sample lands. The map is the snapshot's own: callers must not modify
// it.
func (s *Snapshot) WeightsView(k float64) (map[LinkID]float64, error) {
	if c := s.weights.Load(); c != nil && c.k == k {
		return c.w, nil
	}
	w, err := s.Weights(k)
	if err != nil {
		return nil, err
	}
	s.weights.Store(&linkWeights{k: k, w: w})
	return w, nil
}

// WithUtilization returns a new snapshot sharing the graph but with one
// link's utilization replaced. It is used by what-if evaluation (e.g. the
// VRA's continuous re-evaluation tests).
func (s *Snapshot) WithUtilization(id LinkID, u float64) (*Snapshot, error) {
	util := make(map[LinkID]float64, len(s.util)+1)
	for k, v := range s.util {
		util[k] = v
	}
	util[id] = u
	return NewSnapshot(s.graph, util)
}

// WithExtraUtilization returns a new snapshot sharing the graph with each
// link's utilization raised by extra[id] (a fraction of that link's
// capacity). The admission-aware planner uses it to fold broker-committed
// bandwidth into the SNMP view before weighting and QoS-checking routes.
func (s *Snapshot) WithExtraUtilization(extra map[LinkID]float64) (*Snapshot, error) {
	if len(extra) == 0 {
		return s, nil
	}
	util := make(map[LinkID]float64, len(s.util)+len(extra))
	for k, v := range s.util {
		util[k] = v
	}
	for k, v := range extra {
		util[k] += v
	}
	return NewSnapshot(s.graph, util)
}

// LinkReport is one row of a human-readable utilization table.
type LinkReport struct {
	Link         Link
	Utilization  float64
	UsedMbps     float64
	LVN          float64
	NVA, NVB, LU float64
}

// Report computes a per-link summary, sorted by link ID. It powers the CLI
// table printers.
func (s *Snapshot) Report(k float64) ([]LinkReport, error) {
	links := s.graph.LinksView()
	out := make([]LinkReport, 0, len(links))
	for _, l := range links {
		lu, err := s.LinkUtilizationTerm(l.ID, k)
		if err != nil {
			return nil, err
		}
		lvn, err := s.LVN(l.ID, k)
		if err != nil {
			return nil, err
		}
		out = append(out, LinkReport{
			Link:        l,
			Utilization: s.util[l.ID],
			UsedMbps:    s.UsedBandwidthMbps(l.ID),
			LVN:         lvn,
			NVA:         s.NodeValidation(l.A),
			NVB:         s.NodeValidation(l.B),
			LU:          lu,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Link.ID < out[j].Link.ID })
	return out, nil
}
