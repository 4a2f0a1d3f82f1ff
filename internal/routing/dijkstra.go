// Package routing implements the shortest-path machinery of the Virtual
// Routing Algorithm: Dijkstra's algorithm over LVN-weighted links, with an
// optional per-step trace that reproduces the tabular presentation of the
// paper's case study (Tables 4 and 5), and a Bellman-Ford implementation used
// as an independent cross-check in tests.
package routing

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dvod/internal/topology"
)

// CostTable maps every link to its non-negative routing cost (the LVN).
type CostTable map[topology.LinkID]float64

// Errors reported by the routing package.
var (
	ErrNegativeWeight = errors.New("negative link weight")
	ErrMissingWeight  = errors.New("link missing from cost table")
	ErrUnreachable    = errors.New("destination unreachable")
	ErrUnknownNode    = errors.New("node not in graph")
)

// Path is a loop-free route through the overlay.
type Path struct {
	Nodes []topology.NodeID `json:"nodes"`
	Cost  float64           `json:"cost"`
}

// Source returns the first node of the path.
func (p Path) Source() topology.NodeID {
	if len(p.Nodes) == 0 {
		return ""
	}
	return p.Nodes[0]
}

// Dest returns the last node of the path.
func (p Path) Dest() topology.NodeID {
	if len(p.Nodes) == 0 {
		return ""
	}
	return p.Nodes[len(p.Nodes)-1]
}

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Links returns the canonical IDs of the links the path traverses, in order.
func (p Path) Links() []topology.LinkID {
	if len(p.Nodes) < 2 {
		return nil
	}
	out := make([]topology.LinkID, 0, len(p.Nodes)-1)
	for i := 1; i < len(p.Nodes); i++ {
		out = append(out, topology.MakeLinkID(p.Nodes[i-1], p.Nodes[i]))
	}
	return out
}

// Reverse returns the path traversed in the opposite direction (same cost;
// links are bidirectional).
func (p Path) Reverse() Path {
	nodes := make([]topology.NodeID, len(p.Nodes))
	for i, n := range p.Nodes {
		nodes[len(nodes)-1-i] = n
	}
	return Path{Nodes: nodes, Cost: p.Cost}
}

// String renders the path the way the paper writes routes: "U2,U1,U6,U5".
func (p Path) String() string {
	if len(p.Nodes) == 0 {
		return "<empty>"
	}
	s := string(p.Nodes[0])
	for _, n := range p.Nodes[1:] {
		s += "," + string(n)
	}
	return s
}

// Tree is the single-source shortest-path tree produced by Dijkstra.
type Tree struct {
	Source topology.NodeID
	Dist   map[topology.NodeID]float64
	Prev   map[topology.NodeID]topology.NodeID
}

// Reachable reports whether dst has a finite-cost path from the source.
func (t *Tree) Reachable(dst topology.NodeID) bool {
	d, ok := t.Dist[dst]
	return ok && !math.IsInf(d, 1)
}

// PathTo reconstructs the least-cost path from the tree's source to dst.
func (t *Tree) PathTo(dst topology.NodeID) (Path, error) {
	d, ok := t.Dist[dst]
	if !ok {
		return Path{}, fmt.Errorf("%w: %s", ErrUnknownNode, dst)
	}
	if math.IsInf(d, 1) {
		return Path{}, fmt.Errorf("%w: %s from %s", ErrUnreachable, dst, t.Source)
	}
	hops := 0
	for n := dst; n != t.Source; n = t.Prev[n] {
		hops++
	}
	nodes := make([]topology.NodeID, hops+1)
	for n, k := dst, hops; k >= 0; n, k = t.Prev[n], k-1 {
		nodes[k] = n
	}
	return Path{Nodes: nodes, Cost: d}, nil
}

// checkWeights validates that every graph link has a finite non-negative cost.
func checkWeights(g *topology.Graph, weights CostTable) error {
	for _, l := range g.LinksView() {
		w, ok := weights[l.ID]
		if !ok {
			return fmt.Errorf("%w: %s", ErrMissingWeight, l.ID)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("weight for %s is not finite: %g", l.ID, w)
		}
		if w < 0 {
			return fmt.Errorf("%w: %s = %g", ErrNegativeWeight, l.ID, w)
		}
	}
	return nil
}

// ShortestPaths runs Dijkstra's algorithm from source over the given link
// costs and returns the full shortest-path tree.
func ShortestPaths(g *topology.Graph, weights CostTable, source topology.NodeID) (*Tree, error) {
	tree, _, err := dijkstra(g, weights, source, false)
	return tree, err
}

// CheapestPath runs Dijkstra from source and returns the least-cost path to
// the cheapest reachable candidate: the same answer as ShortestPaths followed
// by CheapestTo, without building the tree. It is the per-request planning
// call, so its scratch space is reused across calls.
func CheapestPath(g *topology.Graph, weights CostTable, source topology.NodeID, candidates []topology.NodeID) (Path, error) {
	s, err := startSearch(g, weights, source)
	if err != nil {
		return Path{}, err
	}
	defer s.release()
	s.run(weights, nil)
	best := -1
	for _, c := range candidates {
		i, ok := g.NodeOrdinal(c)
		if !ok || math.IsInf(s.dist[i], 1) {
			continue
		}
		if best < 0 || s.dist[i] < s.dist[best] || (s.dist[i] == s.dist[best] && c < g.NodeAt(best)) {
			best = i
		}
	}
	if best < 0 {
		return Path{}, fmt.Errorf("%w: no candidate reachable from %s", ErrUnreachable, source)
	}
	return Path{Nodes: s.pathTo(best), Cost: s.dist[best]}, nil
}

// TraceStep is one row of the paper's Dijkstra walk-through: after the
// step-th node is made permanent, the tentative label of every non-source
// node. Unreachable nodes carry Reachable=false (printed "R" in the paper).
type TraceStep struct {
	Step      int
	Permanent []topology.NodeID // in the order they became permanent
	Labels    map[topology.NodeID]Label
}

// Label is a tentative Dijkstra label: the best-known distance and path.
type Label struct {
	Reachable bool
	Dist      float64
	Path      []topology.NodeID
}

// DijkstraTrace runs Dijkstra like ShortestPaths but additionally records the
// tentative-label table after every permanent-set extension, matching the
// presentation of Tables 4 and 5 in the paper.
func DijkstraTrace(g *topology.Graph, weights CostTable, source topology.NodeID) ([]TraceStep, *Tree, error) {
	tree, steps, err := dijkstra(g, weights, source, true)
	return steps, tree, err
}

// search is the scratch space of one Dijkstra run, indexed by node ordinal
// (topology.Graph.NodeOrdinal) and reused across runs through searchPool.
type search struct {
	g    *topology.Graph
	src  int
	dist []float64
	prev []int // predecessor ordinal; -1 for the source and unreached nodes
	heap []int // ordinals, a binary min-heap on (dist, node ID)
	pos  []int // ordinal → index in heap; -1 when not queued
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// startSearch validates the inputs and returns scratch space sized for g
// with only the source labelled.
func startSearch(g *topology.Graph, weights CostTable, source topology.NodeID) (*search, error) {
	src, ok := g.NodeOrdinal(source)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, source)
	}
	if err := checkWeights(g, weights); err != nil {
		return nil, err
	}
	s := searchPool.Get().(*search)
	n := g.NumNodes()
	s.g, s.src = g, src
	s.dist = slices.Grow(s.dist[:0], n)[:n]
	s.prev = slices.Grow(s.prev[:0], n)[:n]
	s.pos = slices.Grow(s.pos[:0], n)[:n]
	s.heap = s.heap[:0]
	for i := range n {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
		s.pos[i] = -1
	}
	s.dist[src] = 0
	return s, nil
}

// release returns the scratch space to the pool.
func (s *search) release() {
	s.g = nil
	searchPool.Put(s)
}

// run makes every reachable node permanent, in (distance, node ID) order,
// calling permanent (when non-nil) after each one.
func (s *search) run(weights CostTable, permanent func(n int)) {
	g := s.g
	s.push(s.src)
	for len(s.heap) > 0 {
		n := s.pop()
		node := g.NodeAt(n)
		// Weights are non-negative, so a node already made permanent is
		// never relaxed again: its distance is at most dist[n].
		for _, lid := range g.AdjacentView(node) {
			l, _ := g.LinkByID(lid)
			m, _ := g.NodeOrdinal(l.Other(node))
			if alt := s.dist[n] + weights[lid]; alt < s.dist[m] {
				s.dist[m] = alt
				s.prev[m] = n
				if s.pos[m] >= 0 {
					s.up(s.pos[m])
				} else {
					s.push(m)
				}
			}
		}
		if permanent != nil {
			permanent(n)
		}
	}
}

// pathTo returns the labelled path from the source to the reached node i.
func (s *search) pathTo(i int) []topology.NodeID {
	hops := 0
	for m := i; m != s.src; m = s.prev[m] {
		hops++
	}
	nodes := make([]topology.NodeID, hops+1)
	for m, k := i, hops; k >= 0; m, k = s.prev[m], k-1 {
		nodes[k] = s.g.NodeAt(m)
	}
	return nodes
}

// tree copies the labels into a Tree.
func (s *search) tree() *Tree {
	n := len(s.dist)
	t := &Tree{
		Source: s.g.NodeAt(s.src),
		Dist:   make(map[topology.NodeID]float64, n),
		Prev:   make(map[topology.NodeID]topology.NodeID, n),
	}
	for i := range n {
		node := s.g.NodeAt(i)
		t.Dist[node] = s.dist[i]
		if s.prev[i] >= 0 {
			t.Prev[node] = s.g.NodeAt(s.prev[i])
		}
	}
	return t
}

func (s *search) less(a, b int) bool {
	if s.dist[a] != s.dist[b] {
		return s.dist[a] < s.dist[b]
	}
	return s.g.NodeAt(a) < s.g.NodeAt(b) // deterministic tie-break
}

func (s *search) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = i
	s.pos[s.heap[j]] = j
}

func (s *search) push(n int) {
	s.pos[n] = len(s.heap)
	s.heap = append(s.heap, n)
	s.up(len(s.heap) - 1)
}

func (s *search) pop() int {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.swap(0, last)
	s.heap = s.heap[:last]
	s.pos[top] = -1
	s.down(0)
	return top
}

func (s *search) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *search) down(i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(s.heap) && s.less(s.heap[c], s.heap[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		s.swap(i, least)
		i = least
	}
}

func dijkstra(g *topology.Graph, weights CostTable, source topology.NodeID, trace bool) (*Tree, []TraceStep, error) {
	s, err := startSearch(g, weights, source)
	if err != nil {
		return nil, nil, err
	}
	defer s.release()
	var steps []TraceStep
	var permanent []topology.NodeID
	var onPermanent func(int)
	if trace {
		onPermanent = func(n int) {
			permanent = append(permanent, g.NodeAt(n))
			steps = append(steps, s.step(permanent))
		}
	}
	s.run(weights, onPermanent)
	return s.tree(), steps, nil
}

// step copies the tentative labels of all non-source nodes.
func (s *search) step(permanent []topology.NodeID) TraceStep {
	g := s.g
	step := TraceStep{
		Step:      len(permanent),
		Permanent: append([]topology.NodeID(nil), permanent...),
		Labels:    make(map[topology.NodeID]Label, g.NumNodes()-1),
	}
	for _, n := range g.NodesView() {
		i, _ := g.NodeOrdinal(n)
		if i == s.src {
			continue
		}
		if math.IsInf(s.dist[i], 1) {
			step.Labels[n] = Label{Reachable: false}
			continue
		}
		step.Labels[n] = Label{Reachable: true, Dist: s.dist[i], Path: s.pathTo(i)}
	}
	return step
}

// BellmanFord computes single-source shortest paths by edge relaxation. It is
// O(V·E) and exists as an independent oracle for cross-checking Dijkstra in
// tests and for graphs whose weights might be negative (it reports negative
// cycles instead of looping).
func BellmanFord(g *topology.Graph, weights CostTable, source topology.NodeID) (*Tree, error) {
	if !g.HasNode(source) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, source)
	}
	for _, l := range g.Links() {
		if _, ok := weights[l.ID]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrMissingWeight, l.ID)
		}
	}
	dist := make(map[topology.NodeID]float64, g.NumNodes())
	prev := make(map[topology.NodeID]topology.NodeID, g.NumNodes())
	nodes := g.Nodes()
	for _, n := range nodes {
		dist[n] = math.Inf(1)
	}
	dist[source] = 0
	links := g.Links()
	for range nodes {
		changed := false
		for _, l := range links {
			w := weights[l.ID]
			if dist[l.A]+w < dist[l.B] {
				dist[l.B] = dist[l.A] + w
				prev[l.B] = l.A
				changed = true
			}
			if dist[l.B]+w < dist[l.A] {
				dist[l.A] = dist[l.B] + w
				prev[l.A] = l.B
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// One more pass detects negative cycles.
	for _, l := range links {
		w := weights[l.ID]
		if dist[l.A]+w < dist[l.B]-1e-12 || dist[l.B]+w < dist[l.A]-1e-12 {
			return nil, errors.New("negative cycle detected")
		}
	}
	return &Tree{Source: source, Dist: dist, Prev: prev}, nil
}

// MinHopWeights returns a cost table assigning every link cost 1, the
// baseline "shortest path by hop count" policy.
func MinHopWeights(g *topology.Graph) CostTable {
	out := make(CostTable, g.NumLinks())
	for _, l := range g.Links() {
		out[l.ID] = 1
	}
	return out
}

// CheapestTo selects, among the candidate destinations, the one with the
// least-cost path from the tree's source. Ties break toward the
// lexicographically smaller node ID for determinism. It returns
// ErrUnreachable when no candidate is reachable.
func CheapestTo(t *Tree, candidates []topology.NodeID) (Path, error) {
	sorted := append([]topology.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	best := Path{Cost: math.Inf(1)}
	found := false
	for _, c := range sorted {
		if !t.Reachable(c) {
			continue
		}
		p, err := t.PathTo(c)
		if err != nil {
			continue
		}
		if p.Cost < best.Cost {
			best = p
			found = true
		}
	}
	if !found {
		return Path{}, fmt.Errorf("%w: no candidate reachable from %s", ErrUnreachable, t.Source)
	}
	return best, nil
}
