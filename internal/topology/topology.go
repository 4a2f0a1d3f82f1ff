// Package topology models the VoD overlay network: named nodes (video
// servers / routers) joined by bidirectional links with fixed capacity, plus
// point-in-time utilization snapshots. It implements the paper's link
// validation equations (1)-(4), which turn a snapshot into the per-link
// weights consumed by the Virtual Routing Algorithm:
//
//	NV(a)  = Σ UBW_m / Σ LBW_m   over links m adjacent to node a      (2)
//	LV_i   = capacity_Mbps(i)/K   with normalization constant K ≈ 10  (4)
//	LU_i   = LT_i · LV_i          LT = utilization fraction           (3)
//	LVN_i  = max(NV_a, NV_b) + LU_i                                   (1)
package topology

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// DefaultNormalizationK is the paper's suggested normalization constant for
// equation (4): "an integer with a value approaching 10".
const DefaultNormalizationK = 10.0

// NodeID names a network node (a video server site such as "Athens").
type NodeID string

// LinkID is the canonical identifier of a bidirectional link: the two
// endpoint IDs sorted lexicographically and joined by "--".
type LinkID string

// MakeLinkID builds the canonical LinkID for the unordered pair {a, b}.
func MakeLinkID(a, b NodeID) LinkID {
	if b < a {
		a, b = b, a
	}
	return LinkID(string(a) + "--" + string(b))
}

// Endpoints splits a LinkID back into its two endpoints.
func (id LinkID) Endpoints() (NodeID, NodeID, error) {
	a, b, ok := strings.Cut(string(id), "--")
	if !ok || a == "" || b == "" {
		return "", "", fmt.Errorf("malformed link id %q", id)
	}
	return NodeID(a), NodeID(b), nil
}

// Link is a bidirectional network connection with a fixed total capacity.
type Link struct {
	ID           LinkID  `json:"id"`
	A            NodeID  `json:"a"`
	B            NodeID  `json:"b"`
	CapacityMbps float64 `json:"capacityMbps"`
}

// Other returns the endpoint of l that is not n. It returns "" when n is not
// an endpoint of l.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		return ""
	}
}

// HasEndpoint reports whether n is one of the link's endpoints.
func (l Link) HasEndpoint(n NodeID) bool { return n == l.A || n == l.B }

// Errors reported by graph construction and lookup.
var (
	ErrNodeExists   = errors.New("node already exists")
	ErrNodeUnknown  = errors.New("node unknown")
	ErrLinkExists   = errors.New("link already exists")
	ErrLinkUnknown  = errors.New("link unknown")
	ErrSelfLoop     = errors.New("self loop not allowed")
	ErrBadCapacity  = errors.New("link capacity must be positive")
	ErrDisconnected = errors.New("graph is not connected")
)

// Graph is the static overlay topology: the node set and capacitated links.
// Build it once with AddNode/AddLink; afterwards it is safe for concurrent
// readers. Mutating methods are not safe to call concurrently with readers.
//
// The sorted node and link lists are kept up to date by AddNode/AddLink, so
// per-request readers (the planner, Dijkstra) walk them through the
// non-copying NodesView/LinksView/AdjacentView instead of rebuilding and
// sorting a copy on every call. Every node also has a dense ordinal (its
// insertion order, see NodeOrdinal) for indexing per-call scratch space.
type Graph struct {
	nodes    map[NodeID]int // node → ordinal
	ordinals []NodeID       // ordinal → node
	sorted   []NodeID
	links    map[LinkID]Link
	linkList []Link              // sorted by ID
	adjacent map[NodeID][]LinkID // sorted for determinism
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes:    make(map[NodeID]int),
		links:    make(map[LinkID]Link),
		adjacent: make(map[NodeID][]LinkID),
	}
}

// AddNode adds a node to the graph.
func (g *Graph) AddNode(n NodeID) error {
	if n == "" {
		return errors.New("empty node id")
	}
	if _, ok := g.nodes[n]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, n)
	}
	g.nodes[n] = len(g.ordinals)
	g.ordinals = append(g.ordinals, n)
	i, _ := slices.BinarySearch(g.sorted, n)
	g.sorted = slices.Insert(g.sorted, i, n)
	return nil
}

// AddLink adds a bidirectional link between two existing nodes and returns
// its canonical ID.
func (g *Graph) AddLink(a, b NodeID, capacityMbps float64) (LinkID, error) {
	if a == b {
		return "", fmt.Errorf("%w: %s", ErrSelfLoop, a)
	}
	if _, ok := g.nodes[a]; !ok {
		return "", fmt.Errorf("%w: %s", ErrNodeUnknown, a)
	}
	if _, ok := g.nodes[b]; !ok {
		return "", fmt.Errorf("%w: %s", ErrNodeUnknown, b)
	}
	if capacityMbps <= 0 {
		return "", fmt.Errorf("%w: %s-%s capacity %g", ErrBadCapacity, a, b, capacityMbps)
	}
	id := MakeLinkID(a, b)
	if _, ok := g.links[id]; ok {
		return "", fmt.Errorf("%w: %s", ErrLinkExists, id)
	}
	la, lb := a, b
	if lb < la {
		la, lb = lb, la
	}
	l := Link{ID: id, A: la, B: lb, CapacityMbps: capacityMbps}
	g.links[id] = l
	i, _ := slices.BinarySearchFunc(g.linkList, id, func(x Link, id LinkID) int { return cmp.Compare(x.ID, id) })
	g.linkList = slices.Insert(g.linkList, i, l)
	g.insertAdjacent(a, id)
	g.insertAdjacent(b, id)
	return id, nil
}

func (g *Graph) insertAdjacent(n NodeID, id LinkID) {
	adj := g.adjacent[n]
	i, _ := slices.BinarySearch(adj, id)
	g.adjacent[n] = slices.Insert(adj, i, id)
}

// HasNode reports whether n is in the graph.
func (g *Graph) HasNode(n NodeID) bool {
	_, ok := g.nodes[n]
	return ok
}

// Nodes returns a copy of the node set in sorted order.
func (g *Graph) Nodes() []NodeID { return slices.Clone(g.sorted) }

// NodesView returns the node set in sorted order without copying it. The
// slice is the graph's own: callers must not modify it, and it is valid
// until the graph is next mutated.
func (g *Graph) NodesView() []NodeID { return g.sorted }

// NodeOrdinal returns n's ordinal: a dense index in [0, NumNodes) that
// stays fixed for the graph's lifetime, for indexing per-node scratch space.
func (g *Graph) NodeOrdinal(n NodeID) (int, bool) {
	i, ok := g.nodes[n]
	return i, ok
}

// NodeAt returns the node with ordinal i (see NodeOrdinal).
func (g *Graph) NodeAt(i int) NodeID { return g.ordinals[i] }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link between a and b.
func (g *Graph) Link(a, b NodeID) (Link, error) {
	return g.LinkByID(MakeLinkID(a, b))
}

// LinkByID returns the link with the given canonical ID.
func (g *Graph) LinkByID(id LinkID) (Link, error) {
	l, ok := g.links[id]
	if !ok {
		return Link{}, fmt.Errorf("%w: %s", ErrLinkUnknown, id)
	}
	return l, nil
}

// Links returns a copy of every link, sorted by ID.
func (g *Graph) Links() []Link { return slices.Clone(g.linkList) }

// LinksView returns every link, sorted by ID, without copying. The slice is
// the graph's own: callers must not modify it, and it is valid until the
// graph is next mutated.
func (g *Graph) LinksView() []Link { return g.linkList }

// Adjacent returns a copy of the IDs of links incident to n, sorted.
func (g *Graph) Adjacent(n NodeID) []LinkID {
	return slices.Clone(g.adjacent[n])
}

// AdjacentView returns the IDs of links incident to n, sorted, without
// copying. The slice is the graph's own: callers must not modify it, and
// it is valid until the graph is next mutated.
func (g *Graph) AdjacentView(n NodeID) []LinkID { return g.adjacent[n] }

// Neighbors returns the nodes directly connected to n, sorted.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	adj := g.adjacent[n]
	out := make([]NodeID, 0, len(adj))
	for _, id := range adj {
		out = append(out, g.links[id].Other(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural invariants: at least one node, and full
// connectivity (the paper's service assumes every server can reach every
// other).
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("graph has no nodes")
	}
	// BFS from an arbitrary node.
	var start NodeID
	for n := range g.nodes {
		start = n
		break
	}
	seen := map[NodeID]bool{start: true}
	queue := []NodeID{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, id := range g.adjacent[n] {
			m := g.links[id].Other(n)
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	if len(seen) != len(g.nodes) {
		return fmt.Errorf("%w: reached %d of %d nodes", ErrDisconnected, len(seen), len(g.nodes))
	}
	return nil
}

// WithoutNode returns a copy of the graph with node n and every link
// incident to it removed — the copy-on-write shrink step a graceful drain
// installs via db.SetGraph. Removing an unknown node errors; the caller is
// responsible for re-validating connectivity of the result before use.
func (g *Graph) WithoutNode(n NodeID) (*Graph, error) {
	if _, ok := g.nodes[n]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnknown, n)
	}
	// Rebuilt in sorted order, every insertion appends; adjacency stays
	// sorted, so the order planners iterate it in is preserved.
	c := NewGraph()
	for _, m := range g.sorted {
		if m != n {
			_ = c.AddNode(m)
		}
	}
	for _, l := range g.linkList {
		if !l.HasEndpoint(n) {
			_, _ = c.AddLink(l.A, l.B, l.CapacityMbps)
		}
	}
	return c, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:    maps.Clone(g.nodes),
		ordinals: slices.Clone(g.ordinals),
		sorted:   slices.Clone(g.sorted),
		links:    maps.Clone(g.links),
		linkList: slices.Clone(g.linkList),
		adjacent: make(map[NodeID][]LinkID, len(g.adjacent)),
	}
	for n, adj := range g.adjacent {
		c.adjacent[n] = slices.Clone(adj)
	}
	return c
}
