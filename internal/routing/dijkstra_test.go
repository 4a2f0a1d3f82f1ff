package routing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dvod/internal/topology"
)

// line builds A-B-C-D with unit-capacity links.
func line(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	nodes := []topology.NodeID{"A", "B", "C", "D"}
	for _, n := range nodes {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(nodes); i++ {
		if _, err := g.AddLink(nodes[i-1], nodes[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// diamond builds A-B, A-C, B-D, C-D plus B-C.
func diamond(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B", "C", "D"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]topology.NodeID{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}, {"B", "C"}} {
		if _, err := g.AddLink(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func w(pairs ...any) CostTable {
	ct := CostTable{}
	for i := 0; i < len(pairs); i += 2 {
		ct[pairs[i].(topology.LinkID)] = pairs[i+1].(float64)
	}
	return ct
}

func lid(a, b topology.NodeID) topology.LinkID { return topology.MakeLinkID(a, b) }

func TestShortestPathsLine(t *testing.T) {
	g := line(t)
	weights := w(lid("A", "B"), 1.0, lid("B", "C"), 2.0, lid("C", "D"), 3.0)
	tree, err := ShortestPaths(g, weights, "A")
	if err != nil {
		t.Fatalf("ShortestPaths: %v", err)
	}
	p, err := tree.PathTo("D")
	if err != nil {
		t.Fatalf("PathTo: %v", err)
	}
	if p.Cost != 6 {
		t.Fatalf("cost = %g, want 6", p.Cost)
	}
	if p.String() != "A,B,C,D" {
		t.Fatalf("path = %s, want A,B,C,D", p)
	}
}

func TestShortestPathsPicksCheaperOfTwoRoutes(t *testing.T) {
	g := diamond(t)
	weights := w(
		lid("A", "B"), 1.0, lid("A", "C"), 5.0,
		lid("B", "D"), 1.0, lid("C", "D"), 1.0,
		lid("B", "C"), 1.0,
	)
	tree, err := ShortestPaths(g, weights, "A")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tree.PathTo("D")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "A,B,D" || p.Cost != 2 {
		t.Fatalf("path = %s cost %g, want A,B,D cost 2", p, p.Cost)
	}
	// C is cheaper via B than directly.
	pc, err := tree.PathTo("C")
	if err != nil {
		t.Fatal(err)
	}
	if pc.String() != "A,B,C" || pc.Cost != 2 {
		t.Fatalf("path to C = %s cost %g, want A,B,C cost 2", pc, pc.Cost)
	}
}

func TestShortestPathsSourceItself(t *testing.T) {
	g := line(t)
	weights := MinHopWeights(g)
	tree, err := ShortestPaths(g, weights, "B")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tree.PathTo("B")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 0 || len(p.Nodes) != 1 || p.Nodes[0] != "B" {
		t.Fatalf("self path = %v cost %g", p.Nodes, p.Cost)
	}
}

func TestShortestPathsErrors(t *testing.T) {
	g := line(t)
	weights := MinHopWeights(g)
	if _, err := ShortestPaths(g, weights, "Z"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown source error = %v", err)
	}
	missing := CostTable{lid("A", "B"): 1}
	if _, err := ShortestPaths(g, missing, "A"); !errors.Is(err, ErrMissingWeight) {
		t.Fatalf("missing weight error = %v", err)
	}
	neg := MinHopWeights(g)
	neg[lid("B", "C")] = -0.5
	if _, err := ShortestPaths(g, neg, "A"); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight error = %v", err)
	}
	nan := MinHopWeights(g)
	nan[lid("B", "C")] = math.NaN()
	if _, err := ShortestPaths(g, nan, "A"); err == nil {
		t.Fatal("accepted NaN weight")
	}
}

func TestUnreachableDestination(t *testing.T) {
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B", "C"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddLink("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	tree, err := ShortestPaths(g, MinHopWeights(g), "A")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Reachable("C") {
		t.Fatal("C reported reachable")
	}
	if _, err := tree.PathTo("C"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("PathTo unreachable error = %v", err)
	}
	if _, err := tree.PathTo("Z"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("PathTo unknown error = %v", err)
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{Nodes: []topology.NodeID{"A", "B", "C"}, Cost: 2.5}
	if p.Source() != "A" || p.Dest() != "C" || p.Hops() != 2 {
		t.Fatal("path accessors wrong")
	}
	links := p.Links()
	if len(links) != 2 || links[0] != lid("A", "B") || links[1] != lid("B", "C") {
		t.Fatalf("Links = %v", links)
	}
	r := p.Reverse()
	if r.String() != "C,B,A" || r.Cost != 2.5 {
		t.Fatalf("Reverse = %s cost %g", r, r.Cost)
	}
	var empty Path
	if empty.Source() != "" || empty.Dest() != "" || empty.Hops() != 0 || empty.Links() != nil {
		t.Fatal("empty path accessors wrong")
	}
	if empty.String() != "<empty>" {
		t.Fatalf("empty String = %q", empty.String())
	}
	single := Path{Nodes: []topology.NodeID{"A"}}
	if single.Links() != nil || single.Hops() != 0 {
		t.Fatal("single-node path helpers wrong")
	}
}

func TestDijkstraTraceStepStructure(t *testing.T) {
	g := diamond(t)
	weights := w(
		lid("A", "B"), 1.0, lid("A", "C"), 3.0,
		lid("B", "D"), 3.0, lid("C", "D"), 1.0,
		lid("B", "C"), 1.0,
	)
	steps, tree, err := DijkstraTrace(g, weights, "A")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("got %d steps, want 4 (one per node)", len(steps))
	}
	// Step 1: only A permanent; B labelled 1 via A,B; C labelled 3 via A,C;
	// D unreachable.
	s1 := steps[0]
	if len(s1.Permanent) != 1 || s1.Permanent[0] != "A" {
		t.Fatalf("step1 permanent = %v", s1.Permanent)
	}
	if l := s1.Labels["B"]; !l.Reachable || l.Dist != 1 {
		t.Fatalf("step1 label B = %+v", l)
	}
	if l := s1.Labels["D"]; l.Reachable {
		t.Fatalf("step1 label D should be unreachable, got %+v", l)
	}
	// Step 2: B permanent; C relaxes to 2 via A,B,C; D to 4 via A,B,D.
	s2 := steps[1]
	if s2.Permanent[1] != "B" {
		t.Fatalf("step2 added %v, want B", s2.Permanent[1])
	}
	if l := s2.Labels["C"]; l.Dist != 2 || len(l.Path) != 3 {
		t.Fatalf("step2 label C = %+v", l)
	}
	// Final tree: D at 3 via A,B,C,D.
	p, err := tree.PathTo("D")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "A,B,C,D" || p.Cost != 3 {
		t.Fatalf("final path = %s cost %g", p, p.Cost)
	}
	// Labels of permanent nodes remain visible in later steps (the paper's
	// tables keep printing them).
	last := steps[len(steps)-1]
	if l := last.Labels["B"]; !l.Reachable || l.Dist != 1 {
		t.Fatalf("final step label B = %+v", l)
	}
}

func TestDijkstraDeterministicTieBreak(t *testing.T) {
	// B and C both at distance 1 from A; extraction order must be B then C
	// (lexicographic) every run.
	g := diamond(t)
	weights := w(
		lid("A", "B"), 1.0, lid("A", "C"), 1.0,
		lid("B", "D"), 1.0, lid("C", "D"), 1.0,
		lid("B", "C"), 1.0,
	)
	for range 10 {
		steps, tree, err := DijkstraTrace(g, weights, "A")
		if err != nil {
			t.Fatal(err)
		}
		if steps[1].Permanent[1] != "B" || steps[2].Permanent[2] != "C" {
			t.Fatalf("extraction order = %v", steps[len(steps)-1].Permanent)
		}
		p, err := tree.PathTo("D")
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != "A,B,D" {
			t.Fatalf("tie-broken path = %s, want A,B,D", p)
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	g := diamond(t)
	weights := w(
		lid("A", "B"), 1.5, lid("A", "C"), 0.2,
		lid("B", "D"), 2.0, lid("C", "D"), 3.0,
		lid("B", "C"), 0.1,
	)
	dt, err := ShortestPaths(g, weights, "A")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BellmanFord(g, weights, "A")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if math.Abs(dt.Dist[n]-bf.Dist[n]) > 1e-12 {
			t.Fatalf("node %s: dijkstra %g, bellman-ford %g", n, dt.Dist[n], bf.Dist[n])
		}
	}
}

func TestBellmanFordErrors(t *testing.T) {
	g := line(t)
	if _, err := BellmanFord(g, MinHopWeights(g), "Z"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown source error = %v", err)
	}
	if _, err := BellmanFord(g, CostTable{}, "A"); !errors.Is(err, ErrMissingWeight) {
		t.Fatalf("missing weight error = %v", err)
	}
}

func TestBellmanFordDetectsNegativeCycle(t *testing.T) {
	g := diamond(t)
	weights := MinHopWeights(g)
	weights[lid("B", "C")] = -5
	if _, err := BellmanFord(g, weights, "A"); err == nil {
		t.Fatal("negative cycle not detected")
	}
}

func TestMinHopWeights(t *testing.T) {
	g := diamond(t)
	weights := MinHopWeights(g)
	if len(weights) != g.NumLinks() {
		t.Fatalf("weights cover %d links, want %d", len(weights), g.NumLinks())
	}
	for id, v := range weights {
		if v != 1 {
			t.Fatalf("weight of %s = %g, want 1", id, v)
		}
	}
}

func TestCheapestTo(t *testing.T) {
	g := line(t)
	weights := w(lid("A", "B"), 1.0, lid("B", "C"), 1.0, lid("C", "D"), 10.0)
	tree, err := ShortestPaths(g, weights, "A")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CheapestTo(tree, []topology.NodeID{"C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dest() != "C" {
		t.Fatalf("CheapestTo picked %s, want C", p.Dest())
	}
	if _, err := CheapestTo(tree, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("empty candidates error = %v", err)
	}
}

func TestCheapestToSkipsUnreachable(t *testing.T) {
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B", "C"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddLink("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	tree, err := ShortestPaths(g, MinHopWeights(g), "A")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CheapestTo(tree, []topology.NodeID{"C", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dest() != "B" {
		t.Fatalf("CheapestTo picked %s, want B", p.Dest())
	}
	if _, err := CheapestTo(tree, []topology.NodeID{"C"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("all-unreachable error = %v", err)
	}
}

// randomConnectedGraph builds a connected random graph: a spanning path plus
// extra random edges. Nodes are added in random order, so node ordinals and
// sorted order differ.
func randomConnectedGraph(r *rand.Rand, n, extra int) (*topology.Graph, CostTable) {
	g := topology.NewGraph()
	ids := make([]topology.NodeID, n)
	for i := range n {
		ids[i] = topology.NodeID(string(rune('A' + i)))
	}
	for _, i := range r.Perm(n) {
		if err := g.AddNode(ids[i]); err != nil {
			panic(err)
		}
	}
	weights := CostTable{}
	addEdge := func(a, b topology.NodeID) {
		id, err := g.AddLink(a, b, 1+9*r.Float64())
		if err != nil {
			return // duplicate; fine
		}
		weights[id] = r.Float64() * 5
	}
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(ids[perm[i-1]], ids[perm[i]])
	}
	for range extra {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			addEdge(ids[a], ids[b])
		}
	}
	return g, weights
}

// Property: Dijkstra and Bellman-Ford agree on every distance in random
// connected graphs with non-negative weights.
func TestDijkstraEqualsBellmanFordProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		g, weights := randomConnectedGraph(r, n, n)
		src := g.Nodes()[r.Intn(n)]
		dt, err1 := ShortestPaths(g, weights, src)
		bf, err2 := BellmanFord(g, weights, src)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, node := range g.Nodes() {
			if math.Abs(dt.Dist[node]-bf.Dist[node]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reconstructed path is simple (no repeated node), starts at
// the source, ends at the destination, and its cost equals the sum of its
// link weights.
func TestPathWellFormedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		g, weights := randomConnectedGraph(r, n, n)
		src := g.Nodes()[r.Intn(n)]
		tree, err := ShortestPaths(g, weights, src)
		if err != nil {
			return false
		}
		for _, dst := range g.Nodes() {
			if !tree.Reachable(dst) {
				continue
			}
			p, err := tree.PathTo(dst)
			if err != nil {
				return false
			}
			if p.Source() != src || p.Dest() != dst {
				return false
			}
			seen := map[topology.NodeID]bool{}
			for _, node := range p.Nodes {
				if seen[node] {
					return false
				}
				seen[node] = true
			}
			var sum float64
			for _, l := range p.Links() {
				sum += weights[l]
			}
			if math.Abs(sum-p.Cost) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: sub-paths of shortest paths are shortest (optimal substructure).
func TestSubPathOptimalityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		g, weights := randomConnectedGraph(r, n, n)
		src := g.Nodes()[r.Intn(n)]
		tree, err := ShortestPaths(g, weights, src)
		if err != nil {
			return false
		}
		for _, dst := range g.Nodes() {
			if !tree.Reachable(dst) || dst == src {
				continue
			}
			p, err := tree.PathTo(dst)
			if err != nil {
				return false
			}
			// Every prefix endpoint's tree distance equals the prefix cost.
			var cost float64
			for i := 1; i < len(p.Nodes); i++ {
				cost += weights[topology.MakeLinkID(p.Nodes[i-1], p.Nodes[i])]
				if math.Abs(tree.Dist[p.Nodes[i]]-cost) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: CheapestPath picks the same route as ShortestPaths followed by
// CheapestTo, ties included (integer weights, zero allowed, make them common).
func TestCheapestPathMatchesTreeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		g, weights := randomConnectedGraph(r, n, n)
		for id := range weights {
			weights[id] = float64(r.Intn(3))
		}
		nodes := g.Nodes()
		src := nodes[r.Intn(n)]
		cands := []topology.NodeID{nodes[r.Intn(n)], nodes[r.Intn(n)], nodes[r.Intn(n)], "nowhere"}
		tree, err := ShortestPaths(g, weights, src)
		if err != nil {
			return false
		}
		want, err := CheapestTo(tree, cands)
		if err != nil {
			return false
		}
		got, err := CheapestPath(g, weights, src, cands)
		return err == nil && got.String() == want.String() && got.Cost == want.Cost
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheapestPathErrors(t *testing.T) {
	g := line(t)
	weights := MinHopWeights(g)
	if _, err := CheapestPath(g, weights, "Z", []topology.NodeID{"A"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown source: %v", err)
	}
	if _, err := CheapestPath(g, CostTable{}, "A", []topology.NodeID{"B"}); !errors.Is(err, ErrMissingWeight) {
		t.Fatalf("missing weight: %v", err)
	}
	if _, err := CheapestPath(g, weights, "A", []topology.NodeID{"Z"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("no known candidate: %v", err)
	}
}
