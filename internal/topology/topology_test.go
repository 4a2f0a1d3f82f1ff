package topology

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, n := range []NodeID{"A", "B", "C"} {
		if err := g.AddNode(n); err != nil {
			t.Fatalf("AddNode(%s): %v", n, err)
		}
	}
	mustLink := func(a, b NodeID, cap float64) {
		if _, err := g.AddLink(a, b, cap); err != nil {
			t.Fatalf("AddLink(%s,%s): %v", a, b, err)
		}
	}
	mustLink("A", "B", 2)
	mustLink("B", "C", 18)
	mustLink("A", "C", 2)
	return g
}

func TestMakeLinkIDCanonical(t *testing.T) {
	if MakeLinkID("B", "A") != MakeLinkID("A", "B") {
		t.Fatal("link IDs are not order-independent")
	}
	if got, want := MakeLinkID("Patra", "Athens"), LinkID("Athens--Patra"); got != want {
		t.Fatalf("MakeLinkID = %q, want %q", got, want)
	}
}

func TestLinkIDEndpoints(t *testing.T) {
	a, b, err := MakeLinkID("X", "Y").Endpoints()
	if err != nil {
		t.Fatalf("Endpoints: %v", err)
	}
	if a != "X" || b != "Y" {
		t.Fatalf("Endpoints = %s,%s want X,Y", a, b)
	}
	if _, _, err := LinkID("garbage").Endpoints(); err == nil {
		t.Fatal("Endpoints accepted malformed id")
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode("A"); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := g.AddNode("A"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate AddNode error = %v, want ErrNodeExists", err)
	}
	if err := g.AddNode(""); err == nil {
		t.Fatal("AddNode accepted empty id")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode("A"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink("A", "A", 1); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop error = %v, want ErrSelfLoop", err)
	}
	if _, err := g.AddLink("A", "Z", 1); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("unknown node error = %v, want ErrNodeUnknown", err)
	}
	if _, err := g.AddLink("A", "B", 0); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero capacity error = %v, want ErrBadCapacity", err)
	}
	if _, err := g.AddLink("A", "B", 2); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if _, err := g.AddLink("B", "A", 2); !errors.Is(err, ErrLinkExists) {
		t.Fatalf("duplicate link error = %v, want ErrLinkExists", err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 3 || g.NumLinks() != 3 {
		t.Fatalf("NumNodes/NumLinks = %d/%d, want 3/3", g.NumNodes(), g.NumLinks())
	}
	if !g.HasNode("A") || g.HasNode("Z") {
		t.Fatal("HasNode wrong")
	}
	nodes := g.Nodes()
	if len(nodes) != 3 || nodes[0] != "A" || nodes[2] != "C" {
		t.Fatalf("Nodes = %v, want sorted [A B C]", nodes)
	}
	l, err := g.Link("C", "B")
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if l.CapacityMbps != 18 {
		t.Fatalf("Link capacity = %g, want 18", l.CapacityMbps)
	}
	if _, err := g.Link("A", "Z"); !errors.Is(err, ErrLinkUnknown) {
		t.Fatalf("missing Link error = %v, want ErrLinkUnknown", err)
	}
	nbrs := g.Neighbors("A")
	if len(nbrs) != 2 || nbrs[0] != "B" || nbrs[1] != "C" {
		t.Fatalf("Neighbors(A) = %v, want [B C]", nbrs)
	}
	if got := len(g.Adjacent("B")); got != 2 {
		t.Fatalf("Adjacent(B) has %d links, want 2", got)
	}
}

// TestGraphViewsStaySorted adds nodes and links out of order and checks the
// non-copying views against sorted copies, the ordinals against insertion
// order, and that the copies do not alias the graph's own lists.
func TestGraphViewsStaySorted(t *testing.T) {
	g := NewGraph()
	for _, n := range []NodeID{"C", "A", "D", "B"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]NodeID{{"D", "C"}, {"A", "D"}, {"B", "A"}, {"C", "A"}} {
		if _, err := g.AddLink(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmtIDs(g.NodesView()); got != "A B C D" {
		t.Fatalf("NodesView = %s, want A B C D", got)
	}
	var links []NodeID
	for _, l := range g.LinksView() {
		links = append(links, NodeID(l.ID))
	}
	if got := fmtIDs(links); got != "A--B A--C A--D C--D" {
		t.Fatalf("LinksView = %s", got)
	}
	if adj := g.AdjacentView("A"); len(adj) != 3 || adj[0] != "A--B" || adj[2] != "A--D" {
		t.Fatalf("AdjacentView(A) = %v", adj)
	}
	for i, n := range []NodeID{"C", "A", "D", "B"} {
		if o, ok := g.NodeOrdinal(n); !ok || o != i || g.NodeAt(o) != n {
			t.Fatalf("NodeOrdinal(%s) = %d, %v; want insertion order %d", n, o, ok, i)
		}
	}
	if _, ok := g.NodeOrdinal("Z"); ok {
		t.Fatal("NodeOrdinal found an unknown node")
	}
	nodes, ls := g.Nodes(), g.Links()
	nodes[0], ls[0].CapacityMbps = "Z", 99
	if g.NodesView()[0] != "A" || g.LinksView()[0].CapacityMbps != 1 {
		t.Fatal("Nodes/Links copies alias the graph's own lists")
	}

	w, err := g.WithoutNode("A")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmtIDs(w.NodesView()); got != "B C D" || w.NumLinks() != 1 || len(w.AdjacentView("B")) != 0 {
		t.Fatalf("WithoutNode(A): nodes %s, %d links", got, w.NumLinks())
	}
	if g.NumNodes() != 4 || g.NumLinks() != 4 {
		t.Fatal("WithoutNode mutated the original")
	}
}

func fmtIDs(ids []NodeID) string {
	s := ""
	for i, id := range ids {
		if i > 0 {
			s += " "
		}
		s += string(id)
	}
	return s
}

func TestLinkOther(t *testing.T) {
	l := Link{A: "A", B: "B"}
	if l.Other("A") != "B" || l.Other("B") != "A" || l.Other("Z") != "" {
		t.Fatal("Other wrong")
	}
	if !l.HasEndpoint("A") || l.HasEndpoint("Z") {
		t.Fatal("HasEndpoint wrong")
	}
}

func TestValidateConnectivity(t *testing.T) {
	g := buildTriangle(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate connected graph: %v", err)
	}
	if err := g.AddNode("Island"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Validate disconnected = %v, want ErrDisconnected", err)
	}
	if err := NewGraph().Validate(); err == nil {
		t.Fatal("Validate accepted empty graph")
	}
}

func TestClone(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	if err := c.AddNode("D"); err != nil {
		t.Fatal(err)
	}
	if g.HasNode("D") {
		t.Fatal("mutating clone affected original")
	}
	if c.NumLinks() != g.NumLinks() {
		t.Fatal("clone lost links")
	}
}

func TestSnapshotRejectsUnknownLinkAndNonFinite(t *testing.T) {
	g := buildTriangle(t)
	if _, err := NewSnapshot(g, map[LinkID]float64{"X--Y": 0.5}); !errors.Is(err, ErrLinkUnknown) {
		t.Fatalf("NewSnapshot unknown link error = %v", err)
	}
	id := MakeLinkID("A", "B")
	if _, err := NewSnapshot(g, map[LinkID]float64{id: math.NaN()}); err == nil {
		t.Fatal("NewSnapshot accepted NaN utilization")
	}
	if _, err := NewSnapshot(g, map[LinkID]float64{id: math.Inf(1)}); err == nil {
		t.Fatal("NewSnapshot accepted Inf utilization")
	}
}

func TestSnapshotClampsNegativeUtilization(t *testing.T) {
	g := buildTriangle(t)
	id := MakeLinkID("A", "B")
	s, err := NewSnapshot(g, map[LinkID]float64{id: -0.3})
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	if got := s.Utilization(id); got != 0 {
		t.Fatalf("Utilization = %g, want clamped 0", got)
	}
}

func TestUsedBandwidth(t *testing.T) {
	g := buildTriangle(t)
	id := MakeLinkID("B", "C") // 18 Mbps
	s, err := NewSnapshot(g, map[LinkID]float64{id: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.UsedBandwidthMbps(id); got != 9 {
		t.Fatalf("UsedBandwidthMbps = %g, want 9", got)
	}
	if got := s.UsedBandwidthMbps("no--link"); got != 0 {
		t.Fatalf("UsedBandwidthMbps unknown link = %g, want 0", got)
	}
}

// TestNodeValidationPaperExample reproduces the NV computation spelled out in
// the paper for node b: NV_b = (UBW_i+UBW_j+UBW_k)/(LBW_i+LBW_j+LBW_k).
func TestNodeValidationPaperExample(t *testing.T) {
	g := NewGraph()
	for _, n := range []NodeID{"b", "x", "y", "z"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	li, _ := g.AddLink("b", "x", 2)
	lj, _ := g.AddLink("b", "y", 18)
	lk, _ := g.AddLink("b", "z", 2)
	s, err := NewSnapshot(g, map[LinkID]float64{li: 0.10, lj: 0.094, lk: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	// UBW: 0.2, 1.692, 0.3 → sum 2.192; LBW sum 22.
	want := (0.10*2 + 0.094*18 + 0.15*2) / 22
	if got := s.NodeValidation("b"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NodeValidation = %g, want %g", got, want)
	}
	if got := s.NodeValidation("x"); math.Abs(got-0.10) > 1e-12 {
		t.Fatalf("NodeValidation leaf = %g, want 0.10", got)
	}
}

func TestNodeValidationIsolatedNodeIsZero(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode("lonely"); err != nil {
		t.Fatal(err)
	}
	s, err := NewSnapshot(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NodeValidation("lonely"); got != 0 {
		t.Fatalf("NodeValidation isolated = %g, want 0", got)
	}
}

func TestLinkValueEquation4(t *testing.T) {
	g := buildTriangle(t)
	id := MakeLinkID("B", "C") // 18 Mbps
	s, err := NewSnapshot(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := s.LinkValue(id, DefaultNormalizationK)
	if err != nil {
		t.Fatal(err)
	}
	if lv != 1.8 {
		t.Fatalf("LinkValue = %g, want 1.8", lv)
	}
	if _, err := s.LinkValue(id, 0); err == nil {
		t.Fatal("LinkValue accepted K=0")
	}
	if _, err := s.LinkValue("no--link", 10); !errors.Is(err, ErrLinkUnknown) {
		t.Fatalf("LinkValue unknown link error = %v", err)
	}
}

func TestLVNEquation1(t *testing.T) {
	// Two-node graph: NV of each endpoint equals the single link's
	// utilization, so LVN = util + util*cap/K.
	g := NewGraph()
	if err := g.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	id, err := g.AddLink("a", "b", 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSnapshot(g, map[LinkID]float64{id: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	lvn, err := s.LVN(id, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.10 + 0.10*0.2
	if math.Abs(lvn-want) > 1e-12 {
		t.Fatalf("LVN = %g, want %g", lvn, want)
	}
	if _, err := s.LVN("no--link", 10); !errors.Is(err, ErrLinkUnknown) {
		t.Fatalf("LVN unknown link error = %v", err)
	}
}

func TestWeightsCoversAllLinks(t *testing.T) {
	g := buildTriangle(t)
	s, err := NewSnapshot(g, map[LinkID]float64{MakeLinkID("A", "B"): 0.5})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Weights(DefaultNormalizationK)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 {
		t.Fatalf("Weights has %d entries, want 3", len(w))
	}
	for id, v := range w {
		if v < 0 {
			t.Fatalf("negative weight %g for %s", v, id)
		}
	}
}

// TestWeightsViewCachedPerK checks that WeightsView serves Weights' table,
// computes it once per snapshot and K, and recomputes for a different K.
func TestWeightsViewCachedPerK(t *testing.T) {
	s, err := NewSnapshot(buildTriangle(t), map[LinkID]float64{MakeLinkID("A", "B"): 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Weights(DefaultNormalizationK)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.WeightsView(DefaultNormalizationK)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if v1[id] != w {
			t.Fatalf("WeightsView[%s] = %g, Weights says %g", id, v1[id], w)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = s.WeightsView(DefaultNormalizationK) }); allocs != 0 {
		t.Fatalf("cached WeightsView allocates %.0f times", allocs)
	}
	v100, err := s.WeightsView(100)
	if err != nil {
		t.Fatal(err)
	}
	if ab := MakeLinkID("A", "B"); v100[ab] == v1[ab] {
		t.Fatal("WeightsView ignored a new K")
	}
	if _, err := s.WeightsView(-1); err == nil {
		t.Fatal("WeightsView accepted a negative K")
	}
}

func TestWithUtilization(t *testing.T) {
	g := buildTriangle(t)
	id := MakeLinkID("A", "B")
	s, err := NewSnapshot(g, map[LinkID]float64{id: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s.WithUtilization(id, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Utilization(id) != 0.1 {
		t.Fatal("WithUtilization mutated original snapshot")
	}
	if s2.Utilization(id) != 0.9 {
		t.Fatalf("WithUtilization = %g, want 0.9", s2.Utilization(id))
	}
}

func TestReportSortedAndConsistent(t *testing.T) {
	g := buildTriangle(t)
	s, err := NewSnapshot(g, map[LinkID]float64{
		MakeLinkID("A", "B"): 0.2,
		MakeLinkID("B", "C"): 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Report(DefaultNormalizationK)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 3 {
		t.Fatalf("Report rows = %d, want 3", len(rep))
	}
	for i := 1; i < len(rep); i++ {
		if rep[i-1].Link.ID >= rep[i].Link.ID {
			t.Fatal("Report not sorted by link id")
		}
	}
	for _, r := range rep {
		wantLVN := math.Max(r.NVA, r.NVB) + r.LU
		if math.Abs(r.LVN-wantLVN) > 1e-12 {
			t.Fatalf("row %s LVN %g != max(NV)+LU %g", r.Link.ID, r.LVN, wantLVN)
		}
	}
}

// Property: LVN is monotonically non-decreasing in any link's utilization.
// Raising traffic anywhere can only make links look the same or worse.
func TestLVNMonotoneInUtilizationProperty(t *testing.T) {
	g := buildTriangle(t)
	ids := []LinkID{MakeLinkID("A", "B"), MakeLinkID("B", "C"), MakeLinkID("A", "C")}
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		util := map[LinkID]float64{}
		for _, id := range ids {
			util[id] = r.Float64()
		}
		s, err := NewSnapshot(g, util)
		if err != nil {
			return false
		}
		bump := ids[rng.Intn(len(ids))]
		s2, err := s.WithUtilization(bump, util[bump]+r.Float64())
		if err != nil {
			return false
		}
		for _, id := range ids {
			before, err1 := s.LVN(id, DefaultNormalizationK)
			after, err2 := s2.LVN(id, DefaultNormalizationK)
			if err1 != nil || err2 != nil {
				return false
			}
			if after < before-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: all LVN weights are non-negative for utilizations in [0, 2].
func TestLVNNonNegativeProperty(t *testing.T) {
	g := buildTriangle(t)
	ids := []LinkID{MakeLinkID("A", "B"), MakeLinkID("B", "C"), MakeLinkID("A", "C")}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		util := map[LinkID]float64{}
		for _, id := range ids {
			util[id] = r.Float64() * 2
		}
		s, err := NewSnapshot(g, util)
		if err != nil {
			return false
		}
		w, err := s.Weights(DefaultNormalizationK)
		if err != nil {
			return false
		}
		for _, v := range w {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.NumNodes() != 3 || back.NumLinks() != 3 {
		t.Fatalf("round trip lost structure: %d nodes %d links", back.NumNodes(), back.NumLinks())
	}
	l, err := back.Link("B", "C")
	if err != nil {
		t.Fatal(err)
	}
	if l.CapacityMbps != 18 {
		t.Fatalf("round trip capacity = %g, want 18", l.CapacityMbps)
	}
}

func TestGraphJSONRejectsBadInput(t *testing.T) {
	var g Graph
	cases := []string{
		`{"nodes":["A"],"links":[{"a":"A","b":"B","capacityMbps":2}]}`, // unknown node
		`{"nodes":["A","B"],"links":[{"a":"A","b":"B","capacityMbps":0}]}`,
		`{"nodes":["A","A"],"links":[]}`,
		`{bad json`,
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Fatalf("Unmarshal accepted %s", c)
		}
	}
}
