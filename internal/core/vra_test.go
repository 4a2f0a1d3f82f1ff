package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"dvod/internal/grnet"
	"dvod/internal/routing"
	"dvod/internal/topology"
)

func snapshotAt(t *testing.T, st grnet.SampleTime) *topology.Snapshot {
	t.Helper()
	snap, err := grnet.Snapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestVRAConcurrentSelect has eight planners share one snapshot, as a
// server's sessions do: the snapshot's cached weights and the pooled
// Dijkstra scratch space must give every caller the same decision.
func TestVRAConcurrentSelect(t *testing.T) {
	snap := snapshotAt(t, grnet.At10am)
	cands := []topology.NodeID{grnet.Thessaloniki, grnet.Xanthi}
	want, err := (VRA{}).Select(snap, grnet.Patra, cands)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				d, err := (VRA{}).Select(snap, grnet.Patra, cands)
				if err != nil || d.Path.String() != want.Path.String() || d.Cost != want.Cost {
					t.Errorf("concurrent Select = %s cost %g (%v), want %s cost %g", d.Path, d.Cost, err, want.Path, want.Cost)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestVRAName(t *testing.T) {
	if (VRA{}).Name() != "vra" {
		t.Fatal("Name wrong")
	}
}

func TestVRALocalShortCircuit(t *testing.T) {
	snap := snapshotAt(t, grnet.At8am)
	d, err := VRA{}.Select(snap, grnet.Patra, []topology.NodeID{grnet.Xanthi, grnet.Patra})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Local || d.Server != grnet.Patra || d.Cost != 0 {
		t.Fatalf("decision = %+v, want local Patra", d)
	}
	if d.Path.Hops() != 0 {
		t.Fatalf("local path hops = %d", d.Path.Hops())
	}
}

func TestVRANoCandidates(t *testing.T) {
	snap := snapshotAt(t, grnet.At8am)
	if _, err := (VRA{}).Select(snap, grnet.Patra, nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("error = %v", err)
	}
}

func TestVRAUnknownHome(t *testing.T) {
	snap := snapshotAt(t, grnet.At8am)
	if _, err := (VRA{}).Select(snap, "U99", []topology.NodeID{grnet.Xanthi}); err == nil {
		t.Fatal("unknown home accepted")
	}
}

// TestVRAExperimentB runs the full Figure 5 flow for the paper's
// Experiment B and checks the published decision.
func TestVRAExperimentB(t *testing.T) {
	snap := snapshotAt(t, grnet.At10am)
	d, err := VRA{}.Select(snap, grnet.Patra, []topology.NodeID{grnet.Thessaloniki, grnet.Xanthi})
	if err != nil {
		t.Fatal(err)
	}
	if d.Local {
		t.Fatal("decision should be remote")
	}
	if d.Server != grnet.Thessaloniki {
		t.Fatalf("server = %s, paper chooses Thessaloniki", d.Server)
	}
	if d.Path.String() != "U2,U3,U4" {
		t.Fatalf("path = %s, paper U2,U3,U4", d.Path)
	}
	if math.Abs(d.Cost-1.007) > 0.01 {
		t.Fatalf("cost = %.4f, paper 1.007", d.Cost)
	}
}

// TestVRAExperimentsCD checks the 4pm and 6pm decisions (both Ioannina).
func TestVRAExperimentsCD(t *testing.T) {
	cands := []topology.NodeID{grnet.Ioannina, grnet.Thessaloniki, grnet.Xanthi}
	for _, tc := range []struct {
		at   grnet.SampleTime
		cost float64
	}{
		{grnet.At4pm, 1.222},
		{grnet.At6pm, 1.236},
	} {
		d, err := VRA{}.Select(snapshotAt(t, tc.at), grnet.Athens, cands)
		if err != nil {
			t.Fatal(err)
		}
		if d.Server != grnet.Ioannina || d.Path.String() != "U1,U2,U3" {
			t.Fatalf("@%s: %s via %s, paper Ioannina via U1,U2,U3", tc.at, d.Server, d.Path)
		}
		if math.Abs(d.Cost-tc.cost) > 0.01 {
			t.Fatalf("@%s cost = %.4f, paper %.4f", tc.at, d.Cost, tc.cost)
		}
	}
}

func TestVRACustomK(t *testing.T) {
	snap := snapshotAt(t, grnet.At10am)
	// Any positive K must still produce a valid decision; with very large
	// K the LU term vanishes and only node validations matter.
	d, err := VRA{NormalizationK: 1000}.Select(snap, grnet.Patra,
		[]topology.NodeID{grnet.Thessaloniki, grnet.Xanthi})
	if err != nil {
		t.Fatal(err)
	}
	if d.Server == "" {
		t.Fatal("empty decision")
	}
	// Negative K propagates the weighting error.
	if _, err := (VRA{NormalizationK: -1}).Select(snap, grnet.Patra,
		[]topology.NodeID{grnet.Xanthi}); err == nil {
		t.Fatal("negative K accepted")
	}
}

func TestVRASelectTrace(t *testing.T) {
	snap := snapshotAt(t, grnet.At10am)
	d, steps, err := VRA{}.SelectTrace(snap, grnet.Patra,
		[]topology.NodeID{grnet.Thessaloniki, grnet.Xanthi})
	if err != nil {
		t.Fatal(err)
	}
	if d.Server != grnet.Thessaloniki {
		t.Fatalf("server = %s", d.Server)
	}
	if len(steps) != 6 {
		t.Fatalf("trace steps = %d, want 6", len(steps))
	}
	// Local decisions produce no trace.
	d, steps, err = (VRA{}).SelectTrace(snap, grnet.Patra, []topology.NodeID{grnet.Patra})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Local || steps != nil {
		t.Fatalf("local trace = %+v, %d steps", d, len(steps))
	}
	if _, _, err := (VRA{}).SelectTrace(snap, grnet.Patra, nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("no candidates error = %v", err)
	}
	if _, _, err := (VRA{NormalizationK: -1}).SelectTrace(snap, grnet.Patra,
		[]topology.NodeID{grnet.Xanthi}); err == nil {
		t.Fatal("negative K accepted")
	}
}

func TestVRAUnreachableCandidate(t *testing.T) {
	// Disconnected graph: island node holds the title.
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B", "island"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddLink("A", "B", 2); err != nil {
		t.Fatal(err)
	}
	snap, err := topology.NewSnapshot(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (VRA{}).Select(snap, "A", []topology.NodeID{"island"}); !errors.Is(err, ErrNoReachable) {
		t.Fatalf("error = %v, want ErrNoReachable", err)
	}
	if _, _, err := (VRA{}).SelectTrace(snap, "A", []topology.NodeID{"island"}); !errors.Is(err, ErrNoReachable) {
		t.Fatalf("trace error = %v, want ErrNoReachable", err)
	}
}

// TestVRAPrefersIdleRoute pins the load sensitivity that distinguishes the
// VRA from hop-count routing: with a loaded high-capacity direct link and an
// idle two-hop detour, the VRA takes the detour. (The direct link must be
// fat: equation (3) scales the utilization term by capacity/K, and equation
// (1)'s node-validation term also taxes the detour's first hop, so only a
// large LU penalty flips the decision.)
func TestVRAPrefersIdleRoute(t *testing.T) {
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"C", "S", "R"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := g.AddLink("C", "S", 18)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink("C", "R", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink("R", "S", 2); err != nil {
		t.Fatal(err)
	}
	snap, err := topology.NewSnapshot(g, map[topology.LinkID]float64{direct: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	d, err := VRA{}.Select(snap, "C", []topology.NodeID{"S"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Path.String() != "C,R,S" {
		t.Fatalf("path = %s, want detour C,R,S", d.Path)
	}
	// Min-hop (via the routing package directly) would take the 1-hop
	// congested link — confirming the policies genuinely differ here.
	tree, err := routing.ShortestPaths(g, routing.MinHopWeights(g), "C")
	if err != nil {
		t.Fatal(err)
	}
	p, err := tree.PathTo("S")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "C,S" {
		t.Fatalf("min-hop path = %s, want direct C,S", p)
	}
}
