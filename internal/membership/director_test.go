package membership

import (
	"errors"
	"testing"

	"dvod/internal/topology"
)

func newTestDirector(t *testing.T, cfg DirectorConfig) *Director {
	t.Helper()
	d, err := NewDirector(cfg)
	if err != nil {
		t.Fatalf("new director: %v", err)
	}
	return d
}

func staticHolders(m map[string][]topology.NodeID) func(string) ([]topology.NodeID, error) {
	return func(title string) ([]topology.NodeID, error) {
		h, ok := m[title]
		if !ok {
			return nil, errors.New("unknown title")
		}
		return h, nil
	}
}

func staticLookup(n topology.NodeID) (string, error) { return "addr-" + string(n), nil }

func TestDirectorServesResidentAndRedirectsForeign(t *testing.T) {
	d := newTestDirector(t, DirectorConfig{
		Self:      "A",
		Holders:   staticHolders(map[string][]topology.NodeID{"t1": {"A"}, "t2": {"B", "C"}}),
		Lookup:    staticLookup,
		FrontDoor: true,
	})
	if _, _, ok := d.Route("t1", 0); ok {
		t.Fatal("redirected a locally held title")
	}
	target, addr, ok := d.Route("t2", 0)
	if !ok {
		t.Fatal("no redirect for a foreign title with the front door on")
	}
	if target != "B" || addr != "addr-B" {
		t.Fatalf("redirect to %s (%s), want B at addr-B (tie broken by node ID)", target, addr)
	}
}

func TestDirectorOffWithoutFrontDoorUnlessDraining(t *testing.T) {
	d := newTestDirector(t, DirectorConfig{
		Self:    "A",
		Holders: staticHolders(map[string][]topology.NodeID{"t": {"A", "B"}}),
		Lookup:  staticLookup,
	})
	if _, _, ok := d.Route("t", 0); ok {
		t.Fatal("redirected with the front door off and not draining")
	}
	d.SetDraining(true)
	target, _, ok := d.Route("t", 0)
	if !ok || target != "B" {
		t.Fatalf("draining redirect = %s/%v, want B", target, ok)
	}
	// A draining node with no live replica serves the request itself.
	solo := newTestDirector(t, DirectorConfig{
		Self:    "A",
		Holders: staticHolders(map[string][]topology.NodeID{"t": {"A"}}),
		Lookup:  staticLookup,
	})
	solo.SetDraining(true)
	if _, _, ok := solo.Route("t", 0); ok {
		t.Fatal("draining sole holder redirected into the void")
	}
}

func TestDirectorHopCap(t *testing.T) {
	d := newTestDirector(t, DirectorConfig{
		Self:      "A",
		Holders:   staticHolders(map[string][]topology.NodeID{"t": {"B"}}),
		Lookup:    staticLookup,
		FrontDoor: true,
	})
	if _, _, ok := d.Route("t", DefaultMaxHops-1); !ok {
		t.Fatal("no redirect just under the hop cap")
	}
	if _, _, ok := d.Route("t", DefaultMaxHops); ok {
		t.Fatal("redirected at the hop cap; must serve locally")
	}
}

func TestDirectorScoresLoad(t *testing.T) {
	load := map[topology.NodeID]float64{"B": 0.9, "C": 0.5}
	d := newTestDirector(t, DirectorConfig{
		Self:      "A",
		Holders:   staticHolders(map[string][]topology.NodeID{"t": {"B", "C"}}),
		Lookup:    staticLookup,
		FrontDoor: true,
		Load:      func(n topology.NodeID) float64 { return load[n] },
	})
	if target, _, _ := d.Route("t", 0); target != "C" {
		t.Fatalf("redirect to %s, want the less-loaded C", target)
	}
	load["C"] = 0.95
	if target, _, _ := d.Route("t", 0); target != "B" {
		t.Fatalf("redirect to %s, want B once C carries more load", target)
	}
}

func TestDirectorSkipsNonAliveMembers(t *testing.T) {
	members := []Member{
		{Node: "B", State: Suspect},
		{Node: "C", State: Alive},
	}
	d := newTestDirector(t, DirectorConfig{
		Self:      "A",
		Holders:   staticHolders(map[string][]topology.NodeID{"t": {"B", "C"}}),
		Lookup:    staticLookup,
		FrontDoor: true,
		Members:   func() []Member { return members },
	})
	if target, _, _ := d.Route("t", 0); target != "C" {
		t.Fatalf("redirect to %s, want C (B is suspect)", target)
	}
	members[1].State = Failed
	if _, _, ok := d.Route("t", 0); ok {
		t.Fatal("redirected with no alive holder; must serve locally")
	}
}
