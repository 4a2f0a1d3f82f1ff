package core

import (
	"errors"
	"testing"
	"time"

	"dvod/internal/db"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/topology"
)

var t0 = time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)

// plannerFixture: GRNET DB at the given sample time with one title held by
// the listed nodes.
func plannerFixture(t *testing.T, st grnet.SampleTime, title media.Title, holders ...topology.NodeID) (*db.DB, *Planner) {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	for _, row := range grnet.Table2() {
		id := topology.MakeLinkID(row.A, row.B)
		if err := d.UpsertLinkStats(id, row.TrafficMbps[int(st)-1], t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Catalog().AddTitle(title); err != nil {
		t.Fatal(err)
	}
	for _, h := range holders {
		if err := d.SetHolding(h, title.Name, true, t0); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPlanner(d, VRA{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func movie(size int64) media.Title {
	return media.Title{Name: "movie", SizeBytes: size, BitrateMbps: 1.5}
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(nil, VRA{}, nil); err == nil {
		t.Fatal("nil db accepted")
	}
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanner(db.New(g), nil, nil); err == nil {
		t.Fatal("nil selector accepted")
	}
}

func TestPlannerPlanExperimentB(t *testing.T) {
	_, p := plannerFixture(t, grnet.At10am, movie(1000), grnet.Thessaloniki, grnet.Xanthi)
	if p.Selector().Name() != "vra" {
		t.Fatalf("Selector = %s", p.Selector().Name())
	}
	d, err := p.Plan(grnet.Patra, "movie")
	if err != nil {
		t.Fatal(err)
	}
	if d.Server != grnet.Thessaloniki || d.Path.String() != "U2,U3,U4" {
		t.Fatalf("decision = %+v, paper: Thessaloniki via U2,U3,U4", d)
	}
}

func TestPlannerUnknownTitle(t *testing.T) {
	_, p := plannerFixture(t, grnet.At8am, movie(1000), grnet.Xanthi)
	if _, err := p.Plan(grnet.Patra, "ghost"); err == nil {
		t.Fatal("unknown title accepted")
	}
}

func TestPlannerNoHolders(t *testing.T) {
	_, p := plannerFixture(t, grnet.At8am, movie(1000)) // no holders
	if _, err := p.Plan(grnet.Patra, "movie"); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("error = %v", err)
	}
}

func TestPlannerAvailabilityFilter(t *testing.T) {
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	for _, row := range grnet.Table2() {
		id := topology.MakeLinkID(row.A, row.B)
		if err := d.UpsertLinkStats(id, row.TrafficMbps[1], t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Catalog().AddTitle(movie(1000)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []topology.NodeID{grnet.Thessaloniki, grnet.Xanthi} {
		if err := d.SetHolding(h, "movie", true, t0); err != nil {
			t.Fatal(err)
		}
	}
	// Thessaloniki is down: the filter excludes it and the VRA falls back
	// to Xanthi.
	down := map[topology.NodeID]bool{grnet.Thessaloniki: true}
	p, err := NewPlanner(d, VRA{}, func(n topology.NodeID) bool { return !down[n] })
	if err != nil {
		t.Fatal(err)
	}
	cands, err := p.Candidates("movie")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0] != grnet.Xanthi {
		t.Fatalf("candidates = %v", cands)
	}
	dec, err := p.Plan(grnet.Patra, "movie")
	if err != nil {
		t.Fatal(err)
	}
	if dec.Server != grnet.Xanthi {
		t.Fatalf("server = %s, want Xanthi with Thessaloniki down", dec.Server)
	}
	// All down → no candidates.
	down[grnet.Xanthi] = true
	if _, err := p.Plan(grnet.Patra, "movie"); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("all-down error = %v", err)
	}
}

// TestSessionMidStreamSwitch replays the paper's re-plan at a cluster
// boundary: a session plans each cluster with Planner.Plan, and when the
// Ioannina and Athens links congest between two clusters, the next cluster
// comes from Xanthi instead of Thessaloniki.
func TestSessionMidStreamSwitch(t *testing.T) {
	title := movie(600)
	d, p := plannerFixture(t, grnet.At10am, title, grnet.Thessaloniki, grnet.Xanthi)
	first, err := p.Plan(grnet.Patra, title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if first.Server != grnet.Thessaloniki {
		t.Fatalf("cluster 0 server = %s, want Thessaloniki", first.Server)
	}
	// Congest the Ioannina path (both its links to full) so Xanthi wins.
	for _, pair := range [][2]topology.NodeID{
		{grnet.Patra, grnet.Ioannina},
		{grnet.Thessaloniki, grnet.Ioannina},
		{grnet.Thessaloniki, grnet.Athens},
	} {
		id := topology.MakeLinkID(pair[0], pair[1])
		l, err := d.Graph().LinkByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.UpsertLinkStats(id, l.CapacityMbps, t0.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	next, err := p.Plan(grnet.Patra, title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if next.Server != grnet.Xanthi {
		t.Fatalf("cluster 1 server = %s, want Xanthi after congestion", next.Server)
	}
}
