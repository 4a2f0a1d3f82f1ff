package db

import (
	"errors"
	"testing"
	"time"

	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/topology"
)

var t0 = time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)

func newDB(t *testing.T) *DB {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	return New(g)
}

func TestRegisterServer(t *testing.T) {
	d := newDB(t)
	if err := d.RegisterServer(grnet.Patra, "Patra VoD", t0); err != nil {
		t.Fatalf("RegisterServer: %v", err)
	}
	e, err := d.Server(grnet.Patra)
	if err != nil {
		t.Fatal(err)
	}
	if e.Description != "Patra VoD" || !e.RegisteredAt.Equal(t0) {
		t.Fatalf("entry = %+v", e)
	}
	if err := d.RegisterServer(grnet.Patra, "again", t0); !errors.Is(err, ErrServerExists) {
		t.Fatalf("duplicate register error = %v", err)
	}
	if err := d.RegisterServer("U99", "ghost", t0); !errors.Is(err, topology.ErrNodeUnknown) {
		t.Fatalf("unknown node error = %v", err)
	}
	if _, err := d.Server(grnet.Athens); !errors.Is(err, ErrServerUnknown) {
		t.Fatalf("unregistered lookup error = %v", err)
	}
}

func TestServersSorted(t *testing.T) {
	d := newDB(t)
	for _, n := range []topology.NodeID{grnet.Xanthi, grnet.Athens, grnet.Patra} {
		if err := d.RegisterServer(n, "", t0); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Servers()
	if len(got) != 3 || got[0].Node != grnet.Athens || got[2].Node != grnet.Xanthi {
		t.Fatalf("Servers = %v", got)
	}
}

func TestLinkStatsRoundTrip(t *testing.T) {
	d := newDB(t)
	id := topology.MakeLinkID(grnet.Patra, grnet.Athens) // 2 Mbps link
	if err := d.UpsertLinkStats(id, 0.2, t0); err != nil {
		t.Fatalf("UpsertLinkStats: %v", err)
	}
	s, err := d.LinkStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.UsedMbps != 0.2 || s.Utilization != 0.1 || !s.UpdatedAt.Equal(t0) {
		t.Fatalf("stats = %+v", s)
	}
	if err := d.UpsertLinkStats("no--link", 1, t0); !errors.Is(err, topology.ErrLinkUnknown) {
		t.Fatalf("unknown link error = %v", err)
	}
	if _, err := d.LinkStats("no--link"); !errors.Is(err, topology.ErrLinkUnknown) {
		t.Fatalf("unknown link stats error = %v", err)
	}
	other := topology.MakeLinkID(grnet.Athens, grnet.Heraklio)
	if _, err := d.LinkStats(other); !errors.Is(err, ErrStale) {
		t.Fatalf("never-reported link error = %v", err)
	}
}

func TestLinkStatsNegativeClamped(t *testing.T) {
	d := newDB(t)
	id := topology.MakeLinkID(grnet.Patra, grnet.Athens)
	if err := d.UpsertLinkStats(id, -5, t0); err != nil {
		t.Fatal(err)
	}
	s, err := d.LinkStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.UsedMbps != 0 || s.Utilization != 0 {
		t.Fatalf("negative sample not clamped: %+v", s)
	}
}

func TestAllLinkStatsSorted(t *testing.T) {
	d := newDB(t)
	ids := []topology.LinkID{
		topology.MakeLinkID(grnet.Xanthi, grnet.Heraklio),
		topology.MakeLinkID(grnet.Patra, grnet.Athens),
	}
	for _, id := range ids {
		if err := d.UpsertLinkStats(id, 0.1, t0); err != nil {
			t.Fatal(err)
		}
	}
	got := d.AllLinkStats()
	if len(got) != 2 || got[0].ID >= got[1].ID {
		t.Fatalf("AllLinkStats = %v", got)
	}
}

func TestSnapshotFromStats(t *testing.T) {
	d := newDB(t)
	id := topology.MakeLinkID(grnet.Patra, grnet.Athens)
	if err := d.UpsertLinkStats(id, 1.82, t0); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if u := snap.Utilization(id); u != 0.91 {
		t.Fatalf("snapshot utilization = %g, want 0.91", u)
	}
	// Unreported links are idle.
	other := topology.MakeLinkID(grnet.Athens, grnet.Heraklio)
	if u := snap.Utilization(other); u != 0 {
		t.Fatalf("unreported link utilization = %g, want 0", u)
	}
}

func TestStaleLinks(t *testing.T) {
	d := newDB(t)
	id := topology.MakeLinkID(grnet.Patra, grnet.Athens)
	if err := d.UpsertLinkStats(id, 0.1, t0); err != nil {
		t.Fatal(err)
	}
	// At t0+1m with 2m budget: 6 links stale (never reported), not id.
	stale := d.StaleLinks(t0.Add(time.Minute), 2*time.Minute)
	if len(stale) != 6 {
		t.Fatalf("stale = %v (want 6 links)", stale)
	}
	for _, s := range stale {
		if s == id {
			t.Fatal("fresh link reported stale")
		}
	}
	// Much later, id is stale too.
	stale = d.StaleLinks(t0.Add(time.Hour), 2*time.Minute)
	if len(stale) != 7 {
		t.Fatalf("stale after 1h = %d links, want 7", len(stale))
	}
}

func TestSetHoldingUpdatesCatalog(t *testing.T) {
	d := newDB(t)
	if err := d.Catalog().AddTitle(media.Title{Name: "m", SizeBytes: 1, BitrateMbps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetHolding(grnet.Patra, "m", true, t0); err != nil {
		t.Fatal(err)
	}
	if !d.Catalog().Holds(grnet.Patra, "m") {
		t.Fatal("holding not recorded")
	}
	if err := d.SetHolding(grnet.Patra, "ghost", true, t0); err == nil {
		t.Fatal("SetHolding accepted unknown title")
	}
}
