package db

import (
	"errors"
	"testing"

	"dvod/internal/grnet"
	"dvod/internal/topology"
)

// TestSetGraphSwapsAtomically pins the elastic-topology contract: SetGraph
// installs a validated view and bumps the version; stale or invalid graphs
// are rejected without disturbing the view.
func TestSetGraphSwapsAtomically(t *testing.T) {
	d := newDB(t)
	if d.GraphVersion() != 1 {
		t.Fatalf("boot graph version = %d, want 1", d.GraphVersion())
	}

	grown := d.Graph().Clone()
	if err := grown.AddNode("U9"); err != nil {
		t.Fatal(err)
	}
	if _, err := grown.AddLink("U9", grnet.Athens, 2); err != nil {
		t.Fatal(err)
	}
	v, err := d.SetGraph(grown)
	if err != nil {
		t.Fatalf("SetGraph: %v", err)
	}
	if v != 2 || d.GraphVersion() != 2 {
		t.Fatalf("version after grow = %d / %d, want 2", v, d.GraphVersion())
	}
	if !d.Graph().HasNode("U9") {
		t.Fatal("swapped view is missing the joined node")
	}

	if _, err := d.SetGraph(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	disconnected := topology.NewGraph()
	if err := disconnected.AddNode("X1"); err != nil {
		t.Fatal(err)
	}
	if err := disconnected.AddNode("X2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetGraph(disconnected); err == nil {
		t.Fatal("invalid graph accepted")
	}
	if d.GraphVersion() != 2 || !d.Graph().HasNode("U9") {
		t.Fatal("rejected swap disturbed the installed view")
	}
}

// TestSnapshotFiltersDepartedLinks pins the staleness fix: after the
// topology shrinks, Snapshot must not fail on (or carry) stats for links
// that left the graph — and the stats return if the link does.
func TestSnapshotFiltersDepartedLinks(t *testing.T) {
	d := newDB(t)
	gone := topology.MakeLinkID(grnet.Patra, grnet.Ioannina)
	kept := topology.MakeLinkID(grnet.Patra, grnet.Athens)
	if err := d.UpsertLinkStats(gone, 0.5, t0); err != nil {
		t.Fatal(err)
	}
	if err := d.UpsertLinkStats(kept, 0.2, t0); err != nil {
		t.Fatal(err)
	}

	full := d.Graph()
	shrunk, err := full.WithoutNode(grnet.Ioannina)
	if err != nil {
		t.Fatalf("WithoutNode: %v", err)
	}
	if _, err := d.SetGraph(shrunk); err != nil {
		t.Fatalf("SetGraph shrink: %v", err)
	}
	// Before the fix, NewSnapshot rejected the retained stats of departed
	// links with ErrLinkUnknown; the DB must filter them out instead.
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after shrink: %v", err)
	}
	if snap.Graph().HasNode(grnet.Ioannina) {
		t.Fatal("snapshot still sees the departed node")
	}
	if got := snap.Utilization(kept); got != 0.1 {
		t.Fatalf("surviving link utilization = %v, want 0.1", got)
	}

	// The node rejoins: its link's retained stats surface again.
	if _, err := d.SetGraph(full); err != nil {
		t.Fatalf("SetGraph regrow: %v", err)
	}
	snap, err = d.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after regrow: %v", err)
	}
	if got := snap.Utilization(gone); got != 0.25 {
		t.Fatalf("retained stats did not resurface: utilization = %v, want 0.25", got)
	}
}

// TestUnregisterServer pins the drain-completion path.
func TestUnregisterServer(t *testing.T) {
	d := newDB(t)
	if err := d.UnregisterServer(grnet.Patra); !errors.Is(err, ErrServerUnknown) {
		t.Fatalf("unregister of unknown = %v, want ErrServerUnknown", err)
	}
	if err := d.RegisterServer(grnet.Patra, "Patra VoD", t0); err != nil {
		t.Fatal(err)
	}
	if err := d.UnregisterServer(grnet.Patra); err != nil {
		t.Fatalf("UnregisterServer: %v", err)
	}
	if _, err := d.Server(grnet.Patra); !errors.Is(err, ErrServerUnknown) {
		t.Fatalf("server still registered after unregister: %v", err)
	}
	// Re-registration after a drain is a fresh join.
	if err := d.RegisterServer(grnet.Patra, "back", t0); err != nil {
		t.Fatalf("re-register after drain: %v", err)
	}
}
