//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only meaningful without it.

package core

import (
	"testing"

	"dvod/internal/grnet"
	"dvod/internal/topology"
)

// TestVRASelectAllocs pins the per-cluster planning cost: one remote VRA
// selection on GRNET allocates only the returned path. Link weights are
// cached on the snapshot, Dijkstra's scratch space is pooled and indexed by
// node ordinal, and the graph is walked without copying it.
func TestVRASelectAllocs(t *testing.T) {
	snap := snapshotAt(t, grnet.At10am)
	cands := []topology.NodeID{grnet.Thessaloniki, grnet.Xanthi}
	var dec Decision
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if dec, err = (VRA{}).Select(snap, grnet.Patra, cands); err != nil {
			t.Fatal(err)
		}
	})
	if dec.Server != grnet.Thessaloniki || dec.Local {
		t.Fatalf("selected %s (local %v), want remote %s", dec.Server, dec.Local, grnet.Thessaloniki)
	}
	if allocs > 1 {
		t.Fatalf("VRA.Select allocates %.0f times per call, want 1 (the path)", allocs)
	}
}
