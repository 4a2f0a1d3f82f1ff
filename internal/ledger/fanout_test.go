package ledger

import (
	"fmt"
	"net"
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// buildFleet wires n ledger replicas with loopback gossipers at the given
// fan-out. Each replica holds one distinct reservation, so convergence means
// full dissemination of every rumor to every replica.
func buildFleet(t *testing.T, n, fanout int) ([]*Ledger, []*Gossiper) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	nodes := make([]topology.NodeID, n)
	ledgers := make([]*Ledger, n)
	byNode := make(map[topology.NodeID]*Ledger, n)
	for i := range nodes {
		nodes[i] = topology.NodeID(fmt.Sprintf("N%02d", i))
		ledgers[i] = newTestLedger(t, nodes[i], clk)
		byNode[nodes[i]] = ledgers[i]
		ledgers[i].Reserve([]topology.LinkID{topology.LinkID(fmt.Sprintf("L|%02d", i))}, "standard", 1.0)
	}
	gossipers := make([]*Gossiper, n)
	for i := range nodes {
		led := ledgers[i]
		peers := make([]topology.NodeID, 0, n-1)
		for _, p := range nodes {
			if p != nodes[i] {
				peers = append(peers, p)
			}
		}
		g, err := NewGossiper(GossipConfig{
			Ledger: led,
			Peers:  peers,
			Fanout: fanout,
			Lookup: func(topology.NodeID) (string, error) { return "mem", nil },
			Dial: func(peer topology.NodeID, _ string) (*transport.Conn, error) {
				return dialToLedger(byNode[peer])(peer, "mem")
			},
			Clock: clk,
		})
		if err != nil {
			t.Fatalf("gossiper %s: %v", nodes[i], err)
		}
		gossipers[i] = g
	}
	return ledgers, gossipers
}

// roundsToConverge drives synchronous rounds until every digest matches,
// returning the round count (or failing past the cap).
func roundsToConverge(t *testing.T, ledgers []*Ledger, gossipers []*Gossiper, cap int) int {
	t.Helper()
	converged := func() bool {
		d := ledgers[0].Digest()
		for _, l := range ledgers[1:] {
			if l.Digest() != d {
				return false
			}
		}
		return true
	}
	for round := 1; round <= cap; round++ {
		for _, g := range gossipers {
			g.RunOnce()
		}
		if converged() {
			return round
		}
	}
	t.Fatalf("no convergence within %d rounds", cap)
	return 0
}

// TestFanoutConvergenceRegression pins the satellite claim: rumor-mongering
// fan-out 2 converges a 10-replica fleet in no more rounds than the
// historical one-peer walk — and within a fixed small bound, so a regression
// that slows dissemination (or a fan-out that silently stops honoring its
// width) fails loudly.
func TestFanoutConvergenceRegression(t *testing.T) {
	const n = 10
	l1, g1 := buildFleet(t, n, 1)
	rounds1 := roundsToConverge(t, l1, g1, 4*n)
	l2, g2 := buildFleet(t, n, 2)
	rounds2 := roundsToConverge(t, l2, g2, 4*n)
	t.Logf("convergence rounds over %d replicas: fanout1=%d fanout2=%d", n, rounds1, rounds2)
	if rounds2 > rounds1 {
		t.Fatalf("fanout 2 needed %d rounds, more than fanout 1's %d", rounds2, rounds1)
	}
	// Full push-pull at fan-out 2 disseminates everything across 10 replicas
	// within a handful of rounds; 6 leaves slack without hiding regressions.
	if rounds2 > 6 {
		t.Fatalf("fanout 2 needed %d rounds over %d replicas, want ≤ 6", rounds2, n)
	}
}

// dialToLedger answers exactly one exchange against the target ledger over an
// in-memory pipe, mirroring the server's ledger surface: hello, then one
// binary ledger-sync frame answered with a reply frame.
func dialToLedger(target *Ledger) func(topology.NodeID, string) (*transport.Conn, error) {
	return func(topology.NodeID, string) (*transport.Conn, error) {
		cp, sp := net.Pipe()
		client, server := transport.NewConn(cp), transport.NewConn(sp)
		go func() {
			defer server.Close()
			hello, err := server.ReadMessage()
			if err != nil || hello.Type != transport.TypeHello {
				return
			}
			if err := server.AcceptHello(hello); err != nil {
				return
			}
			_, fr, err := server.ReadFrameOrMessage(nil)
			if err != nil || fr == nil {
				return
			}
			req, err := transport.DecodeLedgerSyncFrame(fr)
			fr.Release()
			if err != nil {
				return
			}
			server.WriteLedgerSyncFrame(target.HandleSync(req), true)
		}()
		return client, nil
	}
}

// TestExpireOriginReclaimsImmediately pins the event-driven reclaim path: a
// fail event expires a dead origin's rows at once, the expiry watermark
// blocks relayed resurrection, and a genuinely returning origin relearns.
func TestExpireOriginReclaimsImmediately(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	b.Reserve([]topology.LinkID{"M|O"}, "premium", 2.0)
	syncPair(a, b)
	if got := a.RemoteReservedMbps("M|O"); got != 2.0 {
		t.Fatalf("A sees %v Mbps remote, want 2.0", got)
	}

	if !a.ExpireOrigin("B") {
		t.Fatal("ExpireOrigin reported nothing dropped")
	}
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("A still sees %v Mbps after event-driven reclaim", got)
	}
	// A third replica relaying B's old rows cannot resurrect them.
	c := newTestLedger(t, "C", clk)
	syncPair(c, b)
	syncPair(a, c)
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("relay resurrected %v Mbps of an expired origin", got)
	}
	// B itself comes back: its heartbeat advances the clock, resetting A's
	// watermark on the first exchange; the second relearns the full state.
	b.Beat()
	syncPair(a, b)
	syncPair(a, b)
	if got := a.RemoteReservedMbps("M|O"); got != 2.0 {
		t.Fatalf("A sees %v Mbps after B reasserted, want 2.0", got)
	}
	// Expiring the local origin is refused.
	if a.ExpireOrigin("A") {
		t.Fatal("expired the local origin")
	}
}
