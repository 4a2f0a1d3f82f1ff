package ledger

import (
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/topology"
)

func newTestLedger(t *testing.T, origin topology.NodeID, clk clock.Clock) *Ledger {
	t.Helper()
	l, err := New(Config{Origin: origin, TTL: 10 * time.Second, Clock: clk})
	if err != nil {
		t.Fatalf("new ledger %s: %v", origin, err)
	}
	return l
}

// sync runs one full push-pull exchange a→b and folds the reply back into a,
// exactly like one gossip round does over the wire.
func syncPair(a, b *Ledger) {
	reply := b.HandleSync(a.Sync(b.Origin()))
	a.Merge(reply)
}

// TestReserveVisibleAcrossReplicas pins the core property: after one
// exchange, B's broker sees A's reservation as remote load.
func TestReserveVisibleAcrossReplicas(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)

	a.Reserve([]topology.LinkID{"M|O"}, "premium", 1.5)
	if got := b.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("B sees %v Mbps before any gossip", got)
	}
	syncPair(a, b)
	if got := b.RemoteReservedMbps("M|O"); got != 1.5 {
		t.Fatalf("B sees %v Mbps remote, want 1.5", got)
	}
	if got := b.RemoteClassReservedMbps("M|O", "premium"); got != 1.5 {
		t.Fatalf("B sees %v Mbps remote premium, want 1.5", got)
	}
	if got := b.RemoteClassReservedMbps("M|O", "standard"); got != 0 {
		t.Fatalf("B sees %v Mbps remote standard, want 0", got)
	}
	// A's own rows are local, not remote, on A.
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("A counts its own reservation as remote: %v", got)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests diverge after exchange: %s vs %s", a.Digest(), b.Digest())
	}
}

// TestReleaseTombstonePropagates pins that a release cannot be resurrected
// by last-writer-wins: the zero-rate row outranks the old value everywhere.
func TestReleaseTombstonePropagates(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	c := newTestLedger(t, "C", clk)

	links := []topology.LinkID{"M|O"}
	a.Reserve(links, "premium", 1.5)
	syncPair(a, b)
	syncPair(b, c) // C learns A's row via B

	a.Release(links, "premium", 1.5)
	syncPair(a, c)
	if got := c.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("C still sees %v Mbps after release", got)
	}
	// B still relays the stale row; C must not regress.
	syncPair(b, c)
	if got := c.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("stale relay resurrected %v Mbps on C", got)
	}
	// Full convergence: everyone equal after a ring of exchanges.
	syncPair(a, b)
	if a.Digest() != b.Digest() || b.Digest() != c.Digest() {
		t.Fatalf("digests diverge: %s %s %s", a.Digest(), b.Digest(), c.Digest())
	}
}

// TestMergeCommutes pins the CRDT property: applying the same payloads in
// different orders yields the same state.
func TestMergeCommutes(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	a.Reserve([]topology.LinkID{"M|O", "A|M"}, "premium", 1.5)
	a.Reserve([]topology.LinkID{"M|O"}, "standard", 0.8)
	b.Reserve([]topology.LinkID{"M|O"}, "premium", 2.0)

	pa := a.Sync("X")
	pb := b.Sync("X")

	x := newTestLedger(t, "X", clk)
	y := newTestLedger(t, "Y", clk)
	x.Merge(pa)
	x.Merge(pb)
	y.Merge(pb)
	y.Merge(pa)
	// Digests include origin-distinct rows only; X and Y hold the same set.
	if got, want := x.Rows(), y.Rows(); len(got) != len(want) {
		t.Fatalf("row counts diverge: %d vs %d", len(got), len(want))
	}
	for i, r := range x.Rows() {
		if y.Rows()[i] != r {
			t.Fatalf("row %d diverges: %+v vs %+v", i, r, y.Rows()[i])
		}
	}
	// Idempotent: re-merging changes nothing.
	before := x.Digest()
	x.Merge(pa)
	x.Merge(pb)
	if x.Digest() != before {
		t.Fatal("re-merge changed state")
	}
}

// TestRestartFullStateFallback pins the restart path: a replica that lost
// everything advertises an empty vector and relearns the full state in one
// exchange, within two rounds of digest equality.
func TestRestartFullStateFallback(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	a.Reserve([]topology.LinkID{"M|O"}, "premium", 1.5)
	b.Reserve([]topology.LinkID{"M|O"}, "standard", 0.8)
	syncPair(a, b)

	// B restarts empty. The clock moves (a real restart always takes time),
	// which seeds B's new epoch above its old sequences.
	clk.Advance(time.Second)
	b2 := newTestLedger(t, "B", clk)
	syncPair(b2, a)
	if got := b2.RemoteReservedMbps("M|O"); got != 1.5 {
		t.Fatalf("restarted B sees %v Mbps remote, want 1.5", got)
	}
	syncPair(b2, a)
	if a.Digest() != b2.Digest() {
		t.Fatalf("digests diverge after restart resync: %s vs %s", a.Digest(), b2.Digest())
	}
}

// TestRestartReassertsOwnRows pins zombie suppression: after B restarts, the
// old B rows still circulating via A must not be re-adopted as B's state —
// B reasserts at fresher sequences and tombstones cells it no longer claims.
func TestRestartReassertsOwnRows(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	b.Reserve([]topology.LinkID{"M|O"}, "premium", 2.0)
	syncPair(a, b) // A now holds B's pre-restart row

	clk.Advance(time.Second)
	b2 := newTestLedger(t, "B", clk)
	// B's only live reservation after restart:
	b2.Reserve([]topology.LinkID{"A|M"}, "premium", 1.0)
	syncPair(b2, a) // A pushes the zombie M|O row back at B
	if got := b2.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("zombie row counted as remote on B: %v", got)
	}
	syncPair(a, b2)
	syncPair(b2, a)
	if a.Digest() != b2.Digest() {
		t.Fatalf("digests diverge after reassert: %s vs %s", a.Digest(), b2.Digest())
	}
	// The zombie cell must be dead on A too: B tombstoned it.
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("A still counts zombie B row: %v Mbps", got)
	}
	if got := a.RemoteReservedMbps("A|M"); got != 1.0 {
		t.Fatalf("A sees %v Mbps on A|M, want B's live 1.0", got)
	}
}

// TestLeaseExpiryFreesReservations pins the dead-origin path: once B falls
// silent past the TTL, A expires B's rows, and stale relays cannot bring
// them back.
func TestLeaseExpiryFreesReservations(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	c := newTestLedger(t, "C", clk)
	b.Reserve([]topology.LinkID{"M|O"}, "premium", 2.0)
	syncPair(a, b)
	syncPair(c, b)
	if got := a.RemoteReservedMbps("M|O"); got != 2.0 {
		t.Fatalf("A sees %v before expiry", got)
	}

	// B dies. Its lease runs out on A.
	clk.Advance(11 * time.Second)
	if n := a.ExpireStale(); n != 1 {
		t.Fatalf("expired %d origins, want 1", n)
	}
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("A still sees %v Mbps after expiry", got)
	}
	// C never expired B and still relays the row; A must not re-adopt it.
	a.Merge(c.Sync("A"))
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("stale relay resurrected expired origin: %v Mbps", got)
	}
}

// TestLeaseRevivalRelearnsState pins revival: an expired origin that beats
// again gets its lease back and its rows relearned in full.
func TestLeaseRevivalRelearnsState(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	b.Reserve([]topology.LinkID{"M|O"}, "premium", 2.0)
	syncPair(a, b)

	clk.Advance(11 * time.Second)
	a.ExpireStale()
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("A sees %v after expiry", got)
	}

	// B comes back: heartbeat advances its clock, then the next exchange
	// must carry the full row set (A reset its watermark on revival).
	b.Beat()
	syncPair(a, b)
	syncPair(a, b)
	if got := a.RemoteReservedMbps("M|O"); got != 2.0 {
		t.Fatalf("A sees %v after revival, want 2.0", got)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests diverge after revival: %s vs %s", a.Digest(), b.Digest())
	}
}

// TestRelayCannotRenewLease pins that hearing *about* an origin via a relay
// whose clock has not advanced does not renew the lease: only fresh
// heartbeats keep an origin alive.
func TestRelayCannotRenewLease(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	c := newTestLedger(t, "C", clk)
	b.Reserve([]topology.LinkID{"M|O"}, "premium", 2.0)
	syncPair(a, b)
	syncPair(c, b)

	// B dies; C keeps gossiping its frozen clock at A every second.
	for i := 0; i < 15; i++ {
		clk.Advance(time.Second)
		a.Merge(c.Sync("A"))
		a.ExpireStale()
		c.Beat()
	}
	if got := a.RemoteReservedMbps("M|O"); got != 0 {
		t.Fatalf("frozen relayed clock kept B alive: %v Mbps", got)
	}
}

// TestExpiredRowsStayGauged pins the ledger.stale_expired counter and entry
// gauge wiring.
func TestMetricsPublished(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	a.Reserve([]topology.LinkID{"M|O"}, "premium", 1.5)
	if got := a.reg.Gauge("ledger.entries").Value(); got != 1 {
		t.Fatalf("ledger.entries = %v, want 1", got)
	}
	if got := a.reg.Gauge("ledger.local_mbps.M|O").Value(); got != 1.5 {
		t.Fatalf("local gauge = %v, want 1.5", got)
	}
	b := newTestLedger(t, "B", clk)
	b.Merge(a.Sync("B"))
	if got := b.reg.Gauge("ledger.remote_mbps.M|O").Value(); got != 1.5 {
		t.Fatalf("remote gauge on B = %v, want 1.5", got)
	}
}

// TestSyncDeltaOnly pins the anti-entropy efficiency property: after one
// full exchange, the next payload to the same peer carries no rows.
func TestSyncDeltaOnly(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	a.Reserve([]topology.LinkID{"M|O"}, "premium", 1.5)
	syncPair(a, b)
	if p := a.Sync("B"); len(p.Rows) != 0 {
		t.Fatalf("second sync resends %d rows", len(p.Rows))
	}
	// A new local write produces exactly the changed rows.
	a.Reserve([]topology.LinkID{"A|M"}, "premium", 1.5)
	if p := a.Sync("B"); len(p.Rows) != 1 {
		t.Fatalf("delta sync carries %d rows, want 1", len(p.Rows))
	}
}

// TestHandleSyncRepliesExactDelta pins the pull half: the responder's reply
// contains exactly what the requester is missing.
func TestHandleSyncRepliesExactDelta(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	a.Reserve([]topology.LinkID{"M|O"}, "premium", 1.5)
	b.Reserve([]topology.LinkID{"M|O"}, "standard", 0.8)

	// The reply carries what A is missing (B's row) plus the self-audit echo
	// of A's own rows — nothing else.
	reply := b.HandleSync(a.Sync("B"))
	var fromB, echoA int
	for _, r := range reply.Rows {
		switch r.Origin {
		case "B":
			fromB++
		case "A":
			echoA++
		default:
			t.Fatalf("reply carries foreign row %+v", r)
		}
	}
	if fromB != 1 || echoA != 1 {
		t.Fatalf("reply carries %d B rows and %d A echoes, want 1 and 1", fromB, echoA)
	}
	a.Merge(reply)
	if a.Digest() != b.Digest() {
		t.Fatal("digests diverge after one push-pull")
	}
}

// TestGossiperRunOnceConverges drives two gossipers over an in-memory wire
// and checks digest convergence.
func TestGossiperRunOnceConverges(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	a := newTestLedger(t, "A", clk)
	b := newTestLedger(t, "B", clk)
	a.Reserve([]topology.LinkID{"M|O"}, "premium", 1.5)
	b.Reserve([]topology.LinkID{"M|O"}, "standard", 0.8)

	lookup := func(topology.NodeID) (string, error) { return "mem", nil }
	ga, err := NewGossiper(GossipConfig{
		Ledger: a, Peers: []topology.NodeID{"B"},
		Lookup: lookup, Dial: dialToLedger(b), Clock: clk,
	})
	if err != nil {
		t.Fatalf("gossiper: %v", err)
	}
	ga.RunOnce()
	if a.Digest() != b.Digest() {
		t.Fatalf("digests diverge after gossip round: %s vs %s", a.Digest(), b.Digest())
	}
	if got := b.RemoteReservedMbps("M|O"); got != 1.5 {
		t.Fatalf("B sees %v Mbps remote after gossip, want 1.5", got)
	}
}
