package dvod

import (
	"errors"
	"net"
	"testing"
	"time"

	"dvod/internal/admission"
	"dvod/internal/clock"
)

// TestClusterChurnAcceptance is the elastic-membership acceptance test: a
// three-node fleet on a virtual clock grows by one server mid-run (the DMA
// re-replicates the hottest title onto the joiner and it takes watch load),
// gracefully drains another with zero failed watches, then hard-kills a
// third — the survivors' round-counted failure detector marks it Failed and
// the event-driven hook reclaims its ledger leases immediately, with no
// virtual time advanced, far inside the lease TTL. Every phase is driven by
// synchronous gossip rounds, so the whole lifecycle is deterministic.
func TestClusterChurnAcceptance(t *testing.T) {
	const (
		alpha = NodeID("alpha")
		beta  = NodeID("beta")
		gamma = NodeID("gamma")
		delta = NodeID("delta")
	)
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	spec := TopologySpec{
		Nodes: []NodeID{alpha, beta, gamma},
		Links: []LinkSpec{
			{A: alpha, B: beta, CapacityMbps: 10},
			{A: beta, B: gamma, CapacityMbps: 10},
			{A: alpha, B: gamma, CapacityMbps: 10},
		},
	}
	svc, err := New(spec,
		WithClusterBytes(4096),
		WithDisks(3, 1<<20),
		WithAdmission(100),
		WithClock(clk),
		WithMembership(250*time.Millisecond),
		WithFrontDoor(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	zorba := Title{Name: "zorba", SizeBytes: 40_000, BitrateMbps: 1.5}
	rare := Title{Name: "rare-print", SizeBytes: 24_000, BitrateMbps: 1.5}
	for _, title := range []Title{zorba, rare} {
		if err := svc.AddTitle(title); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload(alpha, "zorba"); err != nil {
		t.Fatal(err)
	}
	// Beta is the sole holder of rare-print: the drain must evacuate it.
	if err := svc.Preload(beta, "rare-print"); err != nil {
		t.Fatal(err)
	}

	failedWatches := 0
	watch := func(home NodeID, title string) PlaybackStats {
		t.Helper()
		p, err := svc.Player(home)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := p.Watch(title)
		if err != nil {
			failedWatches++
			t.Fatalf("watch %q from %s failed: %v", title, home, err)
		}
		return stats
	}

	for range 3 {
		svc.MembershipRound()
	}
	if st := svc.MemberStates(alpha); st[beta] != MemberAlive || st[gamma] != MemberAlive {
		t.Fatalf("boot membership view at alpha = %v", st)
	}

	// The front door bounces a non-holder's watch to the holder — and the
	// served watches make zorba the hottest title for the coming join.
	for range 2 {
		stats := watch(beta, "zorba")
		if stats.Redirects != 1 || stats.RedirectPath[0] != alpha {
			t.Fatalf("front-door bounce = %d via %v, want 1 via [alpha]", stats.Redirects, stats.RedirectPath)
		}
	}

	// ---- Phase: join. Delta enters the running fleet.
	if err := svc.AddServer(delta, []LinkSpec{{A: delta, B: alpha, CapacityMbps: 10}}); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	if !svc.caches[delta].Resident("zorba") {
		t.Fatal("joiner was not re-replicated the hottest title")
	}
	for range 3 {
		svc.MembershipRound()
	}
	for _, viewer := range []NodeID{alpha, beta, gamma} {
		if st := svc.MemberStates(viewer); st[delta] != MemberAlive {
			t.Fatalf("%s does not see the joiner alive: %v", viewer, st)
		}
	}
	// The joiner serves its replicated title directly — no bounce.
	if stats := watch(delta, "zorba"); stats.Redirects != 0 {
		t.Fatalf("joiner bounced its own resident title %d times", stats.Redirects)
	}

	// ---- Phase: graceful drain of beta, with zero failed watches.
	if err := svc.BeginDrain(beta); err != nil {
		t.Fatalf("BeginDrain: %v", err)
	}
	holders, err := svc.Holders("rare-print")
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) < 2 {
		t.Fatalf("sole holding not evacuated before the drain: holders = %v", holders)
	}
	// New watches landing on the draining node bounce away and succeed.
	if stats := watch(beta, "rare-print"); stats.Redirects == 0 {
		t.Fatal("draining node served a new watch instead of redirecting")
	}
	if stats := watch(beta, "zorba"); stats.Redirects == 0 {
		t.Fatal("draining node served a new watch instead of redirecting")
	}
	for range 3 {
		svc.MembershipRound()
	}
	if err := svc.FinishDrain(beta); err != nil {
		t.Fatalf("FinishDrain: %v", err)
	}
	for range 3 {
		svc.MembershipRound()
	}
	for _, viewer := range []NodeID{alpha, gamma, delta} {
		if st := svc.MemberStates(viewer); st[beta] != MemberLeft {
			t.Fatalf("%s did not learn the drained node left: %v", viewer, st)
		}
	}
	// The evacuated title survives its old holder's departure.
	watch(alpha, "rare-print")
	if failedWatches != 0 {
		t.Fatalf("%d watches failed across the drain, want 0", failedWatches)
	}

	// ---- Phase: hard kill of gamma. First give it a ledger lease to lose.
	ag := MakeLinkID(alpha, gamma)
	if _, err := svc.brokers[gamma].Admit(admission.Request{
		Class: admission.Premium, BitrateMbps: 3, Links: []LinkID{ag},
	}); err != nil {
		t.Fatal(err)
	}
	if r := gossipUntilConverged(svc, 8); r < 0 {
		t.Fatalf("ledgers never converged before the kill: %v", svc.LedgerDigests())
	}
	if got := svc.ledgers[alpha].RemoteReservedMbps(ag); got != 3 {
		t.Fatalf("alpha sees %g Mbps of gamma's lease pre-kill, want 3", got)
	}
	if err := svc.StopServer(gamma); err != nil {
		t.Fatal(err)
	}
	// Round-counted detection: survivors beat, gamma's heartbeat freezes,
	// Suspect after 3 quiet rounds, Failed after 6 — no wall time involved.
	for range 10 {
		svc.MembershipRound()
	}
	for _, viewer := range []NodeID{alpha, delta} {
		if st := svc.MemberStates(viewer); st[gamma] != MemberFailed {
			t.Fatalf("%s never marked the killed node failed: %v", viewer, st)
		}
	}
	// Event-driven lease reclaim: the virtual clock has not moved since the
	// kill, so this is strictly inside the 10 s TTL — the fail event, not
	// lease expiry, reclaimed the bandwidth.
	for _, survivor := range []NodeID{alpha, delta} {
		if got := svc.ledgers[survivor].RemoteReservedMbps(ag); got != 0 {
			t.Fatalf("%s still counts %g Mbps for the killed node", survivor, got)
		}
	}
	var reclaimed int64
	for _, survivor := range []NodeID{alpha, delta} {
		reclaimed += svc.Metrics()[survivor].Counters["ledger.origin_expired"]
	}
	if reclaimed == 0 {
		t.Fatal("ledger.origin_expired never incremented on the survivors")
	}
	// The shrunken fleet keeps serving.
	watch(alpha, "zorba")
	if failedWatches != 0 {
		t.Fatalf("%d watches failed across the churn, want 0", failedWatches)
	}
}

// TestChurnSuspectRecoversAfterPartition pins the non-lethal path of the
// failure detector under deterministic fault injection: a transient
// partition drives a peer to Suspect on the survivors, and the heal — the
// partitioned node's refutation at a higher incarnation — restores Alive
// without any Failed verdict or lease reclaim.
func TestChurnSuspectRecoversAfterPartition(t *testing.T) {
	const (
		a = NodeID("a1")
		b = NodeID("b1")
		c = NodeID("c1")
	)
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	// Partition c between T+1s and T+2s.
	var plan FaultPlan
	plan.FailPeer(time.Second, time.Second, c)
	spec := TopologySpec{
		Nodes: []NodeID{a, b, c},
		Links: []LinkSpec{
			{A: a, B: b, CapacityMbps: 10},
			{A: b, B: c, CapacityMbps: 10},
			{A: a, B: c, CapacityMbps: 10},
		},
	}
	svc, err := New(spec,
		WithAdmission(100),
		WithClock(clk),
		WithMembership(250*time.Millisecond),
		WithFaultPlan(plan, 11),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		svc.MembershipRound()
	}
	if st := svc.MemberStates(a); st[c] != MemberAlive {
		t.Fatalf("pre-partition view at a = %v", st)
	}

	// Inside the partition window: c goes quiet, survivors reach Suspect
	// (3 rounds) but must not reach Failed (6) before the heal.
	clk.Advance(1200 * time.Millisecond)
	for range 4 {
		svc.MembershipRound()
	}
	if st := svc.MemberStates(a); st[c] != MemberSuspect {
		t.Fatalf("mid-partition view at a = %v, want %s suspect", st, c)
	}

	// Heal: c refutes the suspicion at a bumped incarnation and recovers.
	clk.Advance(time.Second)
	for range 4 {
		svc.MembershipRound()
	}
	for _, viewer := range []NodeID{a, b} {
		if st := svc.MemberStates(viewer); st[c] != MemberAlive {
			t.Fatalf("%s did not see the healed node recover: %v", viewer, st)
		}
	}
}

// TestChurnJoinRacesClose runs a join beside Close. Whichever wins, no
// listener stays open: a join that loses returns the closed error before it
// builds anything, and one that wins is shut down by Close with the rest.
func TestChurnJoinRacesClose(t *testing.T) {
	for range 5 {
		svc, err := New(GRNETTopology(), WithDisks(1, 1<<20), WithAdmission(100), WithMembership(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Start(); err != nil {
			t.Fatal(err)
		}
		joined := make(chan error, 1)
		go func() {
			joined <- svc.AddServer("U9", []LinkSpec{{A: "U9", B: "U1", CapacityMbps: 10}})
		}()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		joinErr := <-joined
		addr, addrErr := svc.ServerAddr("U9")
		switch {
		case joinErr == nil && addrErr == nil:
			if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				c.Close()
				t.Fatalf("joiner still listening on %s after Close", addr)
			}
		case errors.Is(joinErr, errClosed):
			if addrErr == nil {
				t.Fatalf("a refused join left a server at %q", addr)
			}
		default:
			t.Fatalf("join beside Close = %v (server lookup %v)", joinErr, addrErr)
		}
	}
}
