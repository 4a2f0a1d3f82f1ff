package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dvod/internal/metrics"
	"dvod/internal/topology"
)

var t0 = time.Date(2000, time.April, 10, 8, 0, 0, 0, time.UTC)

func newBroker(t *testing.T, cfg Config) *Broker {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", Standard, true},
		{"premium", Premium, true},
		{"standard", Standard, true},
		{"background", Background, true},
		{"gold", "", false},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParseClass(%q) = %q, %v", c.in, got, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := New(Config{CapacityMbps: 10, MaxSessions: -1}); err == nil {
		t.Fatal("negative session cap accepted")
	}
	bad := map[Class]Policy{Premium: {MaxShare: 1.5}}
	if _, err := New(Config{CapacityMbps: 10, Classes: bad}); err == nil {
		t.Fatal("MaxShare > 1 accepted")
	}
	bad2 := map[Class]Policy{Premium: {MaxShare: 0.5, DegradeSteps: []float64{1.25}}}
	if _, err := New(Config{CapacityMbps: 10, Classes: bad2}); err == nil {
		t.Fatal("degrade step > 1 accepted")
	}
}

func TestAdmitReleaseAccounting(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10})
	la := topology.MakeLinkID("A", "B")
	g, err := b.Admit(Request{Class: Premium, Title: "t", BitrateMbps: 4, Links: []topology.LinkID{la}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degraded || g.BitrateMbps != 4 {
		t.Fatalf("grant = %+v", g)
	}
	if got := b.CommittedMbps(); got != 4 {
		t.Fatalf("committed = %g", got)
	}
	if got := b.LinkCommittedMbps(la); got != 4 {
		t.Fatalf("link committed = %g", got)
	}
	if b.Sessions() != 1 {
		t.Fatalf("sessions = %d", b.Sessions())
	}
	b.Release(g)
	b.Release(g) // idempotent
	if b.CommittedMbps() != 0 || b.Sessions() != 0 || b.LinkCommittedMbps(la) != 0 {
		t.Fatalf("release did not zero state: %g %d", b.CommittedMbps(), b.Sessions())
	}
	counts := b.Counts()
	if counts[Premium].Admitted != 1 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestTrunkReservationProtectsPremium(t *testing.T) {
	// Background may only push the node to 50%; premium may fill it.
	b := newBroker(t, Config{CapacityMbps: 10})
	g1, err := b.Admit(Request{Class: Background, BitrateMbps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Degraded {
		t.Fatal("first background degraded with idle node")
	}
	// 4 + 4 > 5, and every degrade step still exceeds the 50% share.
	_, err = b.Admit(Request{Class: Background, BitrateMbps: 4})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonCapacity {
		t.Fatalf("second background: %v", err)
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatal("rejection does not wrap ErrRejected")
	}
	// Premium still has the other half of the node.
	g2, err := b.Admit(Request{Class: Premium, BitrateMbps: 4})
	if err != nil {
		t.Fatalf("premium after background cap: %v", err)
	}
	if g2.Degraded {
		t.Fatal("premium degraded")
	}
	counts := b.Counts()
	if counts[Background].Rejected != 1 || counts[Background].Admitted != 1 || counts[Premium].Admitted != 1 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestDegradationLadder(t *testing.T) {
	// Background share = 5 Mbps. 3 committed; a 4 Mbps request fits only
	// at the 0.5 step (2 Mbps).
	b := newBroker(t, Config{CapacityMbps: 10})
	if _, err := b.Admit(Request{Class: Background, BitrateMbps: 3}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Admit(Request{Class: Background, BitrateMbps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Degraded || g.BitrateMbps != 2 {
		t.Fatalf("grant = %+v", g)
	}
	counts := b.Counts()
	if counts[Background].Degraded != 1 || counts[Background].Admitted != 2 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestSessionCap(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 100, MaxSessions: 2})
	g1, _ := b.Admit(Request{Class: Premium, BitrateMbps: 1})
	if _, err := b.Admit(Request{Class: Premium, BitrateMbps: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := b.Admit(Request{Class: Premium, BitrateMbps: 1})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonSessions {
		t.Fatalf("over cap: %v", err)
	}
	b.Release(g1)
	if _, err := b.Admit(Request{Class: Premium, BitrateMbps: 1}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestAdmitWaitQueuesUntilRelease(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10, Classes: map[Class]Policy{
		Premium: {MaxShare: 1, QueueWindow: 5 * time.Second},
	}})
	g1, err := b.Admit(Request{Class: Premium, BitrateMbps: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		g, err := b.AdmitWait(Request{Class: Premium, BitrateMbps: 8})
		if err == nil {
			b.Release(g)
		}
		done <- err
	}()
	// The waiter must be queued, not rejected, while g1 holds the node.
	select {
	case err := <-done:
		t.Fatalf("AdmitWait returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	b.Release(g1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued admit failed after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued admit never woke up")
	}
	if got := b.Counts()[Premium].Queued; got != 1 {
		t.Fatalf("queued count = %d", got)
	}
}

func TestAdmitWaitDeadline(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10, Classes: map[Class]Policy{
		Premium: {MaxShare: 1, QueueWindow: 30 * time.Millisecond},
	}})
	g1, err := b.Admit(Request{Class: Premium, BitrateMbps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release(g1)
	start := time.Now()
	_, err = b.AdmitWait(Request{Class: Premium, BitrateMbps: 8})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonCapacity {
		t.Fatalf("deadline rejection: %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("deadline fired too early")
	}
	// Zero queue window rejects immediately.
	b2 := newBroker(t, Config{CapacityMbps: 10, Classes: map[Class]Policy{
		Premium: {MaxShare: 1},
	}})
	g, err := b2.Admit(Request{Class: Premium, BitrateMbps: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release(g)
	if _, err := b2.AdmitWait(Request{Class: Premium, BitrateMbps: 9}); err == nil {
		t.Fatal("zero-window AdmitWait admitted over capacity")
	}
}

func TestLinkResidualCheck(t *testing.T) {
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B", "C"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	ab, err := g.AddLink("A", "B", 10)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := g.AddLink("B", "C", 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := topology.NewSnapshot(g, map[topology.LinkID]float64{ab: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b := newBroker(t, Config{
		CapacityMbps: 100,
		Snapshot:     func() (*topology.Snapshot, error) { return snap, nil },
	})
	// Route A-B-C bottlenecked by the 2 Mbps B-C link: a premium 3 Mbps
	// session cannot fit and premium never degrades.
	_, err = b.Admit(Request{Class: Premium, BitrateMbps: 3, Links: []topology.LinkID{ab, bc}})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonLink {
		t.Fatalf("bottlenecked premium: %v", err)
	}
	// Background at 3 Mbps degrades to 1.5, but the calibrated trunk share
	// still refuses it: 1.5 Mbps is three quarters of the thin link, which
	// would leave no room for a better class.
	_, err = b.Admit(Request{Class: Background, BitrateMbps: 3, Links: []topology.LinkID{ab, bc}})
	if !errors.As(err, &rej) || rej.Reason != ReasonLink {
		t.Fatalf("thin-link background: %v", err)
	}
	// Small background sessions may fill the class's half of the link — two
	// 0.5 Mbps sessions — and the reservation then blocks a third.
	for i := 0; i < 2; i++ {
		gr, err := b.Admit(Request{Class: Background, BitrateMbps: 0.5, Links: []topology.LinkID{ab, bc}})
		if err != nil {
			t.Fatalf("small background %d: %v", i, err)
		}
		if gr.Degraded {
			t.Fatalf("small background %d degraded: %+v", i, gr)
		}
	}
	if _, err := b.Admit(Request{Class: Background, BitrateMbps: 0.5, Links: []topology.LinkID{ab, bc}}); err == nil {
		t.Fatal("third background fit past the class's link share")
	}
}

func TestCalibratedLinkShare(t *testing.T) {
	cases := []struct {
		share, capacity, bitrate, want float64
	}{
		{1.0, 2, 1.5, 1.0},     // premium entitlement is never reduced
		{0.85, 2, 1.5, 0.25},   // thin link: keep one full-rate session free
		{0.85, 100, 1.5, 0.85}, // wide link: flat share unchanged
		{0.5, 2, 4, 0},         // session larger than the link: clamp to zero
		{0.85, 0, 1.5, 0.85},   // degenerate capacity: leave share alone
	}
	for _, c := range cases {
		if got := CalibratedLinkShare(c.share, c.capacity, c.bitrate); got != c.want {
			t.Errorf("CalibratedLinkShare(%g, %g, %g) = %g, want %g",
				c.share, c.capacity, c.bitrate, got, c.want)
		}
	}
}

// TestThinLinkProtectsPremium is the trunk-calibration regression: on a
// 2 Mbps access link a flat 0.85 share would let a standard session commit
// 1.5 Mbps and starve a later premium arrival; the calibrated share rejects
// the standard session so premium still fits.
func TestThinLinkProtectsPremium(t *testing.T) {
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	thin, err := g.AddLink("A", "B", 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := topology.NewSnapshot(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := newBroker(t, Config{
		CapacityMbps: 100,
		Snapshot:     func() (*topology.Snapshot, error) { return snap, nil },
	})
	_, err = b.Admit(Request{Class: Standard, BitrateMbps: 1.5, Links: []topology.LinkID{thin}})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonLink {
		t.Fatalf("standard on thin link: %v, want link rejection", err)
	}
	gr, err := b.Admit(Request{Class: Premium, BitrateMbps: 1.5, Links: []topology.LinkID{thin}})
	if err != nil {
		t.Fatalf("premium after standard attempt: %v", err)
	}
	if gr.Degraded {
		t.Fatalf("premium degraded: %+v", gr)
	}
	b.Release(gr)
}

func TestUnknownClassRejected(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10})
	_, err := b.Admit(Request{Class: "gold", BitrateMbps: 1})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonClass {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestMetricsPublished(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newBroker(t, Config{CapacityMbps: 10, Metrics: reg})
	g, err := b.Admit(Request{Class: Premium, BitrateMbps: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["admission.admitted.premium"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Gauges["admission.committed_mbps"] != 4 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
	b.Release(g)
	if v := reg.Snapshot().Gauges["admission.committed_mbps"]; v != 0 {
		t.Fatalf("committed gauge after release = %g", v)
	}
}

func TestConcurrentAdmitRelease(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 1000, MaxSessions: 1000})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				g, err := b.Admit(Request{Class: Standard, BitrateMbps: 1})
				if err == nil {
					b.Release(g)
				}
			}
		}()
	}
	wg.Wait()
	if b.CommittedMbps() != 0 || b.Sessions() != 0 {
		t.Fatalf("leaked state: %g Mbps, %d sessions", b.CommittedMbps(), b.Sessions())
	}
}

func TestSortedClassesDeterministic(t *testing.T) {
	ps := DefaultPolicies()
	got := sortedClasses(ps)
	want := []Class{Premium, Standard, Background}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedClasses = %v", got)
		}
	}
}

func TestAdmitWaitSharedCommitsOnce(t *testing.T) {
	g := topology.NewGraph()
	for _, n := range []topology.NodeID{"A", "B"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	link, err := g.AddLink("A", "B", 100)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := topology.NewSnapshot(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := newBroker(t, Config{
		CapacityMbps: 10,
		Snapshot:     func() (*topology.Snapshot, error) { return snap, nil },
	})
	req := Request{Class: Premium, Title: "hot", BitrateMbps: 4, Links: []topology.LinkID{link}}

	var grants []*Grant
	for i := 0; i < 4; i++ {
		gr, err := b.AdmitWaitShared(req, "watch:hot")
		if err != nil {
			t.Fatalf("shared admit %d: %v", i, err)
		}
		if !gr.Shared() {
			t.Fatalf("grant %d not marked shared", i)
		}
		grants = append(grants, gr)
	}
	// Four sessions, one reservation: a 4 Mbps cohort on a 10 Mbps node
	// would be impossible (16 Mbps) if each member committed its own rate.
	if got := b.CommittedMbps(); got != 4 {
		t.Fatalf("CommittedMbps = %g, want 4 (one shared reservation)", got)
	}
	if got := b.Sessions(); got != 4 {
		t.Fatalf("Sessions = %d, want 4", got)
	}
	if got := b.LinkCommittedMbps(link); got != 4 {
		t.Fatalf("LinkCommittedMbps = %g, want 4", got)
	}
	// Early leavers do not strand or free the group's bandwidth...
	b.Release(grants[0])
	b.Release(grants[1])
	if got := b.CommittedMbps(); got != 4 {
		t.Fatalf("CommittedMbps after partial release = %g, want 4", got)
	}
	// ...only the last one out returns it.
	b.Release(grants[2])
	b.Release(grants[3])
	b.Release(grants[3]) // idempotent
	if got := b.CommittedMbps(); got != 0 {
		t.Fatalf("CommittedMbps after full release = %g, want 0", got)
	}
	if got := b.LinkCommittedMbps(link); got != 0 {
		t.Fatalf("LinkCommittedMbps after full release = %g, want 0", got)
	}
	if got := b.Sessions(); got != 0 {
		t.Fatalf("Sessions after full release = %d, want 0", got)
	}
	// A fresh key after the group died starts a new reservation.
	gr, err := b.AdmitWaitShared(req, "watch:hot")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.CommittedMbps(); got != 4 {
		t.Fatalf("CommittedMbps for revived group = %g, want 4", got)
	}
	b.Release(gr)
}

func TestAdmitWaitSharedEmptyKeyIsUnshared(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10})
	g1, err := b.AdmitWaitShared(Request{Class: Premium, BitrateMbps: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	if g1.Shared() {
		t.Fatal("empty-key grant marked shared")
	}
	g2, err := b.AdmitWaitShared(Request{Class: Premium, BitrateMbps: 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.CommittedMbps(); got != 8 {
		t.Fatalf("CommittedMbps = %g, want 8 (independent sessions)", got)
	}
	b.Release(g1)
	b.Release(g2)
}

func TestAdmitWaitSharedRespectsSessionCap(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10, MaxSessions: 2})
	req := Request{Class: Background, BitrateMbps: 1}
	g1, err := b.AdmitWaitShared(req, "k")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.AdmitWaitShared(req, "k")
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.AdmitWaitShared(req, "k")
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != ReasonSessions {
		t.Fatalf("attach past session cap: %v, want sessions rejection", err)
	}
	b.Release(g1)
	b.Release(g2)
}

func TestAdmitWaitSharedConcurrentFirsts(t *testing.T) {
	b := newBroker(t, Config{CapacityMbps: 10, MaxSessions: 64})
	req := Request{Class: Premium, BitrateMbps: 4}
	const n = 16
	grants := make([]*Grant, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := b.AdmitWaitShared(req, "k")
			if err != nil {
				t.Error(err)
				return
			}
			grants[i] = g
		}()
	}
	wg.Wait()
	// However the race between first admitters resolves, the group must end
	// up holding exactly one 4 Mbps reservation.
	if got := b.CommittedMbps(); got != 4 {
		t.Fatalf("CommittedMbps = %g, want 4 after %d concurrent shared admits", got, n)
	}
	for _, g := range grants {
		b.Release(g)
	}
	if got := b.CommittedMbps(); got != 0 {
		t.Fatalf("CommittedMbps after release = %g, want 0", got)
	}
	if got := b.Sessions(); got != 0 {
		t.Fatalf("Sessions after release = %d, want 0", got)
	}
}
