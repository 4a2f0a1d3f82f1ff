package membership

import (
	"testing"

	"dvod/internal/metrics"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

func newTestTracker(t *testing.T, self topology.NodeID, seeds ...topology.NodeID) *Tracker {
	t.Helper()
	// Local health is disabled in unit trackers so detection windows are the
	// configured constants; TestLocalHealthStretchesWindows covers the LHM.
	tr, err := New(Config{Self: self, Seeds: seeds, DisableLocalHealth: true})
	if err != nil {
		t.Fatalf("new tracker %s: %v", self, err)
	}
	return tr
}

// syncPair runs one push-pull exchange a→b and folds the reply back into a,
// exactly like one gossip round does over the wire.
func syncPair(t *testing.T, a, b *Tracker) {
	t.Helper()
	reply, err := b.HandleSync(a.SyncFor(b.Self()))
	if err != nil {
		t.Fatalf("%s handles %s's sync: %v", b.Self(), a.Self(), err)
	}
	a.MergeReply(b.Self(), reply)
}

// push delivers p to tr as the request leg of an exchange from p.From at
// epoch 1, the way a peer's gossip reaches it.
func push(t *testing.T, tr *Tracker, p transport.MemberSyncPayload) {
	t.Helper()
	p.Epoch = 1
	if _, err := tr.HandleSync(p); err != nil {
		t.Fatalf("%s handles %s's sync: %v", tr.Self(), p.From, err)
	}
}

// failNode drives tr's failure detector against n exactly like rounds of
// failed dials would: pending contacts to the suspect threshold, a failed
// indirect probe, then the suspect-age sweep to the fail verdict.
func failNode(t *testing.T, tr *Tracker, n topology.NodeID) {
	t.Helper()
	for i := 0; i < DefaultSuspectRounds; i++ {
		tr.Beat()
		tr.ReportContactFailed(n)
	}
	probed := false
	for _, p := range tr.StartProbes() {
		if p.Target == n {
			probed = true
			tr.ReportIndirect(n, false)
		}
	}
	if !probed {
		t.Fatalf("no indirect probe for %s after %d failed contacts", n, DefaultSuspectRounds)
	}
	for i := DefaultSuspectRounds; i < DefaultFailRounds; i++ {
		tr.Beat()
	}
}

func stateOf(t *testing.T, tr *Tracker, n topology.NodeID) State {
	t.Helper()
	m, ok := tr.Member(n)
	if !ok {
		t.Fatalf("%s unknown to %s", n, tr.Self())
	}
	return m.State
}

func TestSeedsStartAlive(t *testing.T) {
	tr := newTestTracker(t, "A", "A", "B", "C", "")
	ms := tr.Members()
	if len(ms) != 3 {
		t.Fatalf("got %d members, want 3 (self + 2 seeds, blanks and self-seed dropped)", len(ms))
	}
	self, _ := tr.Member("A")
	if self.Incarnation != 1 || self.State != Alive {
		t.Fatalf("self entry %+v, want incarnation 1 alive", self)
	}
	seed, _ := tr.Member("B")
	if seed.Incarnation != 0 {
		t.Fatalf("seed incarnation %d, want 0 so self-announcements outrank it", seed.Incarnation)
	}
}

func TestMergePrecedence(t *testing.T) {
	tr := newTestTracker(t, "A", "B")

	// Higher incarnation replaces everything.
	push(t, tr, transport.MemberSyncPayload{From: "B", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 3, Heartbeat: 5, State: "alive"},
	}})
	if got, _ := tr.Member("B"); got.Incarnation != 3 || got.Heartbeat != 5 {
		t.Fatalf("B after higher-incarnation merge: %+v", got)
	}

	// Equal incarnation: the worse state wins…
	push(t, tr, transport.MemberSyncPayload{From: "C", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 3, Heartbeat: 4, State: "suspect"},
	}})
	if got := stateOf(t, tr, "B"); got != Suspect {
		t.Fatalf("B state %v after worse-state merge, want suspect", got)
	}
	// …and a better state at the same incarnation cannot undo it.
	push(t, tr, transport.MemberSyncPayload{From: "C", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 3, Heartbeat: 9, State: "alive"},
	}})
	if got := stateOf(t, tr, "B"); got != Suspect {
		t.Fatalf("B state %v after better-state merge at equal incarnation, want suspect", got)
	}

	// A higher incarnation from B itself (refutation) revives it.
	push(t, tr, transport.MemberSyncPayload{From: "B", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 4, Heartbeat: 1, State: "alive"},
	}})
	if got := stateOf(t, tr, "B"); got != Alive {
		t.Fatalf("B state %v after refutation, want alive", got)
	}

	// Stale lower incarnation is ignored entirely.
	push(t, tr, transport.MemberSyncPayload{From: "C", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 2, Heartbeat: 100, State: "failed"},
	}})
	if got, _ := tr.Member("B"); got.State != Alive || got.Incarnation != 4 {
		t.Fatalf("B after stale merge: %+v, want alive at incarnation 4", got)
	}
}

func TestMergeCommutes(t *testing.T) {
	views := []transport.MemberSyncPayload{
		{From: "X", Members: []transport.MemberEntry{
			{Node: "B", Incarnation: 2, Heartbeat: 7, State: "alive"},
			{Node: "C", Incarnation: 1, Heartbeat: 3, State: "suspect"},
		}},
		{From: "Y", Members: []transport.MemberEntry{
			{Node: "B", Incarnation: 2, Heartbeat: 4, State: "suspect"},
			{Node: "C", Incarnation: 2, Heartbeat: 1, State: "alive"},
		}},
	}
	ab := newTestTracker(t, "A")
	ba := newTestTracker(t, "A")
	push(t, ab, views[0])
	push(t, ab, views[1])
	push(t, ba, views[1])
	push(t, ba, views[0])
	for _, n := range []topology.NodeID{"B", "C"} {
		x, _ := ab.Member(n)
		y, _ := ba.Member(n)
		if x != y {
			t.Fatalf("merge order changed %s: %+v vs %+v", n, x, y)
		}
	}
}

// TestMixedVersionStateDegradesToSuspect pins parseState's safety rule: a
// state string minted by a newer build must degrade to Suspect (never count
// as healthy) when an older node merges it — the JSON-path twin of the
// binary codec's memberStateByte degradation.
func TestMixedVersionStateDegradesToSuspect(t *testing.T) {
	for _, unknown := range []string{"quarantined-v9", "ALIVE", ""} {
		if got := parseState(unknown); got != Suspect {
			t.Fatalf("parseState(%q) = %v, want suspect", unknown, got)
		}
	}
	tr := newTestTracker(t, "A", "B")
	push(t, tr, transport.MemberSyncPayload{From: "C", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 7, Heartbeat: 1, State: "quarantined-v9"},
	}})
	if got := stateOf(t, tr, "B"); got != Suspect {
		t.Fatalf("B %v after merging an unknown future state, want the suspect degradation", got)
	}
	// And the degraded entry still obeys the usual refutation rules.
	push(t, tr, transport.MemberSyncPayload{From: "B", Members: []transport.MemberEntry{
		{Node: "B", Incarnation: 8, Heartbeat: 1, State: "alive"},
	}})
	if got := stateOf(t, tr, "B"); got != Alive {
		t.Fatalf("B %v after refuting the degraded state, want alive", got)
	}
}

// TestProbeDrivenFailureDetection pins the detection pipeline: consecutive
// failed contacts alone do not convict — the verdict needs the failed
// indirect probe, and the fail verdict needs the suspect-age sweep.
func TestProbeDrivenFailureDetection(t *testing.T) {
	var events []Event
	reg := metrics.NewRegistry()
	tr, err := New(Config{Self: "A", Seeds: []topology.NodeID{"B", "C", "D"},
		DisableLocalHealth: true, Metrics: reg,
		OnEvent: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for i := 0; i < DefaultSuspectRounds-1; i++ {
		tr.Beat()
		tr.ReportContactFailed("B")
	}
	if probes := tr.StartProbes(); len(probes) != 0 {
		t.Fatalf("probe fired after %d failures, want none before the threshold", DefaultSuspectRounds-1)
	}
	tr.Beat()
	tr.ReportContactFailed("B")
	if got := stateOf(t, tr, "B"); got != Alive {
		t.Fatalf("B %v before the indirect probe resolved, want alive (no verdict on direct evidence alone)", got)
	}
	probes := tr.StartProbes()
	if len(probes) != 1 || probes[0].Target != "B" {
		t.Fatalf("probes %+v, want exactly one for B", probes)
	}
	if len(probes[0].Helpers) == 0 {
		t.Fatalf("probe for B got no helpers with C and D alive")
	}
	for _, h := range probes[0].Helpers {
		if h == "A" || h == "B" {
			t.Fatalf("helper set %v includes self or the target", probes[0].Helpers)
		}
	}
	// A rescue clears the streak: the fault was on our path, not the member.
	tr.ReportIndirect("B", true)
	if got := stateOf(t, tr, "B"); got != Alive {
		t.Fatalf("B %v after an indirect rescue, want alive", got)
	}
	if got := reg.Counter("membership.indirect_rescues").Value(); got != 1 {
		t.Fatalf("indirect_rescues %d, want 1", got)
	}

	// A fresh streak plus a failed probe convicts.
	for i := 0; i < DefaultSuspectRounds; i++ {
		tr.Beat()
		tr.ReportContactFailed("B")
	}
	probes = tr.StartProbes()
	if len(probes) != 1 {
		t.Fatalf("probes %+v, want one for the fresh streak", probes)
	}
	tr.ReportIndirect("B", false)
	if got := stateOf(t, tr, "B"); got != Suspect {
		t.Fatalf("B %v after the failed indirect probe, want suspect", got)
	}
	for i := DefaultSuspectRounds; i < DefaultFailRounds; i++ {
		tr.Beat()
	}
	if got := stateOf(t, tr, "B"); got != Failed {
		t.Fatalf("B %v after the suspect-age sweep, want failed", got)
	}
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 2 || kinds[0] != EventSuspect || kinds[1] != EventFail {
		t.Fatalf("event kinds %v, want [suspect fail]", kinds)
	}
	if got := reg.Counter("membership.indirect_probes").Value(); got != 2 {
		t.Fatalf("indirect_probes %d, want 2", got)
	}
	// A failed member STAYS in the gossip peer set — the periodic dial is
	// its refutation channel, without which two sides of a healed partition
	// that failed each other could never reconnect.
	found := false
	for _, p := range tr.GossipPeers() {
		if p == "B" {
			found = true
		}
	}
	if !found {
		t.Fatal("failed member dropped from the gossip peer set")
	}
}

// TestFailedVerdictIsRefutable pins partition healing: after A fails B, an
// exchange finally reaching the live B lets it refute at a higher
// incarnation, A emits a recover event plus the false-suspect accounting,
// and the verdict is undone.
func TestFailedVerdictIsRefutable(t *testing.T) {
	var events []Event
	reg := metrics.NewRegistry()
	a, err := New(Config{Self: "A", Seeds: []topology.NodeID{"B"},
		DisableLocalHealth: true, Metrics: reg,
		OnEvent: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	b := newTestTracker(t, "B", "A")
	syncPair(t, a, b)
	failNode(t, a, "B")
	if got := stateOf(t, a, "B"); got != Failed {
		t.Fatalf("B %v on A, want failed", got)
	}
	// The partition heals: one full exchange carries the verdict to B, B
	// refutes, and the reply revives it on A.
	syncPair(t, a, b)
	if got := stateOf(t, a, "B"); got != Alive {
		t.Fatalf("B %v on A after refutation, want alive", got)
	}
	m, _ := a.Member("B")
	if m.Incarnation < 2 {
		t.Fatalf("B refuted at incarnation %d, want ≥ 2", m.Incarnation)
	}
	var sawRecover bool
	for _, ev := range events {
		if ev.Kind == EventRecover && ev.Node == "B" {
			sawRecover = true
		}
	}
	if !sawRecover {
		t.Fatal("no recover event for the revived member")
	}
	// A originated this suspicion and it proved wrong: the false-suspect
	// counter (the study's false-positive measure) must record it.
	if got := reg.Counter("membership.false_suspects").Value(); got != 1 {
		t.Fatalf("false_suspects %d, want 1", got)
	}
}

// TestSteadyGossipKeepsAlive pins that successful contacts reset detection:
// two nodes exchanging every round never suspect each other, however many
// rounds pass.
func TestSteadyGossipKeepsAlive(t *testing.T) {
	a := newTestTracker(t, "A", "B")
	b := newTestTracker(t, "B", "A")
	for round := 0; round < 5*DefaultFailRounds; round++ {
		a.Beat()
		b.Beat()
		syncPair(t, a, b)
		syncPair(t, b, a)
	}
	if got := stateOf(t, a, "B"); got != Alive {
		t.Fatalf("B %v on A after steady gossip, want alive", got)
	}
	if got := stateOf(t, b, "A"); got != Alive {
		t.Fatalf("A %v on B after steady gossip, want alive", got)
	}
}

func TestRefutationSpreads(t *testing.T) {
	a := newTestTracker(t, "A", "B")
	b := newTestTracker(t, "B", "A")
	// A learns B's real (incarnation 1) entry, so the later fail verdict is
	// at an incarnation B must actually outbid to refute.
	syncPair(t, a, b)
	failNode(t, a, "B")
	if got := stateOf(t, a, "B"); got != Failed {
		t.Fatalf("B %v on A, want failed", got)
	}
	// The partition heals: one exchange B→A carries the fail rumor to B,
	// which refutes with a higher incarnation; the reply revives B on A.
	before, _ := b.Member("B")
	syncPair(t, b, a)
	after, _ := b.Member("B")
	if after.Incarnation <= before.Incarnation {
		t.Fatalf("B did not bump incarnation refuting (%d → %d)", before.Incarnation, after.Incarnation)
	}
	syncPair(t, a, b)
	if got := stateOf(t, a, "B"); got != Alive {
		t.Fatalf("B %v on A after refutation round-trip, want alive", got)
	}
}

// TestLocalHealthStretchesWindows pins the Lifeguard multiplier: an observer
// whose own rounds are erroring takes proportionally longer to suspect
// anyone, and recovers its normal windows once its rounds go clean.
func TestLocalHealthStretchesWindows(t *testing.T) {
	tr, err := New(Config{Self: "A", Seeds: []topology.NodeID{"B", "C"}})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// Every contact fails: the node itself is unhealthy. The multiplier
	// climbs and the suspect threshold stretches past the default.
	for i := 0; i < DefaultSuspectRounds; i++ {
		tr.Beat()
		tr.ReportContactFailed("B")
		tr.ReportContactFailed("C")
	}
	if tr.LocalHealth() == 0 {
		t.Fatal("local health multiplier stayed 0 through all-failing rounds")
	}
	if probes := tr.StartProbes(); len(probes) != 0 {
		t.Fatalf("probes %+v fired at the unstretched threshold despite degraded local health", probes)
	}
	// Clean rounds drain the multiplier back to zero.
	for i := 0; i < 2*maxLocalHealth; i++ {
		tr.Beat()
		tr.ReportContact("B")
		tr.ReportContact("C")
	}
	if got := tr.LocalHealth(); got != 0 {
		t.Fatalf("local health %d after clean rounds, want 0", got)
	}

	// Control: with local health disabled the same failure pattern probes
	// right at the default threshold.
	ctl := newTestTracker(t, "A", "B", "C")
	for i := 0; i < DefaultSuspectRounds; i++ {
		ctl.Beat()
		ctl.ReportContactFailed("B")
		ctl.ReportContactFailed("C")
	}
	if probes := ctl.StartProbes(); len(probes) != 2 {
		t.Fatalf("control probes %+v, want both members at the unstretched threshold", probes)
	}
}

// TestDeltaSyncProtocol pins the ack-driven delta exchange: first contact is
// full both ways, a steady pair converges to empty deltas, a local change
// travels as a one-row delta, and a peer restart (new epoch) forces a full
// resync.
func TestDeltaSyncProtocol(t *testing.T) {
	a := newTestTracker(t, "A", "B")
	b := newTestTracker(t, "B", "A")

	handle := func(y *Tracker, req transport.MemberSyncPayload) transport.MemberSyncPayload {
		t.Helper()
		reply, err := y.HandleSync(req)
		if err != nil {
			t.Fatalf("%s handles %s's sync: %v", y.Self(), req.From, err)
		}
		return reply
	}
	exchange := func(x, y *Tracker, peerOfX, peerOfY topology.NodeID) transport.MemberSyncPayload {
		req := x.SyncFor(peerOfX)
		x.MergeReply(peerOfX, handle(y, req))
		return req
	}

	first := a.SyncFor("B")
	if !first.Full || len(first.Members) != 2 {
		t.Fatalf("first leg %+v, want a full 2-row view", first)
	}
	reply := handle(b, first)
	if !reply.Full {
		t.Fatalf("first reply %+v, want full (B never heard from A either)", reply)
	}
	a.MergeReply("B", reply)

	// A few steady exchanges: the pair settles into empty deltas.
	for i := 0; i < 3; i++ {
		exchange(a, b, "B", "A")
	}
	steady := a.SyncFor("B")
	if steady.Full {
		t.Fatalf("steady leg still full: %+v", steady)
	}
	if len(steady.Members) != 0 {
		t.Fatalf("steady delta carries %d rows, want 0 (nothing changed)", len(steady.Members))
	}
	handle(b, steady)

	// One local change on B travels as a one-row delta to A.
	b.SetLocalState(Draining)
	req := a.SyncFor("B")
	reply = handle(b, req)
	if reply.Full {
		t.Fatalf("post-change reply went full: %+v", reply)
	}
	if len(reply.Members) != 1 || reply.Members[0].Node != "B" || reply.Members[0].State != "draining" {
		t.Fatalf("post-change delta %+v, want exactly B's draining row", reply.Members)
	}
	a.MergeReply("B", reply)
	if got := stateOf(t, a, "B"); got != Draining {
		t.Fatalf("B %v on A after the delta, want draining", got)
	}

	// A view-count mismatch triggers the want-full fallback.
	mismatch := transport.MemberSyncPayload{From: "A", Epoch: a.Epoch(), Seq: 1, Known: 5}
	if got := handle(b, mismatch); !got.WantFull {
		t.Fatalf("reply %+v, want WantFull after a larger-view claim", got)
	}

	// B restarts with a new epoch: A's next leg after hearing it must be a
	// full view again (the restarted B lost all its acks).
	b2, err := New(Config{Self: "B", Seeds: []topology.NodeID{"A"}, Epoch: 2, DisableLocalHealth: true})
	if err != nil {
		t.Fatalf("restart B: %v", err)
	}
	a.MergeReply("B", handle(b2, a.SyncFor("B")))
	if leg := a.SyncFor("B"); !leg.Full {
		t.Fatalf("leg after B's epoch change %+v, want full", leg)
	}
}

func TestDrainAndLeaveAnnouncements(t *testing.T) {
	a := newTestTracker(t, "A", "B")
	b := newTestTracker(t, "B", "A")
	var kinds []EventKind
	c, err := New(Config{Self: "C", Seeds: []topology.NodeID{"A", "B"}, DisableLocalHealth: true,
		OnEvent: func(ev Event) { kinds = append(kinds, ev.Kind) }})
	if err != nil {
		t.Fatalf("new: %v", err)
	}

	b.SetLocalState(Draining)
	syncPair(t, a, b)
	if got := stateOf(t, a, "B"); got != Draining {
		t.Fatalf("B %v on A after drain announcement, want draining", got)
	}
	// The drain event reaches a third party transitively through A.
	syncPair(t, c, a)
	if got := stateOf(t, c, "B"); got != Draining {
		t.Fatalf("B %v on C, want draining", got)
	}
	sawDrain := false
	for _, k := range kinds {
		if k == EventDrain {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatalf("C events %v, want a drain event", kinds)
	}

	b.SetLocalState(Left)
	syncPair(t, a, b)
	if got := stateOf(t, a, "B"); got != Left {
		t.Fatalf("B %v on A after leave announcement, want left", got)
	}
	for _, p := range a.GossipPeers() {
		if p == "B" {
			t.Fatal("departed member still a gossip peer")
		}
	}
}

// TestRotationFairness pins the stable-cursor rotation: with a fixed
// membership every peer is visited exactly once per cycle, and a member
// joining mid-cycle slots into the rotation without starving anyone — the
// failure mode of the old index-modulo rotation over a re-fetched slice.
func TestRotationFairness(t *testing.T) {
	tr := newTestTracker(t, "M", "B", "C", "D", "E", "F")
	var picks []topology.NodeID
	for i := 0; i < 10; i++ {
		got := tr.PlanContacts(1)
		if len(got) != 1 {
			t.Fatalf("plan %v, want exactly one rotation pick", got)
		}
		picks = append(picks, got[0])
	}
	want := []topology.NodeID{"B", "C", "D", "E", "F", "B", "C", "D", "E", "F"}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("rotation %v, want %v", picks, want)
		}
	}

	// A new member whose ID sorts before the whole pool joins mid-cycle
	// (after the cursor passed "C"): the next full cycle must still visit
	// all six peers exactly once each.
	push(t, tr, transport.MemberSyncPayload{From: "AA", Members: []transport.MemberEntry{
		{Node: "AA", Incarnation: 1, Heartbeat: 1, State: "alive"},
	}})
	tr.PlanContacts(1) // advance to D
	seen := map[topology.NodeID]int{}
	for i := 0; i < 6; i++ {
		got := tr.PlanContacts(1)
		seen[got[0]]++
	}
	for _, n := range []topology.NodeID{"AA", "B", "C", "D", "E", "F"} {
		if seen[n] != 1 {
			t.Fatalf("churned rotation visited %v; %s seen %d times, want exactly once each", seen, n, seen[n])
		}
	}
}

// TestPlanContactsSections pins the plan's composition: detection retries
// ride on top of the rotation every round, and Failed members are dialed on
// the decaying schedule with the skipped dials counted.
func TestPlanContactsSections(t *testing.T) {
	reg := metrics.NewRegistry()
	tr, err := New(Config{Self: "A", Seeds: []topology.NodeID{"B", "C", "D", "E"},
		DisableLocalHealth: true, Metrics: reg})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// A pending streak on E keeps it in every plan regardless of rotation.
	tr.Beat()
	tr.ReportContactFailed("E")
	for i := 0; i < 3; i++ {
		plan := tr.PlanContacts(1)
		found := false
		for _, n := range plan {
			if n == "E" {
				found = true
			}
		}
		if !found {
			t.Fatalf("plan %v on round %d omits the pending member E", plan, i)
		}
	}

	// Fail E, then count its redials over the next 40 rounds: the decaying
	// 2^n schedule allows ~5, versus 40 under every-round dialing, and the
	// saved dials are accounted.
	failNode(t, tr, "E")
	if got := stateOf(t, tr, "E"); got != Failed {
		t.Fatalf("E %v, want failed", got)
	}
	redials := 0
	for i := 0; i < 40; i++ {
		tr.Beat()
		for _, n := range tr.PlanContacts(2) {
			if n == "E" {
				redials++
			}
		}
	}
	if redials == 0 || redials > 7 {
		t.Fatalf("failed member redialed %d times in 40 rounds, want a handful on the decaying schedule", redials)
	}
	saved := reg.Counter("membership.failed_dials_saved").Value()
	if saved < 30 {
		t.Fatalf("failed_dials_saved %d, want ≥ 30 of the 40 rounds skipped", saved)
	}
}
