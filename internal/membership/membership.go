// Package membership is the elastic-fleet layer: a SWIM-style gossip
// membership tracker (join / drain / suspect / fail / leave transitions with
// incarnation numbers), a gossiper that disseminates the view over the live
// transport on the same cadence pattern as the reservation-ledger gossiper,
// and a redirect director that turns any node into a stateless front door for
// watch requests.
//
// Failure detection is contact-driven and round-counted rather than
// wall-clock-timed, so it is fully deterministic under the virtual clock:
// every gossip round dials a rotation of peers, a dial or exchange failure
// charges the peer's pending counter, and SuspectRounds consecutive failures
// trigger an *indirect* probe — k live helpers are asked to reach the peer
// via member.ping-req — before any verdict. Only when direct and indirect
// probes all fail is the member marked Suspect; FailRounds−SuspectRounds
// further rounds without a refutation and it is Failed. A live node that
// sees itself suspected refutes by bumping its incarnation and reasserting
// its state (classic SWIM); a dead node never refutes, so the failure
// verdict spreads. A Lifeguard-style local-health multiplier stretches the
// observer's own windows while its recent gossip rounds are mostly erroring,
// so a struggling observer does not condemn healthy peers.
//
// Dissemination is delta-synced for WAN scale: rows carry a local update
// sequence, each peer's acknowledged sequence is tracked, and an exchange
// piggybacks only the rows the peer has not confirmed — with full-view
// fallbacks on first contact, peer restart (epoch change), ack mismatch, and
// a periodic anti-entropy safety net. In steady state an exchange is a few
// dozen bytes regardless of fleet size.
//
// Merge rules (per member, commutative, so replicas converge regardless of
// exchange order):
//
//   - a higher incarnation always wins;
//   - at equal incarnation the "worse" state wins
//     (alive < draining < suspect < failed < left);
//   - at equal incarnation and state, the higher heartbeat wins.
package membership

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dvod/internal/metrics"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// State is one member's lifecycle state.
type State int

// The membership states, ordered by merge precedence: at equal incarnation a
// numerically larger state overrides a smaller one.
const (
	// Alive: contact succeeds (or no evidence against); full participant.
	Alive State = iota
	// Draining: the member announced a graceful drain — it still serves
	// in-flight sessions but redirects new watches and takes no new load.
	Draining
	// Suspect: direct and indirect probes both failed for SuspectRounds
	// rounds. Routing avoids suspects; the member can refute by bumping its
	// incarnation.
	Suspect
	// Failed: a suspect that stayed unrefuted through FailRounds rounds.
	// Consumers reclaim the member's leases and penalize its routes; only a
	// higher incarnation (a restart or refutation) revives it.
	Failed
	// Left: the member announced a completed drain. Terminal for this
	// incarnation.
	Left
)

// String names the state (also the wire encoding).
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Draining:
		return "draining"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// parseState decodes a wire state; unknown strings degrade to Suspect so a
// newer peer's states never silently count as healthy.
func parseState(s string) State {
	switch s {
	case "alive":
		return Alive
	case "draining":
		return Draining
	case "suspect":
		return Suspect
	case "failed":
		return Failed
	case "left":
		return Left
	default:
		return Suspect
	}
}

// Member is one member's view entry.
type Member struct {
	Node        topology.NodeID
	Incarnation uint64
	Heartbeat   uint64
	State       State
}

// EventKind labels membership transitions observed by one tracker.
type EventKind int

// The event kinds.
const (
	// EventJoin: a previously unknown member appeared in the view.
	EventJoin EventKind = iota + 1
	// EventSuspect: a member transitioned into Suspect.
	EventSuspect
	// EventRecover: a suspect refuted and is Alive again.
	EventRecover
	// EventFail: a member transitioned into Failed.
	EventFail
	// EventDrain: a member announced a graceful drain.
	EventDrain
	// EventLeave: a member completed its drain (Left).
	EventLeave
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventSuspect:
		return "suspect"
	case EventRecover:
		return "recover"
	case EventFail:
		return "fail"
	case EventDrain:
		return "drain"
	case EventLeave:
		return "leave"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observed transition.
type Event struct {
	Kind   EventKind
	Node   topology.NodeID
	Member Member
}

// Default detection windows, in local gossip rounds. With the per-round
// priority retry a failing peer is re-dialed every round, so three
// consecutive failures plus a failed indirect probe is decisively abnormal
// and three further unrefuted rounds is a verdict.
const (
	DefaultSuspectRounds = 3
	DefaultFailRounds    = 6
)

// Defaults of the WAN-hardening knobs.
const (
	// DefaultProbeFanout is how many live helpers an indirect probe asks.
	DefaultProbeFanout = 3
	// DefaultFullSyncEvery is the periodic full-view anti-entropy safety
	// net: every Nth exchange with one peer ships the full view even when
	// the delta would be smaller.
	DefaultFullSyncEvery = 32
	// DefaultFailedDialCap bounds the decaying redial schedule for Failed
	// members: the gap between refutation-channel dials doubles per attempt
	// (1, 2, 4, … rounds) and saturates at this many rounds.
	DefaultFailedDialCap = 64
	// maxLocalHealth caps the Lifeguard local-health multiplier: detection
	// windows stretch at most (1+maxLocalHealth)×.
	maxLocalHealth = 8
)

// Config assembles a Tracker.
type Config struct {
	// Self is the member this tracker runs on. Required.
	Self topology.NodeID
	// Seeds are the initially known members (usually the boot topology).
	Seeds []topology.NodeID
	// SuspectRounds / FailRounds are the detection windows in local gossip
	// rounds; zero uses the defaults. SuspectRounds consecutive contact
	// failures trigger the indirect probe whose failure makes the verdict;
	// FailRounds−SuspectRounds unrefuted rounds later the suspect is Failed.
	SuspectRounds int
	FailRounds    int
	// ProbeFanout is how many live helpers an indirect probe asks before a
	// Suspect verdict; zero uses DefaultProbeFanout, negative disables
	// indirect probing (the verdict falls on direct failures alone).
	ProbeFanout int
	// FullSyncEvery ships a full view every Nth exchange per peer as an
	// anti-entropy safety net; zero uses DefaultFullSyncEvery.
	FullSyncEvery int
	// DisableDelta ships the full view on every exchange — the pre-WAN
	// behavior, kept as the membership study's control arm.
	DisableDelta bool
	// DisableLocalHealth switches off the Lifeguard window stretching.
	DisableLocalHealth bool
	// FailedDialCap saturates the Failed-member redial backoff, in rounds;
	// zero uses DefaultFailedDialCap.
	FailedDialCap int
	// Epoch is this tracker's boot epoch, announced in every exchange; a
	// restarted node must announce a different epoch so peers reset their
	// delta ack state. Zero uses 1.
	Epoch uint64
	// OnEvent receives transitions observed by this tracker. Called outside
	// the tracker lock, in deterministic (node-sorted) order per merge.
	// May be nil.
	OnEvent func(Event)
	// Metrics receives membership.* counters and per-peer state gauges; nil
	// allocates a private registry.
	Metrics *metrics.Registry
}

// peerSync is the per-peer delta-sync state: which of our updates the peer
// has confirmed, and what we have folded of theirs.
type peerSync struct {
	// epoch is the peer's boot epoch last seen; a change resets everything.
	epoch uint64
	// acked is our update sequence the peer has confirmed receiving;
	// deltas to the peer carry rows touched after it.
	acked uint64
	// confirmed is false until the first ack arrives — until then every
	// payload to the peer is a full view.
	confirmed bool
	// peerSeq is the peer's highest update sequence we have merged; echoed
	// back as Ack so the peer can advance its own acked.
	peerSeq uint64
	// exchanges counts completed legs toward the FullSyncEvery safety net.
	exchanges int
	// needFull forces our next payload to the peer to be a full view.
	needFull bool
	// askFull makes our next payload request the peer's full view.
	askFull bool
}

// Tracker is one node's replica of the cluster membership view. All methods
// are safe for concurrent use.
type Tracker struct {
	self          topology.NodeID
	suspectRounds int
	failRounds    int
	probeFanout   int
	fullSyncEvery int
	failedDialCap int
	disableDelta  bool
	disableLHM    bool
	epoch         uint64
	onEvent       func(Event)
	reg           *metrics.Registry

	mu      sync.Mutex
	members map[topology.NodeID]*Member
	// order holds the member IDs sorted, so view builds stream rows in wire
	// order without a per-payload sort — the hot path at fleet scale.
	// Members are never removed (Left rows persist as tombstones), so the
	// slice only ever grows by sorted insertion.
	order []topology.NodeID
	// useq is the local update sequence; touched records the sequence at
	// which each member's row last changed. An exchange's delta is every row
	// touched after the peer's acknowledged sequence.
	useq    uint64
	touched map[topology.NodeID]uint64
	peers   map[topology.NodeID]*peerSync
	// round counts local Beats; pending counts consecutive failed contacts
	// per member — the deterministic stand-in for a failure-detector
	// timeout. probing marks members with an indirect probe in flight, and
	// suspectAge counts rounds since a member turned Suspect.
	round      uint64
	pending    map[topology.NodeID]int
	probing    map[topology.NodeID]bool
	suspectAge map[topology.NodeID]int
	// originated marks suspicions this tracker issued itself (for the
	// false-suspect accounting when a refutation arrives).
	originated map[topology.NodeID]bool
	// redialDue / redialN implement the decaying Failed-member dial budget.
	redialDue map[topology.NodeID]uint64
	redialN   map[topology.NodeID]int
	// rotor is the gossip rotation cursor: the last NodeID handed out, so
	// rotation is stable under membership churn (satellite fix for the
	// index-based round-robin skew).
	rotor topology.NodeID
	// lhm is the Lifeguard local-health multiplier; okRound / failRound
	// count this round's contact outcomes feeding it.
	lhm       int
	okRound   int
	failRound int
	alive     int
}

// New validates the configuration and builds a tracker. Self starts Alive at
// incarnation 1; seeds start Alive at incarnation 0 so any state they
// announce about themselves immediately outranks the placeholder.
func New(cfg Config) (*Tracker, error) {
	if cfg.Self == "" {
		return nil, errors.New("membership: empty self")
	}
	if cfg.SuspectRounds == 0 {
		cfg.SuspectRounds = DefaultSuspectRounds
	}
	if cfg.FailRounds == 0 {
		cfg.FailRounds = DefaultFailRounds
	}
	if cfg.SuspectRounds < 1 || cfg.FailRounds <= cfg.SuspectRounds {
		return nil, fmt.Errorf("membership: bad detection windows suspect=%d fail=%d",
			cfg.SuspectRounds, cfg.FailRounds)
	}
	if cfg.ProbeFanout == 0 {
		cfg.ProbeFanout = DefaultProbeFanout
	}
	if cfg.FullSyncEvery == 0 {
		cfg.FullSyncEvery = DefaultFullSyncEvery
	}
	if cfg.FullSyncEvery < 0 {
		return nil, fmt.Errorf("membership: negative full-sync period %d", cfg.FullSyncEvery)
	}
	if cfg.FailedDialCap == 0 {
		cfg.FailedDialCap = DefaultFailedDialCap
	}
	if cfg.FailedDialCap < 1 {
		return nil, fmt.Errorf("membership: bad failed-dial cap %d", cfg.FailedDialCap)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	t := &Tracker{
		self:          cfg.Self,
		suspectRounds: cfg.SuspectRounds,
		failRounds:    cfg.FailRounds,
		probeFanout:   cfg.ProbeFanout,
		fullSyncEvery: cfg.FullSyncEvery,
		failedDialCap: cfg.FailedDialCap,
		disableDelta:  cfg.DisableDelta,
		disableLHM:    cfg.DisableLocalHealth,
		epoch:         cfg.Epoch,
		onEvent:       cfg.OnEvent,
		reg:           cfg.Metrics,
		members:       make(map[topology.NodeID]*Member),
		touched:       make(map[topology.NodeID]uint64),
		peers:         make(map[topology.NodeID]*peerSync),
		pending:       make(map[topology.NodeID]int),
		probing:       make(map[topology.NodeID]bool),
		suspectAge:    make(map[topology.NodeID]int),
		originated:    make(map[topology.NodeID]bool),
		redialDue:     make(map[topology.NodeID]uint64),
		redialN:       make(map[topology.NodeID]int),
	}
	t.members[cfg.Self] = &Member{Node: cfg.Self, Incarnation: 1, Heartbeat: 1, State: Alive}
	t.orderInsertLocked(cfg.Self)
	t.touchLocked(cfg.Self)
	t.alive = 1
	for _, s := range cfg.Seeds {
		if s == cfg.Self || s == "" {
			continue
		}
		if _, dup := t.members[s]; dup {
			continue
		}
		t.members[s] = &Member{Node: s, Incarnation: 0, Heartbeat: 0, State: Alive}
		t.orderInsertLocked(s)
		t.touchLocked(s)
		t.alive++
	}
	t.publishLocked()
	return t, nil
}

// Self returns the tracker's own node.
func (t *Tracker) Self() topology.NodeID { return t.self }

// Epoch returns the tracker's boot epoch.
func (t *Tracker) Epoch() uint64 { return t.epoch }

// LocalHealth returns the current Lifeguard local-health multiplier (0 when
// the node's own gossip rounds are healthy; detection windows are stretched
// (1+LocalHealth)×).
func (t *Tracker) LocalHealth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lhm
}

// Size returns how many members the view holds (including self). Cheaper
// than Members for convergence checks over large fleets.
func (t *Tracker) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.members)
}

// Member returns one member's current view entry.
func (t *Tracker) Member(n topology.NodeID) (Member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[n]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// Members returns the full view, sorted by node ID.
func (t *Tracker) Members() []Member {
	t.mu.Lock()
	out := make([]Member, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, *m)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Alive returns the members currently routable for new sessions: state Alive
// only (draining and suspect members take no new load), sorted.
func (t *Tracker) Alive() []topology.NodeID {
	t.mu.Lock()
	out := make([]topology.NodeID, 0, len(t.members))
	for n, m := range t.members {
		if m.State == Alive {
			out = append(out, n)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GossipPeers returns the members worth gossiping with: everyone but self
// that has not announced Left. Suspect and even Failed members stay in the
// set — the exchange reaching a live "failed" node is its only refutation
// channel, and without one a healed partition whose two sides failed each
// other would never reconnect. (The gossiper's contact plan dials Failed
// members on the decaying redial schedule, not every round.)
func (t *Tracker) GossipPeers() []topology.NodeID {
	t.mu.Lock()
	out := make([]topology.NodeID, 0, len(t.members))
	for n, m := range t.members {
		if n != t.self && m.State != Left {
			out = append(out, n)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// effSuspectLocked / effFailAgeLocked are the detection windows stretched by
// the local-health multiplier: an observer whose own rounds are failing
// takes proportionally longer to condemn peers.
func (t *Tracker) effSuspectLocked() int { return t.suspectRounds * (1 + t.lhm) }

func (t *Tracker) effFailAgeLocked() int { return (t.failRounds - t.suspectRounds) * (1 + t.lhm) }

// Beat opens one failure-detection round: it folds the previous round's
// contact outcomes into the local-health multiplier and ages every Suspect
// toward Failed. The gossiper calls it once per round; detection itself is
// driven by the contact reports (ReportContactFailed / ReportIndirect), not
// by Beat.
func (t *Tracker) Beat() {
	var events []Event
	t.mu.Lock()
	t.round++
	if !t.disableLHM {
		switch {
		case t.failRound > 0 && t.failRound >= t.okRound:
			if t.lhm < maxLocalHealth {
				t.lhm++
			}
		case t.failRound == 0 && t.lhm > 0:
			t.lhm--
		}
		t.reg.Gauge("membership.lhm").Set(float64(t.lhm))
	}
	t.okRound, t.failRound = 0, 0
	ageLimit := t.effFailAgeLocked()
	for n, m := range t.members {
		if m.State != Suspect {
			continue
		}
		t.suspectAge[n]++
		if t.suspectAge[n] >= ageLimit {
			events = t.setStateLocked(n, Failed, events)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Node < events[j].Node })
	t.publishLocked()
	t.mu.Unlock()
	t.emit(events)
}

// SetLocalState announces a new local state (Draining for a graceful drain,
// Left at its completion, Alive to rejoin). The incarnation is bumped so the
// announcement outranks everything previously gossiped about this node.
func (t *Tracker) SetLocalState(s State) {
	t.mu.Lock()
	self := t.members[t.self]
	prev := self.State
	self.Incarnation++
	self.Heartbeat++
	self.State = s
	t.touchLocked(t.self)
	t.accountStateLocked(t.self, prev, s)
	t.publishLocked()
	t.mu.Unlock()
}

// ReportContact records one successful direct contact with a member (either
// leg: we reached them, or they reached us). It clears the member's pending
// failure count and cancels any in-flight indirect probe.
func (t *Tracker) ReportContact(n topology.NodeID) {
	t.mu.Lock()
	t.contactLocked(n)
	t.okRound++
	t.mu.Unlock()
}

// ReportContactFailed records one failed direct contact attempt: the
// member's pending count grows toward the (health-stretched) suspect
// threshold. Failures against already-Failed members only feed the local
// health signal.
func (t *Tracker) ReportContactFailed(n topology.NodeID) {
	var events []Event
	t.mu.Lock()
	m, ok := t.members[n]
	if !ok || m.State == Left {
		t.mu.Unlock()
		return
	}
	t.failRound++
	if m.State != Failed {
		t.pending[n]++
		if t.probeFanout < 0 && t.pending[n] >= t.effSuspectLocked() &&
			m.State < Suspect && !t.probing[n] {
			// Indirect probing disabled: the direct evidence alone convicts.
			events = t.suspectLocked(n, events)
		}
	}
	t.publishLocked()
	t.mu.Unlock()
	t.emit(events)
}

// Probe is one indirect-probe assignment: ask each helper to reach Target
// via member.ping-req, then report the combined outcome with ReportIndirect.
type Probe struct {
	Target  topology.NodeID
	Helpers []topology.NodeID
}

// StartProbes collects the members whose pending failures crossed the
// suspect threshold this round and assigns indirect-probe helpers to each:
// up to ProbeFanout live members (excluding self and the target), rotated
// deterministically by round. Targets are marked probing until
// ReportIndirect resolves them. A probe with no reachable helpers is
// returned with an empty helper list — the caller must still resolve it
// (no helpers means no second opinion, so the direct verdict stands).
func (t *Tracker) StartProbes() []Probe {
	t.mu.Lock()
	var targets []topology.NodeID
	threshold := t.effSuspectLocked()
	for n, m := range t.members {
		if n == t.self || m.State >= Suspect || t.probing[n] {
			continue
		}
		if t.pending[n] >= threshold {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		t.mu.Unlock()
		return nil
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	var candidates []topology.NodeID
	for n, m := range t.members {
		if n != t.self && m.State == Alive {
			candidates = append(candidates, n)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	out := make([]Probe, 0, len(targets))
	for _, target := range targets {
		t.probing[target] = true
		p := Probe{Target: target}
		if len(candidates) > 0 {
			start := int(t.round) % len(candidates)
			for i := 0; len(p.Helpers) < t.probeFanout && i < len(candidates); i++ {
				h := candidates[(start+i)%len(candidates)]
				if h == target || t.pending[h] > 0 {
					continue
				}
				p.Helpers = append(p.Helpers, h)
			}
		}
		t.reg.Counter("membership.indirect_probes").Inc()
		out = append(out, p)
	}
	t.mu.Unlock()
	return out
}

// ReportIndirect resolves an indirect probe: ok means some helper reached
// the target (the fault is on our path, not the member — no verdict; the
// pending count resets so a fresh streak must accumulate). A failed probe
// issues the Suspect verdict.
func (t *Tracker) ReportIndirect(target topology.NodeID, ok bool) {
	var events []Event
	t.mu.Lock()
	delete(t.probing, target)
	if ok {
		delete(t.pending, target)
		t.reg.Counter("membership.indirect_rescues").Inc()
	} else if m, known := t.members[target]; known && m.State < Suspect {
		events = t.suspectLocked(target, events)
	}
	t.publishLocked()
	t.mu.Unlock()
	t.emit(events)
}

// PlanContacts builds one gossip round's dial plan, three sections deep:
//
//  1. rotation — the next fanout members in stable NodeID order after the
//     rotor cursor (Alive, Draining, and Suspect members), so every peer is
//     visited on a fair cadence regardless of membership churn;
//  2. priority retries — members with a pending failure streak or an
//     unresolved probe are re-dialed every round so detection completes in
//     SuspectRounds rounds, not SuspectRounds rotations;
//  3. due Failed redials — the refutation channel, on the decaying 2^n-round
//     schedule capped at FailedDialCap; skipped redials are counted in
//     membership.failed_dials_saved.
//
// Sections never overlap; the total is at most 3×fanout dials.
func (t *Tracker) PlanContacts(fanout int) []topology.NodeID {
	return t.PlanContactsWithin(fanout, nil)
}

// PlanContactsWithin is PlanContacts restricted to a dialable overlay: every
// section considers only members allowed reports true for. This is how a WAN
// deployment bounds its gossip neighborhood — the restriction must live
// inside the planner, because filtering the plan afterwards would burn
// rotation slots on undialable peers and starve the fair cadence at scale.
// A nil allowed admits everyone.
func (t *Tracker) PlanContactsWithin(fanout int, allowed func(topology.NodeID) bool) []topology.NodeID {
	if fanout < 1 {
		fanout = 1
	}
	if allowed == nil {
		allowed = func(topology.NodeID) bool { return true }
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[topology.NodeID]bool, 3*fanout)
	var picks []topology.NodeID

	var pool []topology.NodeID
	for _, n := range t.order {
		if m := t.members[n]; n != t.self && m.State < Failed && allowed(n) {
			pool = append(pool, n)
		}
	}
	if len(pool) > 0 {
		start := sort.Search(len(pool), func(i int) bool { return pool[i] > t.rotor })
		n := fanout
		if n > len(pool) {
			n = len(pool)
		}
		for i := 0; i < n; i++ {
			id := pool[(start+i)%len(pool)]
			picks = append(picks, id)
			seen[id] = true
			t.rotor = id
		}
	}

	var retries []topology.NodeID
	for n := range t.pending {
		if m, ok := t.members[n]; ok && m.State < Failed && !seen[n] && allowed(n) {
			retries = append(retries, n)
		}
	}
	for n := range t.probing {
		if m, ok := t.members[n]; ok && m.State < Failed && !seen[n] && t.pending[n] == 0 && allowed(n) {
			retries = append(retries, n)
		}
	}
	sort.Slice(retries, func(i, j int) bool { return retries[i] < retries[j] })
	for i := 0; i < len(retries) && i < fanout; i++ {
		picks = append(picks, retries[i])
		seen[retries[i]] = true
	}

	var due []topology.NodeID
	saved := 0
	for n, m := range t.members {
		if m.State != Failed || seen[n] || !allowed(n) {
			continue
		}
		if t.redialDue[n] <= t.round {
			due = append(due, n)
		} else {
			saved++
		}
	}
	if saved > 0 {
		t.reg.Counter("membership.failed_dials_saved").Add(int64(saved))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	if len(due) > fanout {
		// The overflow stays due and goes out next round.
		due = due[:fanout]
	}
	for _, n := range due {
		picks = append(picks, n)
		t.redialN[n]++
		gap := uint64(t.failedDialCap)
		if t.redialN[n] < 30 {
			if g := uint64(1) << t.redialN[n]; g < gap {
				gap = g
			}
		}
		t.redialDue[n] = t.round + gap
	}
	return picks
}

// SyncFor builds the request leg of one exchange with peer: a delta of the
// rows the peer has not acknowledged, or a full view on first contact, after
// a restart or mismatch, or on the periodic safety net.
func (t *Tracker) SyncFor(peer topology.NodeID) transport.MemberSyncPayload {
	t.mu.Lock()
	p := t.buildSyncLocked(t.peerStateLocked(peer))
	t.mu.Unlock()
	return p
}

// HandleSync is the receiving side of one exchange: fold the sender's rows
// and ack bookkeeping, reply with our delta against what the sender has
// confirmed (or a full view when the protocol demands one). The sender's
// contact doubles as liveness evidence for it. Every tracker names itself
// and an epoch of at least 1 in each leg it builds, so a request without a
// sender, from this node itself, or at epoch 0 is malformed and refused
// without touching the view.
func (t *Tracker) HandleSync(req transport.MemberSyncPayload) (transport.MemberSyncPayload, error) {
	switch {
	case req.From == "" || req.From == t.self:
		return transport.MemberSyncPayload{}, fmt.Errorf("membership: member sync from %q to %s", req.From, t.self)
	case req.Epoch == 0:
		return transport.MemberSyncPayload{}, fmt.Errorf("membership: member sync from %s at epoch 0", req.From)
	}
	var events []Event
	t.mu.Lock()
	ps := t.peerStateLocked(req.From)
	t.applyPeerMetaLocked(ps, req)
	t.contactLocked(req.From)
	t.okRound++
	events = t.mergeLocked(req.Members, events)
	// Merged through the sender's snapshot: echo its Seq as our Ack.
	if req.Seq > ps.peerSeq {
		ps.peerSeq = req.Seq
	}
	t.mismatchLocked(ps, req)
	reply := t.buildSyncLocked(ps)
	t.publishLocked()
	t.mu.Unlock()
	t.emit(events)
	t.reg.Counter("membership.handled_syncs").Inc()
	return reply, nil
}

// MergeReply folds the reply leg of an exchange this node initiated: merge
// the peer's rows, advance the ack bookkeeping, and record the successful
// round trip as contact evidence.
func (t *Tracker) MergeReply(peer topology.NodeID, reply transport.MemberSyncPayload) {
	var events []Event
	t.mu.Lock()
	ps := t.peerStateLocked(peer)
	t.applyPeerMetaLocked(ps, reply)
	t.contactLocked(peer)
	t.okRound++
	events = t.mergeLocked(reply.Members, events)
	if reply.Seq > ps.peerSeq {
		ps.peerSeq = reply.Seq
	}
	t.mismatchLocked(ps, reply)
	t.publishLocked()
	t.mu.Unlock()
	t.emit(events)
}

// peerStateLocked finds or creates one peer's delta-sync state.
func (t *Tracker) peerStateLocked(peer topology.NodeID) *peerSync {
	ps := t.peers[peer]
	if ps == nil {
		ps = &peerSync{}
		t.peers[peer] = ps
	}
	return ps
}

// applyPeerMetaLocked folds a payload's epoch/ack scalars into the peer
// state. An epoch change (peer restart, or first contact) resets the delta
// bookkeeping: the peer lost its acks, so nothing we think it confirmed can
// be trusted, and it must receive a full view.
func (t *Tracker) applyPeerMetaLocked(ps *peerSync, p transport.MemberSyncPayload) {
	if ps.epoch != p.Epoch {
		*ps = peerSync{epoch: p.Epoch, needFull: true}
		t.reg.Counter("membership.epoch_resets").Inc()
	}
	if p.Ack > ps.acked {
		ps.acked = p.Ack
		ps.confirmed = true
	}
	if p.WantFull {
		ps.needFull = true
	}
}

// mismatchLocked applies the view-count fallback after a delta merge: if the
// peer's view is larger than ours it holds rows we lack (ask for its full
// view); if smaller, it lacks rows we hold (send ours).
func (t *Tracker) mismatchLocked(ps *peerSync, p transport.MemberSyncPayload) {
	if p.Full {
		ps.askFull = false
		return
	}
	switch {
	case p.Known > len(t.members):
		ps.askFull = true
	case p.Known > 0 && p.Known < len(t.members):
		ps.needFull = true
	}
}

// buildSyncLocked assembles one outgoing leg for peer state ps: full when
// the protocol demands it, the unacknowledged delta otherwise.
func (t *Tracker) buildSyncLocked(ps *peerSync) transport.MemberSyncPayload {
	full := t.disableDelta || ps.needFull || !ps.confirmed ||
		(t.fullSyncEvery > 0 && ps.exchanges%t.fullSyncEvery == 0)
	p := transport.MemberSyncPayload{
		From:     t.self,
		Epoch:    t.epoch,
		Seq:      t.useq,
		Ack:      ps.peerSeq,
		Full:     full,
		WantFull: ps.askFull,
		Known:    len(t.members),
	}
	var floor uint64
	if !full {
		floor = ps.acked
	}
	p.Members = t.rowsLocked(floor)
	ps.exchanges++
	if full {
		ps.needFull = false
		t.reg.Counter("membership.full_syncs").Inc()
	} else {
		t.reg.Counter("membership.delta_syncs").Inc()
	}
	t.reg.Counter("membership.rows_out").Add(int64(len(p.Members)))
	return p
}

// rowsLocked renders the members whose rows were touched after floor,
// node-sorted (floor 0 is the full view). The order slice keeps this a
// single in-order pass — no per-payload sort.
func (t *Tracker) rowsLocked(floor uint64) []transport.MemberEntry {
	var out []transport.MemberEntry
	for _, n := range t.order {
		if t.touched[n] <= floor {
			continue
		}
		m := t.members[n]
		out = append(out, transport.MemberEntry{
			Node:        m.Node,
			Incarnation: m.Incarnation,
			Heartbeat:   m.Heartbeat,
			State:       m.State.String(),
		})
	}
	return out
}

// orderInsertLocked splices a new member ID into the sorted order slice.
func (t *Tracker) orderInsertLocked(n topology.NodeID) {
	i := sort.Search(len(t.order), func(i int) bool { return t.order[i] >= n })
	t.order = append(t.order, "")
	copy(t.order[i+1:], t.order[i:])
	t.order[i] = n
}

// touchLocked stamps one member's row as changed at a fresh update sequence.
func (t *Tracker) touchLocked(n topology.NodeID) {
	t.useq++
	t.touched[n] = t.useq
}

// contactLocked clears one member's failure evidence after a successful
// contact (either direction).
func (t *Tracker) contactLocked(n topology.NodeID) {
	delete(t.pending, n)
	delete(t.probing, n)
}

// suspectLocked issues a local Suspect verdict for n.
func (t *Tracker) suspectLocked(n topology.NodeID, events []Event) []Event {
	t.originated[n] = true
	return t.setStateLocked(n, Suspect, events)
}

// setStateLocked moves one member to a new state at its current incarnation,
// with all the transition bookkeeping. Callers hold t.mu.
func (t *Tracker) setStateLocked(n topology.NodeID, next State, events []Event) []Event {
	m := t.members[n]
	if m == nil || m.State == next {
		return events
	}
	prev := m.State
	m.State = next
	t.touchLocked(n)
	t.accountStateLocked(n, prev, next)
	return t.appendTransitionLocked(events, n, prev, next, *m)
}

// accountStateLocked maintains the per-state bookkeeping (alive count,
// suspect age, redial schedule, false-suspect accounting, state gauge)
// across one member's prev→next transition. Callers hold t.mu.
func (t *Tracker) accountStateLocked(n topology.NodeID, prev, next State) {
	if prev == next {
		return
	}
	if prev == Alive {
		t.alive--
	}
	if next == Alive {
		t.alive++
	}
	switch next {
	case Suspect:
		t.suspectAge[n] = 0
	case Failed:
		delete(t.suspectAge, n)
		delete(t.pending, n)
		delete(t.probing, n)
		t.redialN[n] = 0
		t.redialDue[n] = t.round + 1
	case Alive, Draining:
		if prev == Suspect || prev == Failed {
			if t.originated[n] {
				t.reg.Counter("membership.false_suspects").Inc()
			}
		}
		delete(t.suspectAge, n)
		delete(t.pending, n)
		delete(t.probing, n)
		delete(t.originated, n)
		delete(t.redialDue, n)
		delete(t.redialN, n)
	case Left:
		delete(t.suspectAge, n)
		delete(t.pending, n)
		delete(t.probing, n)
		delete(t.originated, n)
		delete(t.redialDue, n)
		delete(t.redialN, n)
	}
	t.reg.Gauge("membership.state." + string(n)).Set(float64(next))
}

// mergeLocked folds received rows under the precedence rules. Callers hold
// t.mu; returned events are appended in node order (the rows arrive sorted
// from the codec, and are sorted defensively here).
func (t *Tracker) mergeLocked(entries []transport.MemberEntry, events []Event) []Event {
	if len(entries) > 1 && !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node }) {
		entries = append([]transport.MemberEntry(nil), entries...)
		sort.Slice(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node })
	}
	for _, e := range entries {
		if e.Node == "" {
			continue
		}
		st := parseState(e.State)
		if e.Node == t.self {
			self := t.members[t.self]
			if st >= Suspect && e.Incarnation >= self.Incarnation && self.State != Left {
				// Refute: a rumor says we are suspect/failed but we are
				// demonstrably running. Jump past it and reassert.
				self.Incarnation = e.Incarnation + 1
				self.Heartbeat++
				t.touchLocked(t.self)
				t.reg.Counter("membership.refutations").Inc()
			}
			continue
		}
		cur, known := t.members[e.Node]
		if !known {
			m := &Member{Node: e.Node, Incarnation: e.Incarnation, Heartbeat: e.Heartbeat, State: st}
			t.members[e.Node] = m
			t.orderInsertLocked(e.Node)
			t.touchLocked(e.Node)
			// Account as born Alive then transitioned, so the alive count
			// and per-state bookkeeping stay consistent for any birth state.
			t.alive++
			t.accountStateLocked(e.Node, Alive, st)
			if st == Alive {
				// accountStateLocked only runs on transitions; publish the
				// gauge for the common born-alive case explicitly.
				t.reg.Gauge("membership.state." + string(e.Node)).Set(float64(Alive))
			}
			events = append(events, Event{Kind: EventJoin, Node: e.Node, Member: *m})
			events = t.appendTransitionLocked(events, e.Node, Alive, st, *m)
			continue
		}
		prev := cur.State
		changed := false
		switch {
		case e.Incarnation > cur.Incarnation:
			cur.Incarnation = e.Incarnation
			cur.Heartbeat = e.Heartbeat
			cur.State = st
			changed = true
		case e.Incarnation == cur.Incarnation:
			// At equal incarnation, state and heartbeat join independently
			// (max each), so merges commute regardless of exchange order.
			if st > cur.State {
				cur.State = st
				changed = true
			}
			if e.Heartbeat > cur.Heartbeat {
				cur.Heartbeat = e.Heartbeat
				changed = true
			}
		}
		if changed {
			t.touchLocked(e.Node)
			t.accountStateLocked(e.Node, prev, cur.State)
		}
		events = t.appendTransitionLocked(events, e.Node, prev, cur.State, *cur)
	}
	return events
}

// appendTransitionLocked records the event (if any) for a prev→next state
// change. Callers hold t.mu.
func (t *Tracker) appendTransitionLocked(events []Event, n topology.NodeID, prev, next State, m Member) []Event {
	if prev == next {
		return events
	}
	switch next {
	case Alive:
		if prev == Suspect || prev == Failed {
			return append(events, Event{Kind: EventRecover, Node: n, Member: m})
		}
	case Suspect:
		return append(events, Event{Kind: EventSuspect, Node: n, Member: m})
	case Failed:
		return append(events, Event{Kind: EventFail, Node: n, Member: m})
	case Draining:
		return append(events, Event{Kind: EventDrain, Node: n, Member: m})
	case Left:
		return append(events, Event{Kind: EventLeave, Node: n, Member: m})
	}
	return events
}

// emit delivers events to the subscriber and charges the event counters.
func (t *Tracker) emit(events []Event) {
	for _, ev := range events {
		t.reg.Counter("membership.events_" + ev.Kind.String()).Inc()
		if t.onEvent != nil {
			t.onEvent(ev)
		}
	}
}

// publishLocked refreshes the aggregate membership gauges. Per-member state
// gauges are published on transitions (accountStateLocked), so this stays
// O(1) — it runs on every merge and beat, and fleets are large now. Callers
// hold t.mu.
func (t *Tracker) publishLocked() {
	t.reg.Gauge("membership.members").Set(float64(len(t.members)))
	t.reg.Gauge("membership.alive").Set(float64(t.alive))
}
