// Package faults is the deterministic fault-injection layer of the VoD
// service, plus the self-healing primitives the delivery plane defends
// itself with.
//
// Injection side: a declarative Plan schedules faults ("at T, fail X for D")
// — link flaps and partitions, peer death and byte-stalls, slow / stalling /
// short-reading disks — and an Injector armed with the plan applies them to
// the running stack through small hooks: Dial (DialError, then a gate on
// the dialed socket) on the live transport path, and ReadInterceptor on disk
// arrays. The plan is seed-pinned: the sequence of activation/deactivation
// events (Events) is a pure function of the plan, so the same plan and seed
// reproduce the identical event sequence run after run — a flaky production
// failure becomes a regression test.
//
// Defense side (the other files of this package): per-peer circuit breakers
// (BreakerSet), the one judge of a failing peer on a server's fetch path; the
// hedging LatencyTracker; and the client's resume RetryBudget and jittered
// exponential Backoff.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvod/internal/clock"
	"dvod/internal/disk"
	"dvod/internal/metrics"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// Kind names a fault class.
type Kind string

// The fault taxonomy (see DESIGN.md § "Failure model").
const (
	// KindLinkDown takes a network link down: live streams whose route
	// crosses it are cut and new dials across it fail.
	KindLinkDown Kind = "link.down"
	// KindPeerDown kills a peer from the network's point of view: its live
	// streams are cut and new dials to it fail.
	KindPeerDown Kind = "peer.down"
	// KindPeerStall freezes a peer's streams: bytes stop moving for the
	// fault window, then flow resumes — the gray failure breakers and
	// hedging exist for.
	KindPeerStall Kind = "peer.stall"
	// KindDiskSlow adds Delay of service latency to every block read on the
	// node's array.
	KindDiskSlow Kind = "disk.slow"
	// KindDiskStall blocks every read on the node's array until the fault
	// window closes.
	KindDiskStall Kind = "disk.stall"
	// KindDiskShortRead makes reads on the node's array return truncated
	// data (a deterministic, seed-derived fraction of the block), which the
	// layer above must detect and fail.
	KindDiskShortRead Kind = "disk.shortread"
)

// Event is one scheduled fault: at offset At from injector start, apply Kind
// to the target for duration For.
type Event struct {
	// At is the activation offset from Injector.Start.
	At time.Duration `json:"at"`
	// For is how long the fault stays active.
	For time.Duration `json:"for"`
	// Kind is the fault class.
	Kind Kind `json:"kind"`
	// Node targets peer.* and disk.* faults.
	Node topology.NodeID `json:"node,omitempty"`
	// Link targets link.down faults.
	Link topology.LinkID `json:"link,omitempty"`
	// Delay is the added per-read latency of disk.slow faults.
	Delay time.Duration `json:"delay,omitempty"`
}

// Target renders the event's subject for logs and the event sequence.
func (e Event) Target() string {
	if e.Link != "" {
		return string(e.Link)
	}
	return string(e.Node)
}

// Plan is a declarative fault schedule. Build it with the helper methods (or
// literal Events) and hand it to NewInjector.
type Plan struct {
	Events []Event `json:"events"`
}

// FlapLink schedules a link outage: at offset at, link goes down for dur.
func (p *Plan) FlapLink(at, dur time.Duration, link topology.LinkID) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Kind: KindLinkDown, Link: link})
	return p
}

// FailPeer schedules a peer outage.
func (p *Plan) FailPeer(at, dur time.Duration, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Kind: KindPeerDown, Node: node})
	return p
}

// StallPeer schedules a byte-stall on a peer's streams.
func (p *Plan) StallPeer(at, dur time.Duration, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Kind: KindPeerStall, Node: node})
	return p
}

// SlowDisk schedules added per-read latency on a node's array.
func (p *Plan) SlowDisk(at, dur time.Duration, node topology.NodeID, perRead time.Duration) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Kind: KindDiskSlow, Node: node, Delay: perRead})
	return p
}

// StallDisk schedules a full read stall on a node's array.
func (p *Plan) StallDisk(at, dur time.Duration, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Kind: KindDiskStall, Node: node})
	return p
}

// ShortReadDisk schedules truncated reads on a node's array.
func (p *Plan) ShortReadDisk(at, dur time.Duration, node topology.NodeID) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Kind: KindDiskShortRead, Node: node})
	return p
}

// Validate checks every event is well-formed.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d: negative offset %v", i, e.At)
		}
		if e.For <= 0 {
			return fmt.Errorf("faults: event %d: non-positive duration %v", i, e.For)
		}
		switch e.Kind {
		case KindLinkDown:
			if e.Link == "" {
				return fmt.Errorf("faults: event %d: %s needs a link", i, e.Kind)
			}
		case KindPeerDown, KindPeerStall, KindDiskStall, KindDiskShortRead:
			if e.Node == "" {
				return fmt.Errorf("faults: event %d: %s needs a node", i, e.Kind)
			}
		case KindDiskSlow:
			if e.Node == "" {
				return fmt.Errorf("faults: event %d: %s needs a node", i, e.Kind)
			}
			if e.Delay <= 0 {
				return fmt.Errorf("faults: event %d: disk.slow needs a positive delay", i)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// LogEntry is one row of the injector's deterministic event sequence: the
// activation (Active=true) or deactivation of one plan event.
type LogEntry struct {
	// Seq is the entry's position in the sequence.
	Seq int `json:"seq"`
	// At is the offset from injector start.
	At time.Duration `json:"at"`
	// Kind and Target identify the fault.
	Kind   Kind   `json:"kind"`
	Target string `json:"target"`
	// Active is true for activation, false for deactivation.
	Active bool `json:"active"`
}

// ErrInjected is the sentinel every injected failure wraps, so callers (and
// tests) can tell injected faults from organic ones.
var ErrInjected = errors.New("injected fault")

// FaultError is the error surfaced by an injected dial refusal, stream cut,
// or disk failure.
type FaultError struct {
	Kind   Kind
	Target string
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("injected %s on %s", e.Kind, e.Target)
}

// Unwrap lets errors.Is(err, ErrInjected) match.
func (e *FaultError) Unwrap() error { return ErrInjected }

// Injector arms a validated Plan against a clock and applies it through the
// hook methods. One injector serves a whole deployment: every server routes
// its peer dials and disk array through the same injector, so a single plan
// describes the whole system's failure schedule. All methods are safe for
// concurrent use.
type Injector struct {
	plan     []Event
	seed     int64
	clk      clock.Clock
	reg      *metrics.Registry
	injected *metrics.Counter
	log      []LogEntry

	mu      sync.Mutex
	started bool
	start   time.Time
	stop    chan struct{}
	rng     *rand.Rand
	conns   map[*gatedConn]struct{}
}

// NewInjector validates the plan and builds an injector. The seed pins every
// randomized choice the injector makes (short-read truncation points), and
// the clock times the fault windows: clock.Wall for live TCP deployments, a
// clock.Virtual for runs that step time by hand.
// reg receives the faults.injected_total counter; nil allocates a private
// registry.
func NewInjector(plan Plan, seed int64, clk clock.Clock, reg *metrics.Registry) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.Wall{}
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	events := append([]Event(nil), plan.Events...)
	i := &Injector{
		plan:     events,
		seed:     seed,
		clk:      clk,
		reg:      reg,
		injected: reg.Counter("faults.injected_total"),
		log:      materializeLog(events),
		stop:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(seed)),
		conns:    make(map[*gatedConn]struct{}),
	}
	return i, nil
}

// materializeLog derives the deterministic activation/deactivation sequence
// from the plan: two entries per event, ordered by instant (ties broken by
// plan position, activations before deactivations). It depends on nothing
// but the plan, which is what makes a pinned seed reproduce the identical
// sequence.
func materializeLog(events []Event) []LogEntry {
	type raw struct {
		at     time.Duration
		idx    int
		active bool
	}
	rows := make([]raw, 0, 2*len(events))
	for idx, e := range events {
		rows = append(rows, raw{at: e.At, idx: idx, active: true})
		rows = append(rows, raw{at: e.At + e.For, idx: idx, active: false})
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].at != rows[b].at {
			return rows[a].at < rows[b].at
		}
		if rows[a].active != rows[b].active {
			return rows[a].active
		}
		return rows[a].idx < rows[b].idx
	})
	out := make([]LogEntry, len(rows))
	for seq, r := range rows {
		e := events[r.idx]
		out[seq] = LogEntry{Seq: seq, At: r.at, Kind: e.Kind, Target: e.Target(), Active: r.active}
	}
	return out
}

// Start anchors the plan at the clock's current instant and arms the stream
// cutter that breaks live connections when a link.down or peer.down fault
// activates. It is an error to start twice.
func (i *Injector) Start() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.started {
		return errors.New("faults: injector already started")
	}
	i.started = true
	i.start = i.clk.Now()
	go i.cutLoop(i.start)
	return nil
}

// Stop disarms the injector: scheduled cuts stop firing and no further
// faults are injected. Idempotent.
func (i *Injector) Stop() {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.started {
		return
	}
	select {
	case <-i.stop:
	default:
		close(i.stop)
	}
}

// stopped reports whether Stop has been called.
func (i *Injector) stopped() bool {
	select {
	case <-i.stop:
		return true
	default:
		return false
	}
}

// Events returns the deterministic activation/deactivation sequence derived
// from the plan (available before Start; offsets are relative to it).
func (i *Injector) Events() []LogEntry {
	return append([]LogEntry(nil), i.log...)
}

// Seed returns the pinned seed.
func (i *Injector) Seed() int64 { return i.seed }

// Registry returns the registry holding faults.injected_total.
func (i *Injector) Registry() *metrics.Registry { return i.reg }

// InjectedTotal reports how many faults have actually been injected so far
// (dial refusals, stream cuts, stalls, disk faults) — distinct from the plan
// length: a scheduled fault that nothing touches injects nothing.
func (i *Injector) InjectedTotal() int64 { return i.injected.Value() }

// elapsed returns the plan offset of the clock's current instant, and
// whether the injector is running (started and not stopped).
func (i *Injector) elapsed() (time.Duration, bool) {
	i.mu.Lock()
	started, start := i.started, i.start
	i.mu.Unlock()
	if !started || i.stopped() {
		return 0, false
	}
	return i.clk.Now().Sub(start), true
}

// activeEvent returns the first plan event matching m that is active at the
// current instant.
func (i *Injector) activeEvent(m func(Event) bool) (Event, bool) {
	el, running := i.elapsed()
	if !running {
		return Event{}, false
	}
	for _, e := range i.plan {
		if el >= e.At && el < e.At+e.For && m(e) {
			return e, true
		}
	}
	return Event{}, false
}

// remaining returns how long the event stays active from the current instant.
func (i *Injector) remaining(e Event) time.Duration {
	el, running := i.elapsed()
	if !running {
		return 0
	}
	r := e.At + e.For - el
	if r < 0 {
		r = 0
	}
	return r
}

// pathDown matches faults that sever a route to peer: the peer itself being
// down, or any traversed link being down.
func pathDown(peer topology.NodeID, path []topology.LinkID) func(Event) bool {
	return func(e Event) bool {
		switch e.Kind {
		case KindPeerDown:
			return e.Node == peer
		case KindLinkDown:
			for _, l := range path {
				if l == e.Link {
					return true
				}
			}
		}
		return false
	}
}

// DialError reports the fault that must refuse a new connection to peer over
// the route crossing path, or nil when none is active. Callers check it
// before dialing.
func (i *Injector) DialError(peer topology.NodeID, path []topology.LinkID) error {
	e, ok := i.activeEvent(pathDown(peer, path))
	if !ok {
		return nil
	}
	i.injected.Inc()
	return &FaultError{Kind: e.Kind, Target: e.Target()}
}

// Dial connects to peer at addr over the route crossing path: a fault
// refusing the route fails the dial (DialError), and the connection's gate
// lets a later fault cut or stall it on the sendfile and splice paths an
// unarmed dial takes. A nil injector dials plainly, so callers need no
// armed-plan check of their own.
func (i *Injector) Dial(peer topology.NodeID, path []topology.LinkID, addr string) (*transport.Conn, error) {
	if i == nil {
		return transport.Dial(addr)
	}
	if err := i.DialError(peer, path); err != nil {
		return nil, err
	}
	g := &gatedConn{inj: i, peer: peer, path: slices.Clone(path), closed: make(chan struct{})}
	c, err := transport.DialGated(addr, g)
	if err != nil {
		return nil, err
	}
	g.conn = c
	i.mu.Lock()
	i.conns[g] = struct{}{}
	i.mu.Unlock()
	return c, nil
}

// cutLoop waits for each link.down / peer.down activation and severs the
// live streams its fault covers, so reads blocked mid-cluster break at the
// scheduled instant rather than at the next I/O boundary.
func (i *Injector) cutLoop(start time.Time) {
	type cut struct {
		at time.Duration
		e  Event
	}
	var cuts []cut
	for _, e := range i.plan {
		if e.Kind == KindLinkDown || e.Kind == KindPeerDown {
			cuts = append(cuts, cut{at: e.At, e: e})
		}
	}
	sort.SliceStable(cuts, func(a, b int) bool { return cuts[a].at < cuts[b].at })
	for _, c := range cuts {
		wait := start.Add(c.at).Sub(i.clk.Now())
		if wait > 0 {
			select {
			case <-i.clk.After(wait):
			case <-i.stop:
				return
			}
		}
		if i.stopped() {
			return
		}
		i.cutMatching(c.e)
	}
}

// cutMatching severs every live connection the event's fault covers.
func (i *Injector) cutMatching(e Event) {
	i.mu.Lock()
	victims := make([]*gatedConn, 0, len(i.conns))
	for g := range i.conns {
		if pathDown(g.peer, g.path)(e) {
			victims = append(victims, g)
		}
	}
	i.mu.Unlock()
	for _, g := range victims {
		if g.cut.CompareAndSwap(false, true) {
			i.injected.Inc()
			_ = g.conn.Close()
		}
	}
}

// ReadInterceptor returns the disk-fault hook for the node's array: install
// it with Array.SetReadInterceptor. disk.slow sleeps the configured delay
// (on the injector's clock), disk.stall sleeps out the fault window, and
// disk.shortread truncates the read at a seed-derived point.
func (i *Injector) ReadInterceptor(node topology.NodeID) disk.ReadInterceptor {
	return func(id disk.BlockID) disk.ReadFault {
		// Stall first: a stalled disk answers (slowly) rather than failing.
		if e, ok := i.activeEvent(func(e Event) bool {
			return e.Kind == KindDiskStall && e.Node == node
		}); ok {
			i.injected.Inc()
			i.clk.Sleep(i.remaining(e))
		}
		if e, ok := i.activeEvent(func(e Event) bool {
			return e.Kind == KindDiskSlow && e.Node == node
		}); ok {
			i.injected.Inc()
			i.clk.Sleep(e.Delay)
		}
		if _, ok := i.activeEvent(func(e Event) bool {
			return e.Kind == KindDiskShortRead && e.Node == node
		}); ok {
			i.injected.Inc()
			i.mu.Lock()
			frac := 0.25 + 0.5*i.rng.Float64()
			i.mu.Unlock()
			return disk.ReadFault{ShortFraction: frac}
		}
		return disk.ReadFault{}
	}
}

// gatedConn is the injector's record of one dialed connection, its gate,
// and its entry in the cut set from the dial until the Conn closes.
type gatedConn struct {
	inj    *Injector
	peer   topology.NodeID
	path   []topology.LinkID
	conn   *transport.Conn
	cut    atomic.Bool
	closed chan struct{}
}

// Pass blocks through stall windows, or until the Conn closes, and cuts the
// connection when a covering down fault is active (I/O already blocked is
// the cut loop's).
func (g *gatedConn) Pass() error {
	if g.cut.Load() {
		return &FaultError{Kind: KindPeerDown, Target: string(g.peer)}
	}
	if e, ok := g.inj.activeEvent(pathDown(g.peer, g.path)); ok {
		if g.cut.CompareAndSwap(false, true) {
			g.inj.injected.Inc()
			// Pass may run inside a kernel step holding the socket, which
			// a Close waits out, so the close runs on its own goroutine.
			go g.conn.Close()
		}
		return &FaultError{Kind: e.Kind, Target: e.Target()}
	}
	// Stalls freeze the connection but do not break it.
	for {
		e, ok := g.inj.activeEvent(func(e Event) bool {
			return e.Kind == KindPeerStall && e.Node == g.peer
		})
		if !ok {
			return nil
		}
		g.inj.injected.Inc()
		select {
		case <-g.inj.clk.After(g.inj.remaining(e)):
		case <-g.closed:
			return net.ErrClosed
		}
	}
}

// Closed drops the connection from the cut set, once.
func (g *gatedConn) Closed() {
	g.inj.mu.Lock()
	defer g.inj.mu.Unlock()
	if _, ok := g.inj.conns[g]; ok {
		delete(g.inj.conns, g)
		close(g.closed)
	}
}
