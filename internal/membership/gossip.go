package membership

import (
	"fmt"
	"sync"
	"time"

	"dvod/internal/clock"
	"dvod/internal/metrics"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// DefaultGossipInterval matches the ledger gossiper's cadence so the two
// layers stay interval-aligned: one round of each per tick, and the
// round-counted failure detector's windows translate to the same wall time
// the ledger's lease arithmetic assumes.
const DefaultGossipInterval = 250 * time.Millisecond

// DefaultFanout is the rumor-mongering width: how many peers one round
// pushes-pulls with. Two keeps dissemination O(log N) rounds without the
// O(N) per-round cost of flooding.
const DefaultFanout = 2

// DefaultExchangeTimeout bounds one exchange's socket I/O. A stalled peer
// costs at most this much wall time per round — and since exchanges run
// concurrently within a round, several stalled peers still cost one timeout,
// not one each.
const DefaultExchangeTimeout = 2 * time.Second

// GossipConfig assembles a Gossiper.
type GossipConfig struct {
	// Tracker is the view this gossiper disseminates. Required.
	Tracker *Tracker
	// Peers optionally restricts the dialable peer set: when non-nil, the
	// contact plan rotates only over members it returns (see
	// Tracker.PlanContactsWithin). Nil (the usual choice) lets the tracker
	// plan over every known live member plus detection retries and
	// Failed-member redials.
	Peers func() []topology.NodeID
	// Lookup resolves a peer to a dialable address. Required.
	Lookup func(topology.NodeID) (string, error)
	// Dial opens a connection to peer at addr. Nil uses transport.Dial; the
	// facade injects a fault-wrapped dialer so partitions cut membership
	// gossip exactly like they cut the delivery plane.
	Dial func(peer topology.NodeID, addr string) (*transport.Conn, error)
	// Interval is the gossip cadence. Zero uses DefaultGossipInterval.
	Interval time.Duration
	// Fanout is how many rotation peers each round exchanges with. Zero uses
	// DefaultFanout. (Detection retries and due Failed-member redials ride
	// on top; see Tracker.PlanContacts.)
	Fanout int
	// ExchangeTimeout bounds one exchange's or indirect probe's socket I/O.
	// Zero uses DefaultExchangeTimeout.
	ExchangeTimeout time.Duration
	// Clock paces rounds; nil is wall time.
	Clock clock.Clock
	// Metrics receives membership.gossip_rounds / gossip_errors /
	// bytes_out / bytes_in; nil falls back to the tracker's registry.
	Metrics *metrics.Registry
}

// Gossiper disseminates the membership view: every interval it beats the
// tracker's failure detector, push-pulls deltas with this round's contact
// plan (all exchanges concurrently, so a stalled peer costs one timeout, not
// the round), and runs any indirect probes the detector requests before a
// Suspect verdict.
type Gossiper struct {
	cfg GossipConfig

	// runMu serializes rounds: the background loop and direct RunOnce
	// callers (deterministic tests) may overlap.
	runMu sync.Mutex

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewGossiper validates the configuration and builds a gossiper.
func NewGossiper(cfg GossipConfig) (*Gossiper, error) {
	if cfg.Tracker == nil {
		return nil, fmt.Errorf("membership: gossiper needs a tracker")
	}
	if cfg.Lookup == nil {
		return nil, fmt.Errorf("membership: gossiper needs a lookup")
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("membership: negative gossip interval %v", cfg.Interval)
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultGossipInterval
	}
	if cfg.Fanout < 0 {
		return nil, fmt.Errorf("membership: negative fanout %d", cfg.Fanout)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.ExchangeTimeout < 0 {
		return nil, fmt.Errorf("membership: negative exchange timeout %v", cfg.ExchangeTimeout)
	}
	if cfg.ExchangeTimeout == 0 {
		cfg.ExchangeTimeout = DefaultExchangeTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Tracker.reg
	}
	if cfg.Dial == nil {
		cfg.Dial = func(_ topology.NodeID, addr string) (*transport.Conn, error) {
			return transport.Dial(addr)
		}
	}
	return &Gossiper{cfg: cfg}, nil
}

// Interval returns the configured gossip cadence.
func (g *Gossiper) Interval() time.Duration { return g.cfg.Interval }

// Start launches the background loop. Safe to call once.
func (g *Gossiper) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return
	}
	g.started = true
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go g.loop(g.stop, g.done)
}

// Stop halts the loop and waits for it to exit. Safe to call repeatedly.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.started = false
	stop, done := g.stop, g.done
	g.mu.Unlock()
	close(stop)
	<-done
}

func (g *Gossiper) loop(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-g.cfg.Clock.After(g.cfg.Interval):
		}
		g.RunOnce()
	}
}

// RunOnce executes one gossip round synchronously: beat the failure
// detector, exchange deltas with the tracker's contact plan (concurrently —
// the round's wall cost is the slowest peer, not the sum), then resolve any
// indirect probes the detector queued. Tests drive convergence
// deterministically by calling it directly instead of Start.
func (g *Gossiper) RunOnce() {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	tr := g.cfg.Tracker
	tr.Beat()
	g.cfg.Metrics.Counter("membership.gossip_rounds").Inc()
	// The peer restriction goes into the planner, not over its output:
	// filtering afterwards would burn rotation slots on undialable members
	// and starve the fair cadence once the view outgrows the dialable set.
	var allowed func(topology.NodeID) bool
	if g.cfg.Peers != nil {
		set := make(map[topology.NodeID]bool)
		for _, p := range g.cfg.Peers() {
			set[p] = true
		}
		allowed = func(n topology.NodeID) bool { return set[n] }
	}
	plan := tr.PlanContactsWithin(g.cfg.Fanout, allowed)
	var wg sync.WaitGroup
	for _, peer := range plan {
		wg.Add(1)
		go func(peer topology.NodeID) {
			defer wg.Done()
			if err := g.exchange(peer); err != nil {
				g.cfg.Metrics.Counter("membership.gossip_errors").Inc()
				tr.ReportContactFailed(peer)
			}
		}(peer)
	}
	wg.Wait()
	probes := tr.StartProbes()
	var pwg sync.WaitGroup
	for _, p := range probes {
		pwg.Add(1)
		go func(p Probe) {
			defer pwg.Done()
			ok := false
			for _, h := range p.Helpers {
				if g.pingReq(h, p.Target) == nil {
					ok = true
					break
				}
			}
			tr.ReportIndirect(p.Target, ok)
		}(p)
	}
	pwg.Wait()
}

// exchange performs one push-pull delta exchange with peer over a fresh
// connection: require the binary framing, send our unacknowledged rows,
// merge the reply. Success doubles as liveness evidence for the peer (via
// MergeReply); the caller charges failures to the failure detector.
func (g *Gossiper) exchange(peer topology.NodeID) error {
	addr, err := g.cfg.Lookup(peer)
	if err != nil {
		return fmt.Errorf("lookup %s: %w", peer, err)
	}
	conn, err := g.cfg.Dial(peer, addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", peer, err)
	}
	defer conn.Close()
	// Wall time deliberately: the deadline guards a real socket even when
	// the gossip cadence runs on a virtual clock. Both directions are
	// bounded — a silent peer can stall writes as well as reads.
	conn.SetDeadline(time.Now().Add(g.cfg.ExchangeTimeout))
	if err := conn.RequireClusterFrames(); err != nil {
		return fmt.Errorf("negotiate with %s: %w", peer, err)
	}
	n, err := conn.WriteMemberSyncFrame(g.cfg.Tracker.SyncFor(peer), false)
	if err != nil {
		return fmt.Errorf("send sync to %s: %w", peer, err)
	}
	g.cfg.Metrics.Counter("membership.bytes_out").Add(int64(n))
	f, err := conn.ReadReplyFrame(transport.FrameMemberSync)
	if err != nil {
		return fmt.Errorf("reply from %s: %w", peer, err)
	}
	defer f.Release()
	g.cfg.Metrics.Counter("membership.bytes_in").Add(int64(len(f.Payload) + transport.FrameHeaderLen))
	reply, err := transport.DecodeMemberSyncFrame(f)
	if err != nil {
		return fmt.Errorf("reply from %s: %w", peer, err)
	}
	g.cfg.Tracker.MergeReply(peer, reply)
	return nil
}

// pingReq asks helper to probe target on our behalf (member.ping-req): the
// indirect leg of the failure detector. Returns nil only when the helper
// answered and reported the target reachable.
func (g *Gossiper) pingReq(helper, target topology.NodeID) error {
	haddr, err := g.cfg.Lookup(helper)
	if err != nil {
		return fmt.Errorf("lookup helper %s: %w", helper, err)
	}
	// Resolve the target's address for the helper; best effort — the helper
	// can resolve it from its own address book when omitted.
	taddr, _ := g.cfg.Lookup(target)
	conn, err := g.cfg.Dial(helper, haddr)
	if err != nil {
		return fmt.Errorf("dial helper %s: %w", helper, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(g.cfg.ExchangeTimeout))
	m, err := transport.Encode(transport.TypeMemberPingReq, transport.MemberPingReqPayload{
		From:   g.cfg.Tracker.Self(),
		Target: target,
		Addr:   taddr,
	})
	if err != nil {
		return fmt.Errorf("encode ping-req for %s: %w", helper, err)
	}
	g.cfg.Metrics.Counter("membership.bytes_out").Add(int64(len(m.Payload)))
	if err := conn.WriteMessage(m); err != nil {
		return fmt.Errorf("send ping-req to %s: %w", helper, err)
	}
	reply, err := conn.ReadMessage()
	if err != nil {
		return fmt.Errorf("read ping-ack from %s: %w", helper, err)
	}
	if reply.Type != transport.TypeMemberPingAck {
		return fmt.Errorf("reply from %s: unexpected %q", helper, reply.Type)
	}
	g.cfg.Metrics.Counter("membership.bytes_in").Add(int64(len(reply.Payload)))
	ack, err := transport.Decode[transport.MemberPingAckPayload](reply)
	if err != nil {
		return fmt.Errorf("ping-ack from %s: %w", helper, err)
	}
	if !ack.OK {
		return fmt.Errorf("helper %s could not reach %s", helper, target)
	}
	return nil
}
