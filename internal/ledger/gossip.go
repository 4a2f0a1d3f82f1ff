package ledger

import (
	"fmt"
	"sync"
	"time"

	"dvod/internal/clock"
	"dvod/internal/metrics"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// DefaultGossipInterval is the anti-entropy cadence when Config.Interval is
// zero: fast enough that a reservation is cluster-visible well inside a
// session's lifetime, slow enough to stay a background whisper.
const DefaultGossipInterval = 250 * time.Millisecond

// DefaultFanout is the rumor-mongering width: how many peers one round
// push-pulls with. One peer per round converges in O(N) rounds on a fleet of
// N replicas; fanning out to two cuts that to O(log N) — the difference that
// matters once the fleet grows past the fixture's six nodes — while keeping
// per-round cost constant.
const DefaultFanout = 2

// GossipConfig assembles a Gossiper.
type GossipConfig struct {
	// Ledger is the replica this gossiper feeds. Required.
	Ledger *Ledger
	// Peers are the other replicas, visited round-robin. May be empty (the
	// gossiper then only beats the heartbeat and expires stale origins).
	Peers []topology.NodeID
	// PeersFn, when set, supplies the peer set dynamically each round and
	// takes precedence over Peers — the elastic-membership hook: the facade
	// wires it to the live membership view so joiners are gossiped to and
	// failed or departed replicas stop being dialed. The returned slice may
	// include the local origin; it is filtered out.
	PeersFn func() []topology.NodeID
	// Fanout is how many peers each round exchanges with (rumor-mongering
	// width). Zero uses DefaultFanout; one reproduces the historical
	// single-peer walk.
	Fanout int
	// Lookup resolves a peer to a dialable address. Required when Peers is
	// non-empty.
	Lookup func(topology.NodeID) (string, error)
	// Dial opens a connection to peer at addr. Nil uses transport.Dial; the
	// facade injects a fault-wrapped dialer here so partitions cut gossip
	// exactly like they cut the delivery plane.
	Dial func(peer topology.NodeID, addr string) (*transport.Conn, error)
	// Interval is the gossip cadence. Zero uses DefaultGossipInterval.
	Interval time.Duration
	// Clock paces rounds; nil is wall time.
	Clock clock.Clock
	// Metrics receives ledger.gossip_rounds / ledger.gossip_errors; nil
	// falls back to the ledger's registry.
	Metrics *metrics.Registry
}

// Gossiper runs the anti-entropy loop: every interval it beats the local
// heartbeat, expires origins whose lease ran out, and push-pulls with the
// next peer in round-robin order. One exchange is a fresh dial, a hello that
// must grant binary frames, one ledger-sync frame carrying this replica's
// delta for the peer, and one reply frame carrying the peer's delta back —
// after which both sides hold the union.
type Gossiper struct {
	cfg GossipConfig

	// runMu serializes rounds: the background loop and direct RunOnce
	// callers (deterministic tests) may overlap.
	runMu sync.Mutex
	next  int

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewGossiper validates the configuration and builds a gossiper.
func NewGossiper(cfg GossipConfig) (*Gossiper, error) {
	if cfg.Ledger == nil {
		return nil, fmt.Errorf("ledger: gossiper needs a ledger")
	}
	if (len(cfg.Peers) > 0 || cfg.PeersFn != nil) && cfg.Lookup == nil {
		return nil, fmt.Errorf("ledger: gossiper has peers but no lookup")
	}
	if cfg.Fanout < 0 {
		return nil, fmt.Errorf("ledger: negative fanout %d", cfg.Fanout)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("ledger: negative gossip interval %v", cfg.Interval)
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultGossipInterval
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Ledger.reg
	}
	if cfg.Dial == nil {
		cfg.Dial = func(_ topology.NodeID, addr string) (*transport.Conn, error) {
			return transport.Dial(addr)
		}
	}
	peers := make([]topology.NodeID, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p != cfg.Ledger.Origin() {
			peers = append(peers, p)
		}
	}
	cfg.Peers = peers
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

// RunOnce executes one gossip round synchronously: heartbeat, lease expiry,
// and Fanout peer exchanges (round-robin over the current peer set). Tests
// drive convergence deterministically by calling it directly instead of
// Start.
func (g *Gossiper) RunOnce() {
	g.runMu.Lock()
	defer g.runMu.Unlock()
	g.cfg.Ledger.Beat()
	g.cfg.Ledger.ExpireStale()
	g.cfg.Metrics.Counter("ledger.gossip_rounds").Inc()
	peers := g.peers()
	if len(peers) == 0 {
		return
	}
	fanout := g.cfg.Fanout
	if fanout > len(peers) {
		fanout = len(peers)
	}
	for i := 0; i < fanout; i++ {
		peer := peers[g.next%len(peers)]
		g.next++
		if err := g.exchange(peer); err != nil {
			g.cfg.Metrics.Counter("ledger.gossip_errors").Inc()
		}
	}
}

// peers resolves this round's peer set: the dynamic source when wired, the
// static list otherwise, with the local origin filtered either way.
func (g *Gossiper) peers() []topology.NodeID {
	if g.cfg.PeersFn == nil {
		return g.cfg.Peers
	}
	dynamic := g.cfg.PeersFn()
	out := make([]topology.NodeID, 0, len(dynamic))
	for _, p := range dynamic {
		if p != g.cfg.Ledger.Origin() {
			out = append(out, p)
		}
	}
	return out
}

// exchange performs one push-pull with peer.
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
	// Wall time deliberately: the deadline guards a real socket even when the
	// gossip cadence runs on a virtual clock.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := conn.RequireClusterFrames(); err != nil {
		return fmt.Errorf("negotiate with %s: %w", peer, err)
	}
	if err := conn.WriteLedgerSyncFrame(g.cfg.Ledger.Sync(peer), false); err != nil {
		return fmt.Errorf("send sync to %s: %w", peer, err)
	}
	f, err := conn.ReadReplyFrame(transport.FrameLedgerSync)
	if err != nil {
		return fmt.Errorf("reply from %s: %w", peer, err)
	}
	defer f.Release()
	reply, err := transport.DecodeLedgerSyncFrame(f)
	if err != nil {
		return fmt.Errorf("reply from %s: %w", peer, err)
	}
	g.cfg.Ledger.Merge(reply)
	return nil
}
