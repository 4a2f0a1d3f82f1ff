package membership

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvod/internal/clock"
	"dvod/internal/ledger"
	"dvod/internal/metrics"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// dialFunc is the gossipers' Dial hook.
type dialFunc = func(topology.NodeID, string) (*transport.Conn, error)

// serveMember answers exchanges against the target tracker over an
// in-memory pipe, mirroring the server's membership surface: hello
// negotiation, binary member sync, and member.ping-req answered from the
// reachable predicate.
func serveMember(target *Tracker, reachable func(topology.NodeID) bool) dialFunc {
	return func(topology.NodeID, string) (*transport.Conn, error) {
		cp, sp := net.Pipe()
		client, server := transport.NewConn(cp), transport.NewConn(sp)
		go func() {
			defer server.Close()
			for {
				m, f, err := server.ReadFrameOrMessage(nil)
				if err != nil {
					return
				}
				if f != nil {
					if f.Type != transport.FrameMemberSync {
						f.Release()
						return
					}
					req, derr := transport.DecodeMemberSyncFrame(f)
					f.Release()
					if derr != nil {
						return
					}
					reply, herr := target.HandleSync(req)
					if herr != nil {
						return
					}
					if _, err := server.WriteMemberSyncFrame(reply, true); err != nil {
						return
					}
					continue
				}
				switch m.Type {
				case transport.TypeHello:
					if server.AcceptHello(m) != nil {
						return
					}
				case transport.TypeMemberPingReq:
					req, derr := transport.Decode[transport.MemberPingReqPayload](m)
					if derr != nil {
						return
					}
					ok := reachable == nil || reachable(req.Target)
					reply, eerr := transport.Encode(transport.TypeMemberPingAck,
						transport.MemberPingAckPayload{Target: req.Target, OK: ok})
					if eerr != nil || server.WriteMessage(reply) != nil {
						return
					}
				default:
					return
				}
			}
		}()
		return client, nil
	}
}

// TestGossiperConvergesAndDetects runs a three-node fleet over in-memory
// pipes: steady rounds keep everyone alive, and a killed node is marked
// failed by the survivors — via the full direct-then-indirect probe path —
// within the round-counted windows.
func TestGossiperConvergesAndDetects(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	nodes := []topology.NodeID{"A", "B", "C"}
	trackers := map[topology.NodeID]*Tracker{}
	regs := map[topology.NodeID]*metrics.Registry{}
	for _, n := range nodes {
		reg := metrics.NewRegistry()
		tr, err := New(Config{Self: n, Seeds: nodes, Metrics: reg})
		if err != nil {
			t.Fatalf("tracker %s: %v", n, err)
		}
		trackers[n] = tr
		regs[n] = reg
	}
	alive := map[topology.NodeID]bool{"A": true, "B": true, "C": true}
	gossipers := map[topology.NodeID]*Gossiper{}
	for _, n := range nodes {
		tr := trackers[n]
		g, err := NewGossiper(GossipConfig{
			Tracker: tr,
			Lookup:  func(p topology.NodeID) (string, error) { return "mem", nil },
			Dial: func(peer topology.NodeID, _ string) (*transport.Conn, error) {
				if !alive[peer] {
					return nil, errors.New("connection refused")
				}
				return serveMember(trackers[peer], func(target topology.NodeID) bool {
					return alive[target]
				})(peer, "mem")
			},
			Clock: clk,
		})
		if err != nil {
			t.Fatalf("gossiper %s: %v", n, err)
		}
		gossipers[n] = g
	}
	round := func() {
		for _, n := range nodes {
			if alive[n] {
				gossipers[n].RunOnce()
			}
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if got := stateOf(t, trackers[n], m); got != Alive {
				t.Fatalf("%s sees %s as %v after steady rounds, want alive", n, m, got)
			}
		}
	}
	// The steady rounds ran over the negotiated binary framing, and both
	// byte directions were accounted.
	if regs["A"].Counter("membership.bytes_out").Value() == 0 ||
		regs["A"].Counter("membership.bytes_in").Value() == 0 {
		t.Fatal("exchange byte counters never moved")
	}

	// Kill C: its gossiper stops and dials toward it refuse. Survivors
	// accumulate direct failures, fail the indirect probe through the other
	// survivor, and mark C suspect then failed inside the default windows.
	alive["C"] = false
	for i := 0; i < DefaultFailRounds; i++ {
		round()
	}
	for _, n := range []topology.NodeID{"A", "B"} {
		if got := stateOf(t, trackers[n], "C"); got != Failed {
			t.Fatalf("%s sees C as %v after kill, want failed", n, got)
		}
	}
	if got := trackers["A"].Alive(); len(got) != 2 {
		t.Fatalf("A's alive set %v, want 2 members", got)
	}
	// The verdicts went through the indirect probe, not straight to suspect.
	probed := regs["A"].Counter("membership.indirect_probes").Value() +
		regs["B"].Counter("membership.indirect_probes").Value()
	if probed == 0 {
		t.Fatal("no indirect probes ran before the fail verdicts")
	}
}

// refusingPeer dials a peer that answers the hello without granting binary
// frames: "refuse" sends the error frame of a server predating the handshake,
// "no-grant" a hello.ok that grants nothing. The peer counts every frame or
// message that arrives after the hello into after; wg tracks its goroutines.
func refusingPeer(mode string, after *atomic.Int32, wg *sync.WaitGroup) dialFunc {
	return func(topology.NodeID, string) (*transport.Conn, error) {
		cp, sp := net.Pipe()
		client, server := transport.NewConn(cp), transport.NewConn(sp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer server.Close()
			if _, err := server.ReadMessage(); err != nil {
				return
			}
			var err error
			if mode == "refuse" {
				err = server.WriteError(`unknown message type "hello"`)
			} else {
				var m transport.Message
				if m, err = transport.Encode(transport.TypeHelloOK, transport.HelloOKPayload{Version: transport.FrameVersion}); err == nil {
					err = server.WriteMessage(m)
				}
			}
			for err == nil {
				var f *transport.Frame
				if _, f, err = server.ReadFrameOrMessage(nil); err == nil {
					f.Release()
					after.Add(1)
				}
			}
		}()
		return client, nil
	}
}

// TestGossipersRefuseNonBinaryPeer: ledger and membership gossip speak only
// binary frames. Against a peer that refuses the hello or grants nothing, one
// round counts one gossip error and sends the peer nothing after the hello.
// The membership exchange fails with ErrClusterFramesRefused and the failure
// detector charges the peer.
func TestGossipersRefuseNonBinaryPeer(t *testing.T) {
	lookup := func(topology.NodeID) (string, error) { return "mem", nil }
	clk := clock.NewVirtual(time.Unix(0, 0))
	gossipers := []struct {
		name string
		// round runs one gossip round against dial and returns the
		// registry its gossip_errors counter lives in.
		round func(t *testing.T, dial dialFunc) *metrics.Registry
	}{
		{"ledger", func(t *testing.T, dial dialFunc) *metrics.Registry {
			reg := metrics.NewRegistry()
			l, err := ledger.New(ledger.Config{Origin: "A", Clock: clk, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			g, err := ledger.NewGossiper(ledger.GossipConfig{Ledger: l, Peers: []topology.NodeID{"B"},
				Lookup: lookup, Dial: dial, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			g.RunOnce()
			return reg
		}},
		{"membership", func(t *testing.T, dial dialFunc) *metrics.Registry {
			reg := metrics.NewRegistry()
			tr := newTestTracker(t, "A", "B")
			g, err := NewGossiper(GossipConfig{Tracker: tr, Lookup: lookup, Dial: dial, Clock: clk, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.exchange("B"); !errors.Is(err, transport.ErrClusterFramesRefused) {
				t.Fatalf("exchange error %v, want ErrClusterFramesRefused", err)
			}
			g.RunOnce()
			tr.mu.Lock()
			defer tr.mu.Unlock()
			if tr.pending["B"] == 0 {
				t.Fatal("the failure detector was not charged for the refused exchange")
			}
			return reg
		}},
	}
	for _, gs := range gossipers {
		for _, mode := range []string{"refuse", "no-grant"} {
			t.Run(gs.name+"/"+mode, func(t *testing.T) {
				var after atomic.Int32
				var wg sync.WaitGroup
				reg := gs.round(t, refusingPeer(mode, &after, &wg))
				wg.Wait()
				if n := reg.Counter(gs.name + ".gossip_errors").Value(); n != 1 {
					t.Fatalf("%s.gossip_errors = %d, want 1", gs.name, n)
				}
				if n := after.Load(); n != 0 {
					t.Fatalf("peer received %d messages after refusing the hello, want 0", n)
				}
			})
		}
	}
}

// TestStalledPeersDoNotStackOnCadence pins the concurrent-exchange satellite:
// a round facing several stalled peers costs one exchange timeout, not one
// per peer — the failure mode of the old serial loop, where each dead peer
// added its full timeout to the round.
func TestStalledPeersDoNotStackOnCadence(t *testing.T) {
	const timeout = 150 * time.Millisecond
	tr := newTestTracker(t, "A", "B", "C", "D")
	stalledDial := func(topology.NodeID, string) (*transport.Conn, error) {
		cp, _ := net.Pipe()
		// No server goroutine: the hello write blocks until the read
		// deadline fires, like a peer that accepted and went silent.
		return transport.NewConn(cp), nil
	}
	g, err := NewGossiper(GossipConfig{
		Tracker:         tr,
		Fanout:          3,
		ExchangeTimeout: timeout,
		Lookup:          func(topology.NodeID) (string, error) { return "mem", nil },
		Dial:            stalledDial,
		Clock:           clock.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatalf("gossiper: %v", err)
	}
	start := time.Now()
	g.RunOnce()
	elapsed := time.Since(start)
	// Three stalled exchanges serially would cost ≥ 3×timeout (450ms);
	// concurrently they overlap into roughly one timeout. The bound leaves
	// slack for scheduler noise while still ruling out serial stacking.
	if elapsed >= 2*timeout {
		t.Fatalf("round with 3 stalled peers took %v, want ≈ one %v timeout (exchanges must overlap)", elapsed, timeout)
	}
	// And the failures were charged to the detector.
	for _, n := range []topology.NodeID{"B", "C", "D"} {
		tr.mu.Lock()
		p := tr.pending[n]
		tr.mu.Unlock()
		if p == 0 {
			t.Fatalf("stalled peer %s has no pending failure evidence", n)
		}
	}
}
