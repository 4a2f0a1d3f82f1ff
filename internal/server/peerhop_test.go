package server_test

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"dvod/internal/client"
	"dvod/internal/core"
	"dvod/internal/faults"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/server"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// peerScript tells a fakePeer how to misbehave on the cluster.get hop.
type peerScript struct {
	// hello answers a hello: "" grants it, "refuse" answers with an error
	// frame as a server predating the handshake would, "hangup" closes the
	// connection.
	hello string
	// cutConn and cutReq (both counted from 1) name the one cluster.get
	// whose binary reply breaks off halfway through the body.
	cutConn, cutReq int
}

// fakePeer serves title's true bytes on the cluster.get hop under a script.
// conns counts the connections it accepted and joins the relay.join
// subscriptions it was sent (it serves none of them).
type fakePeer struct {
	title  media.Title
	script peerScript
	conns  atomic.Int32
	joins  atomic.Int32
}

// bufStream lets a transport.Conn frame into a buffer.
type bufStream struct{ *bytes.Buffer }

func (bufStream) Close() error { return nil }

// startFakePeer listens on loopback and points node's address-book entry at
// the fake, so every peer fetch the fleet makes from node reaches it.
func startFakePeer(t *testing.T, lc *liveCluster, node topology.NodeID, title media.Title, script peerScript) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	fp := &fakePeer{title: title, script: script}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go fp.serve(nc, int(fp.conns.Add(1)))
		}
	}()
	lc.book.Set(node, ln.Addr().String())
	return fp
}

func (fp *fakePeer) serve(nc net.Conn, conn int) {
	defer nc.Close()
	c := transport.NewConn(nc)
	for req := 0; ; {
		m, err := c.ReadMessage()
		if err != nil {
			return
		}
		switch m.Type {
		case transport.TypeHello:
			switch fp.script.hello {
			case "refuse":
				err = c.WriteError(`unknown message type "hello"`)
			case "hangup":
				return
			default:
				err = c.AcceptHello(m)
			}
		case transport.TypeClusterGet:
			req++
			get, derr := transport.Decode[transport.ClusterGetPayload](m)
			if derr != nil {
				return
			}
			off := int64(get.Index) * get.ClusterBytes
			p := transport.ClusterPayload{Title: fp.title.Name, Index: get.Index, Offset: off,
				Length: min(get.ClusterBytes, fp.title.SizeBytes-off), Source: grnet.Thessaloniki}
			body := media.Content(fp.title.Name, p.Offset, p.Length)
			if conn == fp.script.cutConn && req == fp.script.cutReq {
				var buf bytes.Buffer
				if transport.NewConn(bufStream{&buf}).WriteClusterFrame(p, body) == nil {
					_, _ = nc.Write(buf.Bytes()[:buf.Len()-len(body)/2])
				}
				return
			}
			err = c.WriteClusterFrame(p, body)
		case transport.TypeRelayJoin:
			fp.joins.Add(1)
			return
		default:
			return
		}
		if err != nil {
			return
		}
	}
}

// TestRemoteWatchSendsEveryOriginClusterByKernel: a 16-cluster remote watch
// on in-memory disks dials the peer once, and on Linux the origin sends every
// cluster.ok with sendfile from its tmpfs block files. Every byte verifies and
// both servers' pools balance.
func TestRemoteWatchSendsEveryOriginClusterByKernel(t *testing.T) {
	pools := make(map[topology.NodeID]*transport.BufferPool)
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config) {
			c.Pool = transport.NewBufferPool(nil)
			pools[c.Node] = c.Pool
		})
	title := media.Title{Name: "sent", SizeBytes: 16 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stats, err := p.Watch(title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified || stats.BytesReceived != title.SizeBytes {
		t.Fatalf("verified=%v bytes=%d", stats.Verified, stats.BytesReceived)
	}
	if dials, _ := peerConnCounters(lc, grnet.Patra); dials != 1 {
		t.Fatalf("16 remote clusters took %d peer dials, want 1", dials)
	}
	origin := lc.servers[grnet.Thessaloniki].Metrics().Snapshot()
	kernel, fallback := origin.Counters["server.kernel_sends"], origin.Counters["server.fallback_sends"]
	if runtime.GOOS == "linux" {
		if kernel != 16 || fallback != 0 {
			t.Fatalf("origin sent %d by kernel, %d by copy; want 16 and 0", kernel, fallback)
		}
	} else if fallback != 16 {
		t.Fatalf("origin sent %d by copy off linux, want 16", fallback)
	}
	waitPoolDrained(t, pools[grnet.Patra], "home")
	waitPoolDrained(t, pools[grnet.Thessaloniki], "origin")
}

// TestPeerReplyBrokenMidBodyIsAPeerFailure: the peer starts a binary
// cluster.ok on a pooled connection and hangs up halfway through the body.
// The peer answered, so this is no stale connection to redial in silence: the
// fetch fails, the retry goes to the other replica, and the retry counter and
// the peer's health score both hear of it.
func TestPeerReplyBrokenMidBodyIsAPeerFailure(t *testing.T) {
	health := faults.NewHealthScores(0)
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config) { c.Health = health })
	title := media.Title{Name: "torn", SizeBytes: 4 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)
	// The first connection's first reply is whole, so the second request
	// rides it from the pool.
	startFakePeer(t, lc, grnet.Thessaloniki, title, peerScript{cutConn: 1, cutReq: 2})
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stats, err := p.Watch(title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if n := m.Counters["server.fetch_retries"]; n != 1 {
		t.Fatalf("server.fetch_retries = %d, want the torn reply counted once", n)
	}
	if got := stats.Sources[1]; got != grnet.Xanthi {
		t.Fatalf("cluster 1 came from %s, want the retry at Xanthi", got)
	}
	if sc := health.Score(grnet.Thessaloniki); sc == 0 {
		t.Fatal("the torn reply left the peer's health score clean")
	}
}

// TestPeerHelloFailures: a peer that answers the hello without granting
// binary cluster frames fails the fetch with ErrClusterFramesRefused, and a
// peer that hangs up on the hello fails it like a refused dial — no redial,
// and neither connection is pooled.
func TestPeerHelloFailures(t *testing.T) {
	for _, tc := range []struct {
		hello   string
		refused bool
	}{{"refuse", true}, {"hangup", false}} {
		t.Run(tc.hello, func(t *testing.T) {
			lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes})
			title := media.Title{Name: "legacy", SizeBytes: 2 * clusterBytes, BitrateMbps: 1.5}
			lc.addTitle(t, title, grnet.Thessaloniki)
			fp := startFakePeer(t, lc, grnet.Thessaloniki, title, peerScript{hello: tc.hello})
			home := lc.servers[grnet.Patra]
			for i := range 2 {
				_, _, err := home.FetchRemoteCluster(core.Decision{Server: grnet.Thessaloniki}, title.Name, 0)
				if err == nil {
					t.Fatal("fetch succeeded without a cluster-frames grant")
				}
				if got := errors.Is(err, transport.ErrClusterFramesRefused); got != tc.refused {
					t.Fatalf("fetch error %v: ErrClusterFramesRefused=%v, want %v", err, got, tc.refused)
				}
				if n := int(fp.conns.Load()); n != i+1 {
					t.Fatalf("fetch %d: peer saw %d connections, want %d", i+1, n, i+1)
				}
			}
			if dials, reuses := peerConnCounters(lc, grnet.Patra); dials != 2 || reuses != 0 {
				t.Fatalf("%d dials, %d reuses; want 2 and 0", dials, reuses)
			}
		})
	}
}

// TestRelayUpstreamHelloFailure: a relay cohort whose preferred holder refuses
// or hangs up on the hello sends it no relay.join. The cohort falls back to
// the private path once, which fetches every cluster from the other replica,
// so the viewer still gets the title byte for byte and no lease leaks.
func TestRelayUpstreamHelloFailure(t *testing.T) {
	for _, hello := range []string{"refuse", "hangup"} {
		t.Run(hello, func(t *testing.T) {
			const numClusters = 4
			pools := make(map[topology.NodeID]*transport.BufferPool)
			lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
				withMerge(numClusters, 0),
				func(c *server.Config) {
					c.RelayCohorts = true
					c.Pool = transport.NewBufferPool(nil)
					pools[c.Node] = c.Pool
				})
			title := media.Title{Name: "upstream", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
			lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)
			fp := startFakePeer(t, lc, grnet.Thessaloniki, title, peerScript{hello: hello})
			p, err := client.NewPlayer(grnet.Patra, lc.book)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			stats, err := p.Watch(title.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Verified || stats.BytesReceived != title.SizeBytes {
				t.Fatalf("verified=%v bytes=%d", stats.Verified, stats.BytesReceived)
			}
			if n := fp.joins.Load(); n != 0 {
				t.Fatalf("the refusing holder was sent %d relay.joins, want 0", n)
			}
			if fp.conns.Load() == 0 {
				t.Fatal("the relay never dialed the preferred holder")
			}
			m := lc.servers[grnet.Patra].Metrics().Snapshot()
			if got := m.Counters["server.relay_fallbacks"]; got != 1 {
				t.Fatalf("relay_fallbacks = %d, want 1", got)
			}
			waitPoolDrained(t, pools[grnet.Patra], "relay")
		})
	}
}

// TestRelayJoinWithoutHelloRefused: a relay stream is binary, so a JSON
// relay.join on a connection that never sent a hello gets an error reply and
// opens no relay session.
func TestRelayJoinWithoutHelloRefused(t *testing.T) {
	lc := newCluster(t, nil)
	title := media.Title{Name: "plain", SizeBytes: 2 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	origin := lc.servers[grnet.Xanthi]
	conn, err := transport.Dial(origin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := transport.Encode(transport.TypeRelayJoin, transport.RelayJoinPayload{Title: title.Name})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != transport.TypeError {
		t.Fatalf("reply %q, want error", m.Type)
	}
	if got := origin.Metrics().Snapshot().Counters["server.relay_watchers"]; got != 0 {
		t.Fatalf("relay_watchers = %d, want 0", got)
	}
}
