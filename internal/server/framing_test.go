package server_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dvod/internal/admission"
	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/membership"
	"dvod/internal/server"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// TestWatchBinaryFraming: a current client against a current server
// negotiates binary cluster frames, and the delivered content still verifies
// byte-for-byte. The server's delivery counters account every frame.
func TestWatchBinaryFraming(t *testing.T) {
	lc := newCluster(t, nil)
	title := media.Title{Name: "zorba", SizeBytes: 4*clusterBytes + 100, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Patra)

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("zorba")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BinaryFraming {
		t.Fatal("current client/server pair did not negotiate binary framing")
	}
	if !stats.Verified || stats.BytesReceived != title.SizeBytes {
		t.Fatalf("verified=%v bytes=%d", stats.Verified, stats.BytesReceived)
	}
	snap := lc.servers[grnet.Patra].Metrics().Snapshot()
	if got := snap.Counters["server.frames_out"]; got != int64(stats.NumClusters) {
		t.Fatalf("server.frames_out = %d, want %d", got, stats.NumClusters)
	}
	if got := snap.Counters["server.bytes_out"]; got != title.SizeBytes {
		t.Fatalf("server.bytes_out = %d, want %d", got, title.SizeBytes)
	}
	// On Linux every in-memory block is a tmpfs file, so each cluster goes
	// out with sendfile; elsewhere the send loop leases its cluster buffers
	// from the server's pool.
	if runtime.GOOS == "linux" {
		if got := snap.Counters["server.kernel_sends"]; got != int64(stats.NumClusters) {
			t.Fatalf("server.kernel_sends = %d (fallbacks %d), want %d",
				got, snap.Counters["server.fallback_sends"], stats.NumClusters)
		}
	} else if snap.Counters["transport.pool_hits"]+snap.Counters["transport.pool_misses"] < int64(stats.NumClusters) {
		t.Fatalf("pool saw %d+%d leases for %d clusters",
			snap.Counters["transport.pool_hits"], snap.Counters["transport.pool_misses"], stats.NumClusters)
	}
}

// countingFront is a front door that never redirects and counts the watches
// it was asked to route.
type countingFront struct{ calls atomic.Int32 }

func (f *countingFront) Route(string, int) (topology.NodeID, string, bool) {
	f.calls.Add(1)
	return "", "", false
}

// TestWatchWithoutHelloRefused: a watch on a connection that never sent a
// hello gets an error naming cluster-frames-v1 and leaves no trace: the
// front door is not asked to route it, admission grants nothing and the DMA
// counts nothing. The same watch after a hello is served and shows on all
// three.
func TestWatchWithoutHelloRefused(t *testing.T) {
	dmas := make(map[topology.NodeID]*cache.DMA)
	front := &countingFront{}
	broker, err := admission.New(admission.Config{Node: grnet.Patra, CapacityMbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	lc := newMergeNodesCfg(t, clusterBytes, 0, 0, nil, captureDMA(dmas, func(c *server.Config) {
		c.Director, c.Broker = front, broker
	}), grnet.Patra)
	title := media.Title{Name: "zorba", SizeBytes: 3 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Patra)
	srv, dma := lc.servers[grnet.Patra], dmas[grnet.Patra]
	admitted := func() (n int64) {
		for _, c := range broker.Counts() {
			n += c.Admitted
		}
		return n
	}
	points, requests, grants := dma.Points(title.Name), dma.Stats().Requests, admitted()

	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{Title: title.Name})
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
	if rerr := transport.AsError(m); rerr == nil || !strings.Contains(rerr.Error(), transport.CapClusterFrames) {
		t.Fatalf("hello-less watch: reply %q (%v), want an error naming %s", m.Type, rerr, transport.CapClusterFrames)
	}
	if got := dma.Points(title.Name); got != points {
		t.Fatalf("DMA points %d → %d", points, got)
	}
	if got := dma.Stats().Requests; got != requests {
		t.Fatalf("DMA requests %d → %d", requests, got)
	}
	if got := admitted(); got != grants || broker.Sessions() != 0 {
		t.Fatalf("admission: %d admitted (was %d), %d sessions held", got, grants, broker.Sessions())
	}
	if n := front.calls.Load(); n != 0 {
		t.Fatalf("front door routed the refused watch %d times", n)
	}
	if got := srv.Metrics().Snapshot().Counters["server.watch_redirects"]; got != 0 {
		t.Fatalf("server.watch_redirects = %d, want 0", got)
	}

	// The control: the same watch after a hello is routed, admitted, counted.
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Watch(title.Name); err != nil {
		t.Fatal(err)
	}
	if front.calls.Load() != 1 || dma.Stats().Requests != requests+1 || admitted() != grants+1 {
		t.Fatalf("negotiated watch: routed %d, DMA requests %d → %d, admitted %d → %d",
			front.calls.Load(), requests, dma.Stats().Requests, grants, admitted())
	}
}

// TestWatchBinaryFramingRemoteFetch: binary framing on the client leg
// composes with the peer-fetch leg — the home server pulls every cluster
// from a remote holder as a binary cluster.ok and relays it to the client as
// binary frames, sources intact. Thessaloniki is the planned holder; a
// cluster comes from Xanthi only when the home's hedge won it (a fresh peer
// dial can outlast the hedge deadline on a loaded host), so the Xanthi
// clusters must number exactly the hedges the home won.
func TestWatchBinaryFramingRemoteFetch(t *testing.T) {
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes})
	title := media.Title{Name: "zorba", SizeBytes: 4*clusterBytes + 100, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)
	home := lc.servers[grnet.Patra].Metrics()
	hedgesWon := home.Snapshot().Counters["client.hedges_won"]

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("zorba")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.BinaryFraming {
		t.Fatal("binary framing not negotiated")
	}
	if !stats.Verified || stats.BytesReceived != title.SizeBytes {
		t.Fatalf("verified=%v bytes=%d", stats.Verified, stats.BytesReceived)
	}
	var xanthi int64
	for i, src := range stats.Sources {
		switch src {
		case grnet.Thessaloniki:
		case grnet.Xanthi:
			xanthi++
		default:
			t.Fatalf("cluster %d source = %s, want Thessaloniki or Xanthi", i, src)
		}
	}
	m := home.Snapshot()
	if won := m.Counters["client.hedges_won"] - hedgesWon; xanthi != won {
		t.Fatalf("%d clusters came from Xanthi, but the home won %d hedges", xanthi, won)
	}
	if n := m.Counters["server.fetch_retries"]; n != 0 {
		t.Fatalf("server.fetch_retries = %d, want 0", n)
	}
}

// TestHelloDirect exercises the handshake against a live server at the
// transport level: hello gets hello.ok with the cluster capability, and the
// connection still serves regular control requests afterwards.
func TestHelloDirect(t *testing.T) {
	lc := newCluster(t, nil)
	addr, err := lc.book.Lookup(grnet.Patra)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ok, err := conn.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !conn.BinaryFrames() {
		t.Fatal("live server did not grant binary cluster framing")
	}
	// The negotiated connection still answers ordinary control traffic.
	ping, err := transport.Encode(transport.TypePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != transport.TypePong {
		t.Fatalf("reply = %q, want pong", m.Type)
	}
}

// TestStrayBinaryFrameGetsError: a peer starts only ledger-sync and
// member-sync exchanges with a binary frame, and a member sync names its
// sender, another node, and an epoch of at least 1. Any other frame type
// (here a merge-info frame), and a member sync without a sender, from the
// server itself or at epoch 0, is answered with an error reply that leaves
// the member view untouched, and the connection keeps serving control
// requests.
func TestStrayBinaryFrameGetsError(t *testing.T) {
	trackers := make(map[topology.NodeID]*membership.Tracker)
	lc := newCluster(t, nil, func(c *server.Config) {
		tr, err := membership.New(membership.Config{Self: c.Node, Seeds: grnet.Nodes()})
		if err != nil {
			t.Fatal(err)
		}
		trackers[c.Node] = tr
		c.Members = tr
	})
	conn, err := transport.Dial(lc.servers[grnet.Patra].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.RequireClusterFrames(); err != nil {
		t.Fatal(err)
	}
	rows := []transport.MemberEntry{{Node: grnet.Xanthi, Incarnation: 9, State: "failed"}}
	for _, tc := range []struct {
		name  string
		write func() error
		want  string
	}{
		{"merge-info frame", func() error {
			return conn.WriteMergeInfoFrame(transport.MergeInfoPayload{Cohort: 1, Role: transport.MergeRoleBase})
		}, fmt.Sprintf("unexpected binary frame 0x%02x", transport.FrameMergeInfo)},
		{"member sync without a sender", func() error {
			_, err := conn.WriteMemberSyncFrame(transport.MemberSyncPayload{Epoch: 1, Members: rows}, false)
			return err
		}, "member sync from \"\""},
		{"member sync from the server itself", func() error {
			_, err := conn.WriteMemberSyncFrame(transport.MemberSyncPayload{From: grnet.Patra, Epoch: 1, Members: rows}, false)
			return err
		}, "member sync from \"" + string(grnet.Patra) + "\""},
		{"member sync at epoch 0", func() error {
			_, err := conn.WriteMemberSyncFrame(transport.MemberSyncPayload{From: grnet.Athens, Members: rows}, false)
			return err
		}, "epoch 0"},
	} {
		if err := tc.write(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rerr := transport.AsError(m); rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
			t.Fatalf("%s: reply %q (%v), want an error naming %q", tc.name, m.Type, rerr, tc.want)
		}
		ping, err := transport.Encode(transport.TypePing, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteMessage(ping); err != nil {
			t.Fatal(err)
		}
		if m, err = conn.ReadMessage(); err != nil || m.Type != transport.TypePong {
			t.Fatalf("ping after the %s: %q, %v", tc.name, m.Type, err)
		}
	}
	if m, ok := trackers[grnet.Patra].Member(grnet.Xanthi); !ok || m.State != membership.Alive {
		t.Fatalf("Xanthi on Patra after refused syncs: %+v, want alive", m)
	}
}
