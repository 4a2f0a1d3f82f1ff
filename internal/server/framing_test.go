package server_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dvod/internal/client"
	"dvod/internal/grnet"
	"dvod/internal/media"
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

// TestWatchJSONFallback: a client that never offers the hello handshake — the
// behaviour of clients predating the binary protocol — gets the whole title
// over canonical JSON framing from a binary-capable server, byte-identical.
func TestWatchJSONFallback(t *testing.T) {
	lc := newCluster(t, nil)
	title := media.Title{Name: "zorba", SizeBytes: 3 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Patra)

	p, err := client.NewPlayer(grnet.Patra, lc.book, client.WithoutBinaryFraming())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("zorba")
	if err != nil {
		t.Fatal(err)
	}
	if stats.BinaryFraming {
		t.Fatal("JSON-only client reports binary framing")
	}
	if !stats.Verified || stats.BytesReceived != title.SizeBytes {
		t.Fatalf("verified=%v bytes=%d", stats.Verified, stats.BytesReceived)
	}
	// Both framings share the delivery counters.
	snap := lc.servers[grnet.Patra].Metrics().Snapshot()
	if got := snap.Counters["server.frames_out"]; got != int64(stats.NumClusters) {
		t.Fatalf("server.frames_out = %d, want %d", got, stats.NumClusters)
	}
}

// TestWatchBinaryFramingRemoteFetch: binary framing on the client leg
// composes with the peer-fetch leg — the home server pulls every cluster
// from a remote holder as a binary cluster.ok and relays it to the client as
// binary frames, sources intact.
func TestWatchBinaryFramingRemoteFetch(t *testing.T) {
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes})
	title := media.Title{Name: "zorba", SizeBytes: 4*clusterBytes + 100, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)

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
	for i, src := range stats.Sources {
		if src != grnet.Thessaloniki {
			t.Fatalf("cluster %d source = %s, want Thessaloniki", i, src)
		}
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
// member-sync exchanges with a binary frame. Any other frame type, here a
// merge-info frame, is answered with an error reply, and the connection keeps
// serving control requests.
func TestStrayBinaryFrameGetsError(t *testing.T) {
	lc := newCluster(t, nil)
	conn, err := transport.Dial(lc.servers[grnet.Patra].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.RequireClusterFrames(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMergeInfoFrame(transport.MergeInfoPayload{Cohort: 1, Role: transport.MergeRoleBase}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("unexpected binary frame 0x%02x", transport.FrameMergeInfo)
	if rerr := transport.AsError(m); rerr == nil || !strings.Contains(rerr.Error(), want) {
		t.Fatalf("reply %q (%v), want an error naming %q", m.Type, rerr, want)
	}
	ping, err := transport.Encode(transport.TypePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	if m, err = conn.ReadMessage(); err != nil || m.Type != transport.TypePong {
		t.Fatalf("ping after the stray frame: %q, %v", m.Type, err)
	}
}
