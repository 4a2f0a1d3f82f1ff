package server_test

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"dvod/internal/admission"
	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/server"
	"dvod/internal/transport"
)

// The admission E2E tests hold sessions open by not reading the delivery
// stream: the server handler blocks on TCP backpressure with the grant still
// held. The title must outsize the kernel's socket buffering (tcp_wmem caps
// the send buffer at a few MiB, and the holder conns shrink their receive
// buffer), so delivery cannot complete into the kernel while unread.
const (
	admClusterBytes = 256 << 10
	admTitleBytes   = 16 << 20
)

// newAdmissionServer starts one broker-guarded Patra server with the title
// preloaded locally, so every watch is served from the local array.
func newAdmissionServer(t *testing.T, brokerCfg admission.Config, maxConns int) (*server.Server, *transport.AddrBook, media.Title) {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	arr, err := disk.NewUniformArray("patra", 3, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: admClusterBytes})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.NewPlanner(d, core.VRA{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var broker *admission.Broker
	if brokerCfg.CapacityMbps > 0 {
		brokerCfg.Node = grnet.Patra
		broker, err = admission.New(brokerCfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	book := transport.NewAddrBook()
	srv, err := server.New(server.Config{
		Node:         grnet.Patra,
		DB:           d,
		Planner:      planner,
		Array:        arr,
		Cache:        dma,
		ClusterBytes: admClusterBytes,
		Book:         book,
		Broker:       broker,
		MaxConns:     maxConns,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	title := media.Title{Name: "epic", SizeBytes: admTitleBytes, BitrateMbps: 2.0}
	if err := d.Catalog().AddTitle(title); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preload(title); err != nil {
		t.Fatal(err)
	}
	return srv, book, title
}

// holdWatch opens a watch for the class and reads only the head frame, then
// stops reading so the session stays admitted until the conn is closed. It
// returns the conn and the head message.
func holdWatch(t *testing.T, addr, title, class string) (*transport.Conn, transport.Message) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny receive buffer keeps the kernel from swallowing the stream.
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	c := transport.NewConn(nc)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.RequireClusterFrames(); err != nil {
		t.Fatal(err)
	}
	req, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{
		Title: title, Class: class,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	head, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	return c, head
}

func decodeWatchOK(t *testing.T, head transport.Message) transport.WatchOKPayload {
	t.Helper()
	if rerr := transport.AsError(head); rerr != nil {
		t.Fatalf("watch refused: %v", rerr)
	}
	if head.Type != transport.TypeWatchOK {
		t.Fatalf("head = %q, want %q", head.Type, transport.TypeWatchOK)
	}
	ok, err := transport.Decode[transport.WatchOKPayload](head)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestAdmissionE2EPremiumProtected saturates the background class's trunk
// share and shows the broker degrading then rejecting background sessions
// while a premium watch still completes at the full bitrate — the
// class-protection property the subsystem exists for.
func TestAdmissionE2EPremiumProtected(t *testing.T) {
	// Capacity 10, title bitrate 2: background (share 0.5 -> 5 Mbps) fits
	// two full-rate sessions, a third only at the 0.5 ladder step, a fourth
	// not at all. Premium (share 1.0) keeps 5 Mbps of headroom throughout.
	srv, book, title := newAdmissionServer(t, admission.Config{CapacityMbps: 10}, 0)

	c1, h1 := holdWatch(t, srv.Addr(), title.Name, "background")
	ok1 := decodeWatchOK(t, h1)
	if ok1.Degraded || ok1.DeliveredMbps != 2.0 || ok1.Class != "background" {
		t.Fatalf("session 1 = %+v, want full-rate background", ok1)
	}
	c2, h2 := holdWatch(t, srv.Addr(), title.Name, "background")
	if ok2 := decodeWatchOK(t, h2); ok2.Degraded {
		t.Fatalf("session 2 = %+v, want full rate", ok2)
	}
	c3, h3 := holdWatch(t, srv.Addr(), title.Name, "background")
	ok3 := decodeWatchOK(t, h3)
	if !ok3.Degraded || ok3.DeliveredMbps != 1.0 {
		t.Fatalf("session 3 = %+v, want degraded to 1.0 Mbps (0.5 step)", ok3)
	}

	// The fourth background request exhausts the ladder: typed rejection.
	c4, h4 := holdWatch(t, srv.Addr(), title.Name, "background")
	if h4.Type != transport.TypeWatchReject {
		t.Fatalf("session 4 head = %q, want %q", h4.Type, transport.TypeWatchReject)
	}
	rej, err := transport.Decode[transport.WatchRejectPayload](h4)
	if err != nil {
		t.Fatal(err)
	}
	if rej.Reason != string(admission.ReasonCapacity) || rej.Class != "background" {
		t.Fatalf("rejection = %+v", rej)
	}
	_ = c4.Close()

	// The Player sees the same rejection as a typed error.
	bg, err := client.NewPlayer(grnet.Patra, book, client.WithClass(admission.Background))
	if err != nil {
		t.Fatal(err)
	}
	_, err = bg.Watch(title.Name)
	var rejErr *client.RejectedError
	if !errors.As(err, &rejErr) || !errors.Is(err, admission.ErrRejected) {
		t.Fatalf("background Watch error = %v, want RejectedError", err)
	}

	// Premium still completes, undegraded, at the native bitrate, while the
	// three background sessions hold 5 Mbps committed.
	prem, err := client.NewPlayer(grnet.Patra, book, client.WithClass(admission.Premium))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := prem.Watch(title.Name)
	if err != nil {
		t.Fatalf("premium Watch: %v", err)
	}
	if stats.Degraded || stats.DeliveredMbps != title.BitrateMbps || stats.Class != admission.Premium {
		t.Fatalf("premium stats = class %s degraded %v at %g Mbps",
			stats.Class, stats.Degraded, stats.DeliveredMbps)
	}
	if stats.BytesReceived != title.SizeBytes || !stats.Verified {
		t.Fatalf("premium received %d verified=%v", stats.BytesReceived, stats.Verified)
	}

	m := srv.Metrics().Snapshot()
	if m.Counters["server.watch_rejects"] != 2 {
		t.Fatalf("watch_rejects = %d, want 2", m.Counters["server.watch_rejects"])
	}

	// Releasing the held sessions frees the trunk share again.
	for _, c := range []*transport.Conn{c1, c2, c3} {
		_ = c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := bg.Watch(title.Name); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background watch still rejected after holders released")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSessionCapTypedBusy fills the broker's session cap and checks the next
// watch fails with the typed server-busy error across the wire.
func TestSessionCapTypedBusy(t *testing.T) {
	srv, book, title := newAdmissionServer(t, admission.Config{
		CapacityMbps: 100,
		MaxSessions:  1,
	}, 0)

	hold, head := holdWatch(t, srv.Addr(), title.Name, "background")
	decodeWatchOK(t, head)

	// Background has no queue window, so the cap rejection is immediate.
	p, err := client.NewPlayer(grnet.Patra, book, client.WithClass(admission.Background))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Watch(title.Name)
	if !errors.Is(err, transport.ErrServerBusy) {
		t.Fatalf("Watch at session cap = %v, want ErrServerBusy", err)
	}
	if srv.Metrics().Snapshot().Counters["server.watch_busy"] == 0 {
		t.Fatal("server.watch_busy not counted")
	}

	// Freeing the slot lets the next session in.
	_ = hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Watch(title.Name); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch still busy after holder released: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConnFloodBoundedGoroutines floods a MaxConns-limited server with idle
// connections and checks handler goroutines stay bounded: excess connections
// wait in the accept loop / listen backlog instead of each getting a handler.
func TestConnFloodBoundedGoroutines(t *testing.T) {
	const maxConns = 4
	srv, _, _ := newAdmissionServer(t, admission.Config{}, maxConns)

	before := runtime.NumGoroutine()
	const flood = 40
	conns := make([]net.Conn, 0, flood)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for range flood {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, nc)
	}
	// Give the accept loop time to drain what it is allowed to.
	time.Sleep(200 * time.Millisecond)
	after := runtime.NumGoroutine()
	if grew := after - before; grew > maxConns+4 {
		t.Fatalf("goroutines grew by %d under a %d-conn flood (cap %d)",
			grew, flood, maxConns)
	}

	// The server still answers once floods disperse: close the idle conns
	// and ping.
	for _, c := range conns {
		_ = c.Close()
	}
	conns = conns[:0]
	if err := srv.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
