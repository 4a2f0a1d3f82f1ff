package server_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dvod/internal/client"
	"dvod/internal/clock"
	"dvod/internal/disk"
	"dvod/internal/faults"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/server"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// peerConnCounters returns the node's fresh-dial and reuse counts on the
// peer-fetch path.
func peerConnCounters(lc *liveCluster, node topology.NodeID) (dials, reuses int64) {
	m := lc.servers[node].Metrics().Snapshot()
	return m.Counters["server.peer_dials"], m.Counters["server.peer_reuses"]
}

// TestPeerConnReusedAcrossClusters: a 16-cluster pull over one route dials the
// peer once and rides that connection for the other fifteen clusters.
func TestPeerConnReusedAcrossClusters(t *testing.T) {
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes})
	title := media.Title{Name: "pooled", SizeBytes: 16 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("pooled")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
	if dials, reuses := peerConnCounters(lc, grnet.Patra); dials != 1 || reuses != 15 {
		t.Fatalf("16 remote clusters took %d dials and %d reuses, want 1 and 15", dials, reuses)
	}
}

// TestPeerConnStaleReuseIsNotAPeerFailure: the peer hangs up on the idle
// pooled connection (its idle timeout is far shorter than the fetcher's pool
// age). The next fetch finds the corpse, redials, and succeeds — and nothing
// that judges the peer hears of it: no retry, breaker closed.
func TestPeerConnStaleReuseIsNotAPeerFailure(t *testing.T) {
	const peerIdle = 20 * time.Millisecond
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config) {
			if c.Node == grnet.Thessaloniki {
				c.IdleTimeout = peerIdle
			}
		})
	title := media.Title{Name: "stale", SizeBytes: 8 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Watch("stale"); err != nil {
		t.Fatal(err)
	}
	if dials, reuses := peerConnCounters(lc, grnet.Patra); dials != 1 || reuses != 7 {
		t.Fatalf("first watch: %d dials, %d reuses, want 1 and 7", dials, reuses)
	}
	// One-cluster watches, each after giving the peer time to hang up, until
	// one of them had to redial. Every one of them must succeed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(2 * peerIdle)
		stats, err := p.WatchFrom("stale", 7)
		if err != nil {
			t.Fatalf("watch over a stale pooled connection: %v", err)
		}
		if !stats.Verified {
			t.Fatal("delivery not verified")
		}
		if dials, _ := peerConnCounters(lc, grnet.Patra); dials == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the peer never hung up on the idle pooled connection")
		}
	}
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if n := m.Counters["server.fetch_retries"]; n != 0 {
		t.Fatalf("stale reuse was counted as %d retries", n)
	}
	if st := m.Gauges["client.breaker_state."+string(grnet.Thessaloniki)]; st != 0 {
		t.Fatalf("breaker state for the peer = %v, want closed", st)
	}
}

// TestPeerConnFaultPlanSeesEveryFetch arms a link.down window on both links
// out of the home node (virtual injector clock, so the window opens and
// closes when the test says), with a connection already pooled for the route.
// Inside the window the fetch is refused before the pool is touched, and the
// injector cuts the idle connection; after the window the cut connection is
// discarded, not handed out, and the fetch redials.
func TestPeerConnFaultPlanSeesEveryFetch(t *testing.T) {
	var plan faults.Plan
	plan.FlapLink(time.Second, time.Second, topology.MakeLinkID(grnet.Patra, grnet.Athens))
	plan.FlapLink(time.Second, time.Second, topology.MakeLinkID(grnet.Patra, grnet.Ioannina))
	vclk := clock.NewVirtual(t0)
	inj, err := faults.NewInjector(plan, 7, vclk, nil)
	if err != nil {
		t.Fatal(err)
	}
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config) { c.Faults = inj })
	title := media.Title{Name: "partitioned", SizeBytes: 8 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Watch("partitioned"); err != nil {
		t.Fatal(err)
	}
	if dials, reuses := peerConnCounters(lc, grnet.Patra); dials != 1 || reuses != 7 {
		t.Fatalf("before the window: %d dials, %d reuses, want 1 and 7", dials, reuses)
	}

	// Open the window and wait for the injector's cut of the idle stream.
	vclk.Advance(1500 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); inj.InjectedTotal() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the injector never cut the pooled connection")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Watch("partitioned"); err == nil {
		t.Fatal("watch crossed a partitioned route on a pooled connection")
	}
	if dials, reuses := peerConnCounters(lc, grnet.Patra); dials != 1 || reuses != 7 {
		t.Fatalf("inside the window: %d dials, %d reuses, want the refusal to come before both (1 and 7)", dials, reuses)
	}

	// Close the window: the first fetch takes the cut connection, finds it
	// dead, and redials; the rest of the title reuses the new one.
	vclk.Advance(time.Second)
	retries := lc.servers[grnet.Patra].Metrics().Snapshot().Counters["server.fetch_retries"]
	stats, err := p.Watch("partitioned")
	if err != nil {
		t.Fatalf("watch after the window: %v", err)
	}
	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
	if dials, reuses := peerConnCounters(lc, grnet.Patra); dials != 2 || reuses != 15 {
		t.Fatalf("after the window: %d dials, %d reuses, want 2 and 15", dials, reuses)
	}
	if got := lc.servers[grnet.Patra].Metrics().Snapshot().Counters["server.fetch_retries"]; got != retries {
		t.Fatalf("discarding the cut connection cost %d retries", got-retries)
	}
}

// TestPeerConnHedgedFetchesOwnTheirConnections drags the preferred replica
// past the hedge deadline while four sessions pull at once, so primaries,
// hedges and straggling losers all take and return connections concurrently.
// Two fetches sharing one connection would read each other's replies; every
// session must still verify byte for byte, and no buffer lease may leak.
func TestPeerConnHedgedFetchesOwnTheirConnections(t *testing.T) {
	pool := transport.NewBufferPool(nil)
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config) {
			c.Pool = pool
			if c.Node == grnet.Thessaloniki {
				c.Array.SetReadInterceptor(func(disk.BlockID) disk.ReadFault {
					time.Sleep(25 * time.Millisecond)
					return disk.ReadFault{}
				})
			}
		})
	title := media.Title{Name: "raced", SizeBytes: 16 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := client.NewPlayer(grnet.Patra, lc.book)
			if err != nil {
				t.Error(err)
				return
			}
			stats, err := p.Watch("raced")
			if err != nil {
				t.Errorf("hedged watch: %v", err)
				return
			}
			if !stats.Verified {
				t.Error("hedged delivery not verified")
			}
		}()
	}
	wg.Wait()
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if m.Counters["client.hedges_launched"] == 0 {
		t.Fatal("dragged replica never triggered a hedge")
	}
	if m.Counters["server.peer_reuses"] == 0 {
		t.Fatal("no fetch reused a pooled connection")
	}
	waitPoolDrained(t, pool, "server")
}

// TestCloseInterruptsParkedConnections: a connection parked between requests
// (what every peer's pool holds open against this server) does not make Close
// sit out the two-minute idle timeout; the far end sees the hang-up.
func TestCloseInterruptsParkedConnections(t *testing.T) {
	lc := newCluster(t, nil)
	srv := lc.servers[grnet.Patra]
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ping, err := transport.Encode(transport.TypePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(ping); err != nil {
		t.Fatal(err)
	}
	if m, err := conn.ReadMessage(); err != nil || m.Type != transport.TypePong {
		t.Fatalf("ping answered (%q, %v)", m.Type, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second): // a hang guard, not a speed claim
		t.Fatal("Close is waiting on a connection parked between requests")
	}
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("parked connection still answered after Close")
	}
}

// TestIdleConnectionsNeverLockOutANewOne: with two handler slots, three
// players each leave a keep-alive connection parked at the home. Every new
// connection evicts the longest-parked one instead of waiting out the
// two-minute idle timeout, so a fourth player's watch is served at once, and
// the evicted players redial on their next watch.
func TestIdleConnectionsNeverLockOutANewOne(t *testing.T) {
	lc := newCluster(t, nil, func(c *server.Config) { c.MaxConns = 2 })
	title := media.Title{Name: "crowded", SizeBytes: 3 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Patra)
	watch := func(p *client.Player) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			stats, err := p.Watch(title.Name)
			if err == nil && !stats.Verified {
				err = errors.New("delivery not verified")
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second): // a hang guard, not a speed claim
			t.Fatal("watch is waiting for a handler slot held by an idle connection")
		}
	}
	players := make([]*client.Player, 4)
	for i := range players {
		p, err := client.NewPlayer(grnet.Patra, lc.book)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		players[i] = p
		watch(p)
	}
	if n := lc.servers[grnet.Patra].Metrics().Snapshot().Counters["server.idle_evictions"]; n < 2 {
		t.Fatalf("idle evictions = %d, want at least 2", n)
	}
	// The evicted players find their pooled connection dead and redial.
	for _, p := range players {
		watch(p)
	}
}
