package server_test

import (
	"runtime"
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

// watchRemote pulls a 16-cluster title held only at Thessaloniki through the
// home at Patra, which never stores it, and returns the home's send counts
// once all 16 are counted.
func watchRemote(t *testing.T, opts ...func(*server.Config)) (lc *liveCluster, kernel, fallback int64) {
	t.Helper()
	pool := transport.NewBufferPool(nil)
	opts = append(opts, func(c *server.Config) {
		if c.Node == grnet.Patra {
			c.Pool = pool
		}
	})
	lc = newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes}, opts...)
	title := media.Title{Name: "spliced", SizeBytes: 16 * clusterBytes, BitrateMbps: 1.5}
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
	home := lc.servers[grnet.Patra]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		m := home.Metrics().Snapshot()
		kernel, fallback = m.Counters["server.kernel_sends"], m.Counters["server.fallback_sends"]
		if kernel+fallback >= 16 || time.Now().After(deadline) {
			break
		}
	}
	waitPoolDrained(t, pool, "home")
	return lc, kernel, fallback
}

// TestRemoteWatchSplicesEveryHomeSend: on Linux every cluster the home pulls
// goes peer socket → pipe → client socket, so all 16 home sends are kernel
// sends, no pipe is discarded, and the client verifies every byte. Off Linux
// every home send is a copy.
func TestRemoteWatchSplicesEveryHomeSend(t *testing.T) {
	lc, kernel, fallback := watchRemote(t)
	if runtime.GOOS != "linux" {
		if fallback != 16 {
			t.Fatalf("home sent %d by copy off linux, want 16", fallback)
		}
		return
	}
	if kernel != 16 || fallback != 0 {
		t.Fatalf("home sent %d by kernel, %d by copy; want 16 and 0", kernel, fallback)
	}
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if n := m.Counters["transport.pipe_discards"] + m.Counters["transport.pipe_overflows"]; n != 0 {
		t.Fatalf("%d pipes discarded or overflowed on a clean watch", n)
	}
}

// TestRemoteWatchUnderFaultPlanSplices: with a fault plan armed at the home,
// its peer connections are raw sockets behind the injector's gate, so the
// home splices every pulled cluster as it does unarmed: 16 kernel sends, no
// copy, and the watch verifies. Off Linux every home send is a copy.
func TestRemoteWatchUnderFaultPlanSplices(t *testing.T) {
	var plan faults.Plan
	// An event on a node and at a time the watch never touches: the plan is
	// armed, nothing fires.
	plan.SlowDisk(time.Hour, time.Minute, grnet.Heraklio, time.Millisecond)
	inj, err := faults.NewInjector(plan, 7, clock.Wall{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	_, kernel, fallback := watchRemote(t, func(c *server.Config) {
		if c.Node == grnet.Patra {
			c.Faults = inj
		}
	})
	want := int64(16)
	if runtime.GOOS != "linux" {
		want = 0
	}
	if kernel != want || fallback != 16-want {
		t.Fatalf("home sent %d by kernel, %d by copy under a fault plan; want %d and %d", kernel, fallback, want, 16-want)
	}
}

// hedgedCluster drags every disk read at Thessaloniki past the hedge
// deadline, so a home's fetches of the returned title race Xanthi and the
// losers straggle in after their hedge won. The home at Patra never stores
// the title.
func hedgedCluster(t *testing.T) (*liveCluster, media.Title) {
	t.Helper()
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config) {
			if c.Node == grnet.Thessaloniki {
				c.Array.SetReadInterceptor(func(disk.BlockID) disk.ReadFault {
					time.Sleep(25 * time.Millisecond)
					return disk.ReadFault{}
				})
			}
		})
	title := media.Title{Name: "raced", SizeBytes: 16 * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)
	return lc, title
}

// watchHedged runs one remote watch of title through the home at Patra and
// checks that a hedge won at least once.
func watchHedged(t *testing.T, lc *liveCluster, title media.Title) {
	t.Helper()
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
	if lc.servers[grnet.Patra].Metrics().Snapshot().Counters["client.hedges_won"] == 0 {
		t.Fatal("no hedge beat the dragged replica")
	}
}

// TestHedgeLoserPipeClosed: a hedge loser's body arrives in a pipe after
// the winner was sent; releasing it closes the pipe, bytes and all, instead
// of handing a dirty pipe to the next fetch. Once the home closes, no pipe
// is left open.
func TestHedgeLoserPipeClosed(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("pipes are Linux-only")
	}
	lc, title := hedgedCluster(t)
	watchHedged(t, lc, title)
	home := lc.servers[grnet.Patra]
	for deadline := time.Now().Add(5 * time.Second); home.Metrics().Snapshot().Counters["transport.pipe_discards"] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no hedge loser's pipe was closed")
		}
	}
	for _, srv := range lc.servers {
		srv.ClosePeerConns()
	}
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); home.Pipes().Open() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pipes open after Close", home.Pipes().Open())
		}
	}
}

// TestRelayWatchReturnsEveryLease: a relay cohort hands each upstream
// cluster to its pump as the frame it was read into, body only, with no
// second copy. The watch still verifies and every lease at the relay comes
// back.
func TestRelayWatchReturnsEveryLease(t *testing.T) {
	const numClusters = 8
	pool := transport.NewBufferPool(nil)
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withMerge(numClusters, 0),
		func(c *server.Config) {
			c.RelayCohorts = true
			if c.Node == grnet.Patra {
				c.Pool = pool
			}
		})
	title := media.Title{Name: "relayed", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
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
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if got := m.Counters["server.relay_clusters"]; got != numClusters {
		t.Fatalf("relay_clusters = %d, want %d", got, numClusters)
	}
	waitPoolDrained(t, pool, "relay")
}
