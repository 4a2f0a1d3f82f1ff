package server_test

import (
	"sync"
	"testing"
	"time"

	"dvod/internal/client"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/prefix"
	"dvod/internal/server"
	"dvod/internal/topology"
)

// withPrefix attaches a prefix manager with the given byte budget to the
// selected nodes (all nodes when none are named). The managers are collected
// by node so tests can drive Resolve epochs after the catalog is populated;
// popularity comes from a fixed points table.
func withPrefix(t *testing.T, managers map[topology.NodeID]*prefix.Manager,
	budget int64, points map[string]int64, nodes ...topology.NodeID) func(*server.Config) {
	return func(c *server.Config) {
		if len(nodes) > 0 {
			found := false
			for _, n := range nodes {
				if n == c.Node {
					found = true
					break
				}
			}
			if !found {
				return
			}
		}
		parr, err := disk.NewUniformArray(string(c.Node)+"-prefix", 1, budget)
		if err != nil {
			t.Fatal(err)
		}
		catalog := c.DB.Catalog()
		pm, err := prefix.New(prefix.Config{
			Array:        parr,
			ClusterBytes: c.ClusterBytes,
			Points:       func(name string) int64 { return points[name] },
			Catalog:      catalog.Titles,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Prefix = pm
		managers[c.Node] = pm
	}
}

func resolvePrefixes(t *testing.T, managers map[topology.NodeID]*prefix.Manager) {
	t.Helper()
	for node, pm := range managers {
		if _, _, err := pm.Resolve(); err != nil {
			t.Fatalf("prefix resolve %s: %v", node, err)
		}
	}
}

// TestWatchPrefixInstantStartNoOrigin is the tier's core promise: a title
// that is neither DMA-resident nor held by ANY peer still streams completely,
// because the full prefix is pinned on the home's local store. Every cluster
// is a local prefix read — if deliverCluster ever consulted the remote plan
// first, this watch would fail outright (the catalog has no holders).
func TestWatchPrefixInstantStartNoOrigin(t *testing.T) {
	const numClusters = 16
	managers := make(map[topology.NodeID]*prefix.Manager)
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withPrefix(t, managers, numClusters*clusterBytes,
			map[string]int64{"orphan": 100}, grnet.Patra))
	title := media.Title{Name: "orphan", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title) // no holders anywhere
	resolvePrefixes(t, managers)

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("orphan")
	if err != nil {
		t.Fatalf("watch with no holders: %v", err)
	}
	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
	if stats.PrefixClusters != numClusters {
		t.Fatalf("announced PrefixClusters = %d, want %d", stats.PrefixClusters, numClusters)
	}
	if stats.StartupRTTs != 0 {
		t.Fatalf("announced StartupRTTs = %d, want 0", stats.StartupRTTs)
	}
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if got := m.Counters["server.prefix_reads"]; got != numClusters {
		t.Fatalf("prefix_reads = %d, want %d", got, numClusters)
	}
	if got := m.Counters["server.remote_clusters"]; got != 0 {
		t.Fatalf("remote_clusters = %d, want 0", got)
	}
}

// TestWatchPrefixHeadLocalTailRemote pins only the head: the watch must serve
// clusters [0, K) from the local prefix and fetch exactly the tail across the
// network — the offset tail planning the admission layer relies on.
func TestWatchPrefixHeadLocalTailRemote(t *testing.T) {
	const numClusters = 16
	const pinned = 10
	managers := make(map[topology.NodeID]*prefix.Manager)
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withPrefix(t, managers, pinned*clusterBytes,
			map[string]int64{"headpin": 100}, grnet.Patra))
	title := media.Title{Name: "headpin", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	resolvePrefixes(t, managers)

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("headpin")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
	if stats.PrefixClusters != pinned {
		t.Fatalf("announced PrefixClusters = %d, want %d", stats.PrefixClusters, pinned)
	}
	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if got := m.Counters["server.prefix_reads"]; got != pinned {
		t.Fatalf("prefix_reads = %d, want %d", got, pinned)
	}
	if got := m.Counters["server.remote_clusters"]; got != numClusters-pinned {
		t.Fatalf("remote_clusters = %d, want the %d-cluster tail", got, numClusters-pinned)
	}
}

// TestWatchRelayCohortSharesUpstream is the cross-server extension's
// integration check: many watchers on a relay server whose merge cohort
// streams a non-resident title must cost the origin ONE upstream stream (the
// cohort's relay.join subscription), not one fetch per cluster per watcher —
// while the pinned prefix serves every session's head off local disk.
func TestWatchRelayCohortSharesUpstream(t *testing.T) {
	const numClusters = 256
	const pinned = 64
	managers := make(map[topology.NodeID]*prefix.Manager)
	// Patra's array holds one cluster, so the hot title is never admitted
	// locally; Xanthi is the origin.
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withMerge(numClusters, 0),
		func(c *server.Config) { c.RelayCohorts = true },
		withPrefix(t, managers, pinned*clusterBytes,
			map[string]int64{"relayed": 100}, grnet.Patra))
	title := media.Title{Name: "relayed", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	resolvePrefixes(t, managers)

	const watchers = 6
	var wg sync.WaitGroup
	statsCh := make(chan client.PlaybackStats, watchers)
	errCh := make(chan error, watchers)
	gate := make(chan struct{})
	for i := 0; i < watchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := client.NewPlayer(grnet.Patra, lc.book)
			if err != nil {
				errCh <- err
				return
			}
			<-gate
			stats, err := p.Watch("relayed")
			if err != nil {
				errCh <- err
				return
			}
			statsCh <- stats
		}()
	}
	close(gate)
	wg.Wait()
	close(errCh)
	close(statsCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for s := range statsCh {
		if !s.Verified {
			t.Fatal("delivery not verified")
		}
		if s.PrefixClusters != pinned {
			t.Fatalf("announced PrefixClusters = %d, want %d", s.PrefixClusters, pinned)
		}
		if !s.RelayTail {
			t.Fatal("session tail not announced as relay-fed")
		}
	}

	relay := lc.servers[grnet.Patra].Metrics().Snapshot()
	if relay.Counters["server.relay_upstreams"] == 0 {
		t.Fatal("no upstream relay subscription opened")
	}
	if relay.Counters["server.relay_clusters"] == 0 {
		t.Fatal("no clusters arrived over the relay subscription")
	}
	if got := relay.Counters["server.relay_fallbacks"]; got != 0 {
		t.Fatalf("relay_fallbacks = %d, want 0 on a healthy origin", got)
	}
	if got := relay.Counters["server.prefix_reads"]; got != watchers*pinned {
		t.Fatalf("prefix_reads = %d, want %d (every session's head local)",
			got, watchers*pinned)
	}

	origin := lc.servers[grnet.Xanthi].Metrics().Snapshot()
	if origin.Counters["server.relay_watchers"] == 0 {
		t.Fatal("origin saw no relay.join session")
	}
	// The whole point: N watchers' tails cost the origin roughly one stream
	// of the tail, not N. Allow 2x slack for cohort churn across goroutine
	// scheduling, still far under the unshared cost.
	tail := int64(numClusters - pinned)
	if reads := origin.Counters["server.disk_reads"]; reads > 2*tail {
		t.Fatalf("origin disk reads %d, want ≈ one shared tail of %d (unshared would be %d)",
			reads, tail, int64(watchers)*tail)
	}
}

// TestRelaySoloJoinSkipsNextHold sends two sequential relay.joins of one
// title from one downstream server. The origin holds the first (a title with
// no history), which ends with that one relay as its only subscriber, so it
// starts the second at once. Counters, not elapsed time, tell the paths apart.
func TestRelaySoloJoinSkipsNextHold(t *testing.T) {
	const numClusters = 16
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withMerge(numClusters, 0),
		func(c *server.Config) { c.RelayCohorts = true })
	title := media.Title{Name: "lone", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	origin := lc.servers[grnet.Xanthi].Metrics()
	for i, want := range []struct{ holds, skipped int64 }{{1, 0}, {1, 1}} {
		stats, err := p.Watch(title.Name)
		if err != nil {
			t.Fatalf("watch %d: %v", i, err)
		}
		if !stats.Verified {
			t.Fatalf("watch %d: delivery not verified", i)
		}
		// The origin's cohort records its verdict as it unregisters.
		deadline := time.Now().Add(5 * time.Second)
		for origin.Snapshot().Gauges["merge.cohorts"] != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("watch %d: origin cohort never unregistered", i)
			}
			time.Sleep(time.Millisecond)
		}
		m := origin.Snapshot()
		if got := m.Counters["server.relay_watchers"]; got != int64(i+1) {
			t.Fatalf("watch %d: origin relay_watchers = %d, want %d", i, got, i+1)
		}
		if h, s := m.Counters["merge.holds"], m.Counters["merge.holds_skipped"]; h != want.holds || s != want.skipped {
			t.Fatalf("watch %d: origin holds/skipped = %d/%d, want %d/%d", i, h, s, want.holds, want.skipped)
		}
	}
	if got := lc.servers[grnet.Patra].Metrics().Snapshot().Counters["server.relay_fallbacks"]; got != 0 {
		t.Fatalf("relay_fallbacks = %d, want 0", got)
	}
}

// TestRelayBrokenUpstreamFallsBack kills the origin mid-stream: the relay
// cohort's source must fall back to the private per-cluster path and the
// watch must fail only if no replica remains — here a second holder keeps the
// stream alive, so every client still completes.
func TestRelayBrokenUpstreamFallsBack(t *testing.T) {
	const numClusters = 64
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withMerge(numClusters, 0),
		func(c *server.Config) { c.RelayCohorts = true })
	title := media.Title{Name: "cutover", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)

	// Crash the preferred holder before the watch: the relay's first
	// subscription attempt fails over to the survivor (or falls back to
	// per-cluster fetches), and the client must not notice either way.
	if err := lc.servers[grnet.Thessaloniki].Close(); err != nil {
		t.Fatal(err)
	}
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("cutover")
	if err != nil {
		t.Fatalf("watch across origin death: %v", err)
	}
	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
}
