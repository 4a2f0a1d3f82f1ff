package server_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/prefix"
	"dvod/internal/server"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// captureDMA returns a newMergeNodesCfg mutation that records each node's
// DMA in dmas, so a test can read popularity points and request counts or
// drive the DMA directly, behind the server's back.
func captureDMA(dmas map[topology.NodeID]*cache.DMA, extra func(*server.Config)) func(*server.Config, *disk.Array) {
	return func(c *server.Config, _ *disk.Array) {
		dmas[c.Node] = c.Cache.(*cache.DMA)
		if extra != nil {
			extra(c)
		}
	}
}

// dialRelay opens a binary connection to addr and sends one relay.join, as
// a downstream relay server does.
func dialRelay(t *testing.T, addr, title string, start int) *transport.Conn {
	t.Helper()
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.RequireClusterFrames(); err != nil {
		t.Fatal(err)
	}
	req, err := transport.Encode(transport.TypeRelayJoin, transport.RelayJoinPayload{Title: title, StartCluster: start})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestRelayJoinWireOrder pins what a relay.join gets on the wire, with
// merging off and on: watch.ok, then every cluster strictly in order (merge
// announcements may ride along), then watch.done — and never a prefix.info,
// even though the origin runs a prefix tier. The origin's DMA counts the
// join as exactly one request.
func TestRelayJoinWireOrder(t *testing.T) {
	const numClusters = 12
	for _, window := range []int{0, 8} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			dmas := make(map[topology.NodeID]*cache.DMA)
			managers := make(map[topology.NodeID]*prefix.Manager)
			lc := newMergeNodesCfg(t, clusterBytes, window, 0, nil,
				captureDMA(dmas, withPrefix(t, managers, 4*clusterBytes, map[string]int64{"relayed": 100})),
				grnet.Xanthi)
			title := media.Title{Name: "relayed", SizeBytes: numClusters*clusterBytes - 100, BitrateMbps: 1.5}
			lc.addTitle(t, title, grnet.Xanthi)
			resolvePrefixes(t, managers)
			dma := dmas[grnet.Xanthi]
			before := dma.Stats().Requests

			conn := dialRelay(t, lc.servers[grnet.Xanthi].Addr(), title.Name, 0)
			pool := transport.NewBufferPool(nil)
			var (
				sawOK   bool
				indices []int
				bytes   int64
			)
			for {
				m, p, f, err := conn.ReadClusterOrMessage(pool)
				if err != nil {
					t.Fatalf("after %d clusters: %v", len(indices), err)
				}
				if f == nil {
					if rerr := transport.AsError(m); rerr != nil {
						t.Fatal(rerr)
					}
					if m.Type == transport.TypeWatchOK {
						if sawOK || len(indices) > 0 {
							t.Fatal("watch.ok is not the first message")
						}
						sawOK = true
						continue
					}
					if m.Type != transport.TypeWatchDone {
						t.Fatalf("message %q on a relay stream", m.Type)
					}
					break
				}
				typ := f.Type
				if typ == transport.FrameCluster {
					body := f.Payload
					if !media.Verify(title.Name, p.Offset, body) {
						t.Fatalf("cluster %d failed content verification", p.Index)
					}
					indices = append(indices, p.Index)
					bytes += int64(len(body))
				}
				f.Release()
				switch {
				case typ == transport.FramePrefixAnnounce:
					t.Fatal("relay stream carries a prefix.info")
				case !sawOK:
					t.Fatalf("frame 0x%02x before watch.ok", typ)
				case typ != transport.FrameCluster && typ != transport.FrameMergeInfo:
					t.Fatalf("unexpected frame 0x%02x on a relay stream", typ)
				}
			}
			want := make([]int, numClusters)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(indices, want) {
				t.Fatalf("clusters arrived as %v, want %v", indices, want)
			}
			if bytes != title.SizeBytes {
				t.Fatalf("relayed %d bytes, want %d", bytes, title.SizeBytes)
			}
			if got := dma.Stats().Requests - before; got != 1 {
				t.Fatalf("origin DMA counted %d requests, want 1", got)
			}
		})
	}
}

// TestSessionStartOutOfRangeLeavesNoTrace sends a watch and a relay.join
// whose start cluster lies outside the title. Each gets an error reply, and
// the DMA never hears of the session: no popularity point, no request.
func TestSessionStartOutOfRangeLeavesNoTrace(t *testing.T) {
	const numClusters = 4
	dmas := make(map[topology.NodeID]*cache.DMA)
	lc := newMergeNodesCfg(t, clusterBytes, 0, 0, nil, captureDMA(dmas, nil), grnet.Xanthi)
	title := media.Title{Name: "short", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	addr := lc.servers[grnet.Xanthi].Addr()
	dma := dmas[grnet.Xanthi]

	for _, start := range []int{-1, numClusters} {
		for _, entry := range []string{transport.TypeWatch, transport.TypeRelayJoin} {
			points, requests := dma.Points(title.Name), dma.Stats().Requests
			var conn *transport.Conn
			if entry == transport.TypeRelayJoin {
				conn = dialRelay(t, addr, title.Name, start)
			} else {
				var err error
				if conn, err = transport.Dial(addr); err != nil {
					t.Fatal(err)
				}
				if err := conn.RequireClusterFrames(); err != nil {
					t.Fatal(err)
				}
				req, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{Title: title.Name, StartCluster: start})
				if err != nil {
					t.Fatal(err)
				}
				if err := conn.WriteMessage(req); err != nil {
					t.Fatal(err)
				}
			}
			m, err := conn.ReadMessage()
			_ = conn.Close()
			if err != nil {
				t.Fatalf("%s from %d: %v", entry, start, err)
			}
			if m.Type != transport.TypeError {
				t.Fatalf("%s from %d: reply %q, want error", entry, start, m.Type)
			}
			if got := dma.Points(title.Name); got != points {
				t.Fatalf("%s from %d: DMA points %d → %d", entry, start, points, got)
			}
			if got := dma.Stats().Requests; got != requests {
				t.Fatalf("%s from %d: DMA requests %d → %d", entry, start, requests, got)
			}
		}
	}
}

// TestWatchAfterUnmirroredEvictionServesFromOrigin reproduces the home's
// race with its own catalog mirror deterministically: the home's DMA evicts
// a title directly, bypassing the server, so the catalog still lists the home
// as a holder. A watch there must not plan the home for itself, neither per
// cluster nor for a relay cohort's upstream; it completes byte-identical
// from the origin, with no fetch charged as a peer failure.
func TestWatchAfterUnmirroredEvictionServesFromOrigin(t *testing.T) {
	const numClusters = 6
	for _, tc := range []struct {
		name   string
		window int
		relay  bool
	}{
		{"unicast", 0, false},
		{"merged", 8, false},
		{"relay", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dmas := make(map[topology.NodeID]*cache.DMA)
			// Three disks of two clusters each: the home holds one title.
			lc := newMergeNodesCfg(t, clusterBytes, tc.window, 0,
				map[topology.NodeID]int64{grnet.Patra: 2 * clusterBytes},
				captureDMA(dmas, func(c *server.Config) { c.RelayCohorts = tc.relay }),
				grnet.Patra, grnet.Xanthi)
			title := media.Title{Name: "lagging", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
			lc.addTitle(t, title, grnet.Patra, grnet.Xanthi)

			// One request for another title outranks the preloaded one,
			// which has no points: the DMA evicts it and the server, which
			// never saw the request, mirrors nothing.
			rival := media.Title{Name: "rival", SizeBytes: title.SizeBytes, BitrateMbps: 1.5}
			out, err := dmas[grnet.Patra].OnRequest(rival)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Admitted || !slices.Equal(out.Evicted, []string{title.Name}) {
				t.Fatalf("DMA outcome %+v, want %q evicted for %q", out, title.Name, rival.Name)
			}
			holders, err := lc.db.Catalog().HoldersView(title.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(holders, grnet.Patra) {
				t.Fatalf("catalog holders %v no longer list the home", holders)
			}

			p, err := client.NewPlayer(grnet.Patra, lc.book)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := p.Watch(title.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Verified || stats.BytesReceived != title.SizeBytes {
				t.Fatalf("verified=%v bytes=%d, want a verified %d-byte title", stats.Verified, stats.BytesReceived, title.SizeBytes)
			}
			for i, src := range stats.Sources {
				if src != grnet.Xanthi {
					t.Fatalf("cluster %d served by %s, want the origin %s", i, src, grnet.Xanthi)
				}
			}
			home := lc.servers[grnet.Patra].Metrics().Snapshot().Counters
			if got := home["server.fetch_retries"] + home["server.relay_fallbacks"]; got != 0 {
				t.Fatalf("fetch_retries + relay_fallbacks = %d: a self-plan was charged as a peer failure", got)
			}
			if tc.relay && (home["server.relay_upstreams"] != 1 || home["server.relay_clusters"] != numClusters) {
				t.Fatalf("relay upstreams/clusters = %d/%d, want all %d clusters over one subscription to the origin",
					home["server.relay_upstreams"], home["server.relay_clusters"], numClusters)
			}
		})
	}
}

// flickerCache is a DMA whose residency check races an eviction: for one
// title it answers resident on every other call, while the blocks are gone.
// deliverCluster's check then passes and the read that follows misses.
type flickerCache struct {
	cache.Policy
	title string
	calls atomic.Int64
}

func (f *flickerCache) Resident(name string) bool {
	if name == f.title && f.calls.Add(1)%2 == 1 {
		return true
	}
	return f.Policy.Resident(name)
}

// TestWatchLocalReadMissFallsThrough: a local read that fails because the
// title is no longer resident is a miss, served from the origin like any
// other; only a failed read of a title still resident surfaces (that half
// is TestMergedEvictionUnderDiskFault's).
func TestWatchLocalReadMissFallsThrough(t *testing.T) {
	const numClusters = 4
	// The home's disks hold a cluster each: the DMA never admits the title.
	lc := newMergeNodesCfg(t, clusterBytes, 0, 0, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		func(c *server.Config, _ *disk.Array) {
			if c.Node == grnet.Patra {
				c.Cache = &flickerCache{Policy: c.Cache, title: "evicted"}
			}
		}, grnet.Patra, grnet.Xanthi)
	title := media.Title{Name: "evicted", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)
	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch(title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified || len(stats.Sources) != numClusters {
		t.Fatalf("verified=%v clusters=%d, want %d verified clusters", stats.Verified, len(stats.Sources), numClusters)
	}
	for i, src := range stats.Sources {
		if src != grnet.Xanthi {
			t.Fatalf("cluster %d served by %s, want the origin %s", i, src, grnet.Xanthi)
		}
	}
}
