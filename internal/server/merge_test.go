package server_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"dvod/internal/cache"
	"dvod/internal/client"
	"dvod/internal/core"
	"dvod/internal/db"
	"dvod/internal/disk"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/server"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

// withMerge enables shared-prefix stream merging on every node of a test
// cluster.
func withMerge(window, queueDepth int) func(*server.Config) {
	return func(c *server.Config) {
		c.MergeWindow = window
		c.MergeQueueDepth = queueDepth
	}
}

// newMergeNodes brings up a subset of the GRNET nodes with a custom cluster
// size and merging enabled. The stall-based tests need clusters much larger
// than the harness default: a stalled reader only exerts backpressure on the
// cohort pump once the kernel's socket buffers (several MB) are full, so with
// big clusters the pump provably parks mid-title.
func newMergeNodes(t *testing.T, clusterBytes int64, window, queueDepth int,
	capacities map[topology.NodeID]int64, nodes ...topology.NodeID) *liveCluster {
	return newMergeNodesCfg(t, clusterBytes, window, queueDepth, capacities, nil, nodes...)
}

// newMergeNodesCfg is newMergeNodes with per-node config mutation (custom
// buffer pools, fault injectors).
func newMergeNodesCfg(t *testing.T, clusterBytes int64, window, queueDepth int,
	capacities map[topology.NodeID]int64, mutate func(*server.Config, *disk.Array),
	nodes ...topology.NodeID) *liveCluster {
	t.Helper()
	g, err := grnet.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	d := db.New(g)
	for _, row := range grnet.Table2() {
		id := topology.MakeLinkID(row.A, row.B)
		if err := d.UpsertLinkStats(id, row.TrafficMbps[0], t0); err != nil {
			t.Fatal(err)
		}
	}
	book := transport.NewAddrBook()
	counters := transport.NewCounters()
	lc := &liveCluster{db: d, book: book, counters: counters,
		servers: make(map[topology.NodeID]*server.Server)}
	for _, node := range nodes {
		capBytes := int64(1 << 20)
		if c, ok := capacities[node]; ok {
			capBytes = c
		}
		arr, err := disk.NewUniformArray(string(node), 3, capBytes)
		if err != nil {
			t.Fatal(err)
		}
		dma, err := cache.NewDMA(cache.Config{Array: arr, ClusterBytes: clusterBytes})
		if err != nil {
			t.Fatal(err)
		}
		planner, err := core.NewPlanner(d, core.VRA{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := server.Config{
			Node:            node,
			DB:              d,
			Planner:         planner,
			Array:           arr,
			Cache:           dma,
			ClusterBytes:    clusterBytes,
			Book:            book,
			Counters:        counters,
			MergeWindow:     window,
			MergeQueueDepth: queueDepth,
		}
		if mutate != nil {
			mutate(&cfg, arr)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		lc.servers[node] = srv
	}
	for _, srv := range lc.servers {
		if err := srv.WaitReady(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return lc
}

// rawWatcher is a protocol-level watch client the test paces by hand: it
// reads clusters only when told to, so "stalling" is simply not reading. Its
// TCP receive buffer is pinned small, making a stall visible to the server as
// backpressure instead of vanishing into kernel buffering.
type rawWatcher struct {
	t       *testing.T
	tcp     *net.TCPConn
	conn    *transport.Conn
	info    transport.WatchOKPayload
	mi      transport.MergeInfoPayload
	indices []int
	sources []topology.NodeID
	bytes   int64
	done    bool
}

func startRawWatch(t *testing.T, addr, title string) *rawWatcher {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tcp := nc.(*net.TCPConn)
	// Pin the receive buffer to one cluster: autotuning would otherwise let
	// the kernel swallow the whole title, hiding the stall from the server.
	_ = tcp.SetReadBuffer(64 << 10)
	conn := transport.NewConn(nc)
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.RequireClusterFrames(); err != nil {
		t.Fatal(err)
	}
	req, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{Title: title})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	w := &rawWatcher{t: t, tcp: tcp, conn: conn}
	head, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if rerr := transport.AsError(head); rerr != nil {
		t.Fatal(rerr)
	}
	if head.Type != transport.TypeWatchOK {
		t.Fatalf("reply %q, want %q", head.Type, transport.TypeWatchOK)
	}
	if w.info, err = transport.Decode[transport.WatchOKPayload](head); err != nil {
		t.Fatal(err)
	}
	m, _, mi, err := conn.ReadClusterOrMessage(transport.DefaultPool())
	if err != nil {
		t.Fatal(err)
	}
	if mi == nil || mi.Type != transport.FrameMergeInfo {
		t.Fatalf("first stream item %q (frame %v), want a merge-info frame", m.Type, mi != nil)
	}
	w.mi, err = transport.DecodeMergeInfoFrame(mi)
	mi.Release()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// unthrottle restores a wide receive buffer so the final drain is not paced
// by the stall-phase window.
func (w *rawWatcher) unthrottle() { _ = w.tcp.SetReadBuffer(4 << 20) }

// readClusters consumes n clusters (all remaining, through watch.done, when
// n < 0), verifying each one's content.
func (w *rawWatcher) readClusters(n int) {
	w.t.Helper()
	for i := 0; n < 0 || i < n; i++ {
		m, p, frame, err := w.conn.ReadClusterOrMessage(transport.DefaultPool())
		if err != nil {
			w.t.Fatalf("after %d clusters: %v", len(w.indices), err)
		}
		if frame == nil && m.Type == transport.TypeWatchDone {
			if n >= 0 {
				w.t.Fatalf("stream ended after %d clusters", len(w.indices))
			}
			w.done = true
			return
		}
		if frame == nil || frame.Type != transport.FrameCluster {
			w.t.Fatalf("stream item %q (frame %v), want a cluster frame", m.Type, frame != nil)
		}
		if !media.Verify(w.info.Title, p.Offset, frame.Payload) {
			w.t.Fatalf("cluster %d failed content verification", p.Index)
		}
		w.bytes += int64(len(frame.Payload))
		frame.Release()
		w.indices = append(w.indices, p.Index)
		w.sources = append(w.sources, p.Source)
	}
}

// assertComplete checks the watcher received every cluster exactly once, in
// order, with the full byte count — the "no gap" invariant for sessions the
// cohort detached mid-stream.
func (w *rawWatcher) assertComplete() {
	w.t.Helper()
	if !w.done {
		w.t.Fatal("stream not read through watch.done")
	}
	if len(w.indices) != w.info.NumClusters {
		w.t.Fatalf("received %d clusters, want %d", len(w.indices), w.info.NumClusters)
	}
	for i, idx := range w.indices {
		if idx != i {
			w.t.Fatalf("cluster %d arrived at position %d: stream has a gap or reorder", idx, i)
		}
	}
	if w.bytes != w.info.SizeBytes {
		w.t.Fatalf("received %d bytes, want %d", w.bytes, w.info.SizeBytes)
	}
}

// TestWatchMergedFanoutSharesUpstream is the tentpole's integration check:
// eight concurrent watchers of one remote title on a merge-enabled home
// server must cost the origin far fewer fetches than eight unicast streams —
// the acceptance bar is at least a 2x reduction — while every client still
// receives a complete verified stream.
func TestWatchMergedFanoutSharesUpstream(t *testing.T) {
	const numClusters = 1024
	// Patra's array holds a single cluster so the hot title can never be
	// admitted locally: every read crosses the backbone to Xanthi.
	lc := newCluster(t, map[topology.NodeID]int64{grnet.Patra: clusterBytes},
		withMerge(numClusters, 0))
	title := media.Title{Name: "hot", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Xanthi)

	const watchers = 8
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
			stats, err := p.Watch("hot")
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
	patches := 0
	for s := range statsCh {
		if !s.Verified {
			t.Fatal("delivery not verified")
		}
		if !s.Merged {
			t.Fatal("session on a merging server carried no merge announcement")
		}
		if s.MergeRole == transport.MergeRolePatch {
			patches++
		}
	}
	if patches == 0 {
		t.Fatal("no session attached to an existing cohort")
	}

	home := lc.servers[grnet.Patra].Metrics().Snapshot()
	framesOut := home.Counters["server.frames_out"]
	upstream := home.Counters["server.remote_clusters"]
	if framesOut != watchers*numClusters {
		t.Fatalf("frames_out = %d, want per-client %d", framesOut, watchers*numClusters)
	}
	if 2*upstream > framesOut {
		t.Fatalf("upstream fetches %d not halved against %d deliveries", upstream, framesOut)
	}
	if home.Counters["merge.disk_reads_saved"] == 0 || home.Counters["merge.bytes_saved"] == 0 {
		t.Fatal("merge savings counters stayed zero")
	}
	if home.Counters["merge.sessions_merged"] != int64(patches) {
		t.Fatalf("sessions_merged = %d, want %d patch sessions",
			home.Counters["merge.sessions_merged"], patches)
	}
	origin := lc.servers[grnet.Xanthi].Metrics().Snapshot()
	if reads := origin.Counters["server.disk_reads"]; 2*reads > framesOut {
		t.Fatalf("origin disk reads %d not halved against %d deliveries", reads, framesOut)
	}
}

// TestWatchMergedEvictionFallsBackToUnicast stalls the cohort's base session
// until a fast joiner starves: the stalled session must be evicted from the
// cohort (so the fast one finishes unthrottled) yet still receive the whole
// title, in order, over the buffered queue plus the private unicast tail.
func TestWatchMergedEvictionFallsBackToUnicast(t *testing.T) {
	const cb = 64 << 10
	const numClusters = 256
	lc := newMergeNodes(t, cb, numClusters, 4,
		map[topology.NodeID]int64{grnet.Patra: 6 << 20}, grnet.Patra)
	title := media.Title{Name: "stalled", SizeBytes: numClusters * cb, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Patra)

	slow := startRawWatch(t, lc.servers[grnet.Patra].Addr(), "stalled")
	if slow.mi.Role != transport.MergeRoleBase {
		t.Fatalf("first watcher role %q, want %q", slow.mi.Role, transport.MergeRoleBase)
	}
	slow.readClusters(2)
	// Stop reading; give the pump time to fill the slow session's socket
	// and bounded queue, then park.
	time.Sleep(300 * time.Millisecond)

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("stalled")
	if err != nil {
		t.Fatalf("fast watcher: %v", err)
	}
	if !stats.Verified {
		t.Fatal("fast delivery not verified")
	}
	if !stats.Merged || stats.MergeRole != transport.MergeRolePatch {
		t.Fatalf("fast watcher merged=%v role=%q, want a patch join", stats.Merged, stats.MergeRole)
	}
	if stats.PatchClusters == 0 || stats.PatchClusters >= numClusters {
		t.Fatalf("fast watcher patched %d clusters, want mid-title join", stats.PatchClusters)
	}

	// The stalled session resumes and must see no gap.
	slow.unthrottle()
	slow.readClusters(-1)
	slow.assertComplete()

	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if m.Counters["merge.evictions"] != 1 {
		t.Fatalf("evictions = %d, want exactly the stalled session", m.Counters["merge.evictions"])
	}
	if m.Counters["merge.sessions_merged"] != 1 {
		t.Fatalf("sessions_merged = %d, want 1", m.Counters["merge.sessions_merged"])
	}
}

// TestWatchMergedSurvivesDeadPeerMidCohort kills the base stream's serving
// peer while the cohort is live and parked mid-title. The shared source's
// replica retry must move the whole cohort to the survivor, and the stalled
// session — evicted to unicast in the meantime — must fail over too, with no
// gap for either client.
func TestWatchMergedSurvivesDeadPeerMidCohort(t *testing.T) {
	const cb = 64 << 10
	const numClusters = 128
	lc := newMergeNodes(t, cb, numClusters, 4, map[topology.NodeID]int64{
		grnet.Patra:        cb, // relay only: the title never fits locally
		grnet.Thessaloniki: 4 << 20,
		grnet.Xanthi:       4 << 20,
	}, grnet.Patra, grnet.Thessaloniki, grnet.Xanthi)
	title := media.Title{Name: "fragile", SizeBytes: numClusters * cb, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Thessaloniki, grnet.Xanthi)

	slow := startRawWatch(t, lc.servers[grnet.Patra].Addr(), "fragile")
	slow.readClusters(2)
	if slow.sources[0] != grnet.Thessaloniki {
		t.Fatalf("cluster 0 source = %s, want the preferred Thessaloniki", slow.sources[0])
	}
	// Park the pump mid-title, then crash the serving peer without cleaning
	// the catalog.
	time.Sleep(300 * time.Millisecond)
	if err := lc.servers[grnet.Thessaloniki].Close(); err != nil {
		t.Fatal(err)
	}

	p, err := client.NewPlayer(grnet.Patra, lc.book)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("fragile")
	if err != nil {
		t.Fatalf("watch across peer death: %v", err)
	}
	if !stats.Verified {
		t.Fatal("post-failure delivery not verified")
	}
	if !stats.Merged || stats.MergeRole != transport.MergeRolePatch {
		t.Fatalf("fast watcher merged=%v role=%q, want a patch join", stats.Merged, stats.MergeRole)
	}
	for i, src := range stats.Sources {
		if src != grnet.Xanthi {
			t.Fatalf("fast cluster %d source = %s, want survivor Xanthi", i, src)
		}
	}

	slow.unthrottle()
	slow.readClusters(-1)
	slow.assertComplete()
	switches := 0
	for i := 1; i < len(slow.sources); i++ {
		if slow.sources[i] != slow.sources[i-1] {
			switches++
		}
	}
	if switches != 1 || slow.sources[len(slow.sources)-1] != grnet.Xanthi {
		t.Fatalf("slow watcher sources switched %d times ending at %s, want one switch to Xanthi",
			switches, slow.sources[len(slow.sources)-1])
	}

	m := lc.servers[grnet.Patra].Metrics().Snapshot()
	if m.Counters["server.fetch_retries"] == 0 {
		t.Fatal("no fetch retries recorded")
	}
	if m.Counters["merge.evictions"] == 0 {
		t.Fatal("stalled session was never evicted")
	}
}

// TestWatchMergedChurn hammers a merging server with overlapping, staggered,
// and aborting sessions — cohorts form, split, complete, and lose members
// concurrently. Run under -race in CI; the assertions are that every
// surviving stream is complete and verified.
func TestWatchMergedChurn(t *testing.T) {
	const numClusters = 24
	lc := newCluster(t, nil, withMerge(8, 2))
	title := media.Title{Name: "churny", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	lc.addTitle(t, title, grnet.Patra)

	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			p, err := client.NewPlayer(grnet.Patra, lc.book)
			if err != nil {
				errCh <- err
				return
			}
			stats, err := p.WatchFrom("churny", start)
			if err != nil {
				errCh <- err
				return
			}
			if !stats.Verified {
				errCh <- err
			}
		}(i % numClusters)
	}
	// Aborters join a cohort and vanish mid-stream, exercising the Leave
	// path while the cohort is pumping.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			addr := lc.servers[grnet.Patra].Addr()
			conn, err := transport.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			if err := conn.RequireClusterFrames(); err != nil {
				_ = conn.Close()
				errCh <- err
				return
			}
			req, err := transport.Encode(transport.TypeWatch, transport.WatchPayload{
				Title: "churny", StartCluster: start,
			})
			if err == nil {
				if err := conn.WriteMessage(req); err == nil {
					_, _ = conn.ReadMessage() // watch.ok, then hang up
				}
			}
			_ = conn.Close()
		}((i * 5) % numClusters)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
