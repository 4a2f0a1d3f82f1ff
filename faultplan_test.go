package dvod

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dvod/internal/client"
)

// flapCell runs one edge→origin deployment whose only route's link flaps
// mid-stream, and returns the watch outcome plus the injector's event log.
// The geometry gives playout a large lead: 4 KiB clusters at 1.5 Mbps play
// for ~22 ms each while a dragged fetch takes ~2 ms, so by the time the link
// drops at 60 ms the client holds far more buffer than the 100 ms outage.
func flapCell(t *testing.T, seed int64) (PlaybackStats, []FaultLogEntry, int64, map[NodeID]MetricsSnapshot) {
	t.Helper()
	const (
		edge   = NodeID("edge")
		origin = NodeID("origin")
	)
	const numClusters = 48
	const clusterBytes = 4 << 10
	var plan FaultPlan
	plan.SlowDisk(0, 5*time.Second, origin, 2*time.Millisecond).
		FlapLink(60*time.Millisecond, 100*time.Millisecond, MakeLinkID(edge, origin))

	spec := TopologySpec{
		Nodes: []NodeID{edge, origin},
		Links: []LinkSpec{{A: edge, B: origin, CapacityMbps: 34}},
	}
	svc, err := New(spec,
		WithClusterBytes(clusterBytes),
		WithDisks(2, numClusters*clusterBytes),
		// The edge holds one cluster: every cluster crosses the flapped link.
		WithNodeDisks(edge, 1, clusterBytes),
		WithFaultPlan(plan, seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	title := Title{Name: "flapped", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload(origin, title.Name); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	// The acceptance premise: the active route crosses the link the plan flaps.
	dec, err := svc.Plan(edge, title.Name)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Local || dec.Server != origin {
		t.Fatalf("route = %+v, want remote service from %s over the flapped link", dec, origin)
	}
	p, err := svc.Player(edge, client.WithResume(), client.WithDialer(svc.WatchDialer(edge)))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch(title.Name)
	if err != nil {
		t.Fatalf("watch across the flap: %v", err)
	}
	return stats, svc.FaultEvents(), svc.InjectedFaults(), svc.Metrics()
}

// TestFaultPlanFlapMidStreamCompletes is the tentpole's acceptance test: with
// a fault plan flapping the active route's bottleneck link mid-stream, the
// watch completes byte-identically (verified content, every cluster exactly
// once, in order) with at most one rebuffer, and the same (plan, seed) pair
// reproduces the identical fault event sequence on a second run.
func TestFaultPlanFlapMidStreamCompletes(t *testing.T) {
	const seed = 7
	stats, events, injected, ms := flapCell(t, seed)

	if !stats.Verified {
		t.Fatal("delivery not verified")
	}
	if stats.BytesReceived != 48*(4<<10) {
		t.Fatalf("received %d bytes, want the full title", stats.BytesReceived)
	}
	if len(stats.Records) != 48 {
		t.Fatalf("received %d clusters, want 48", len(stats.Records))
	}
	for i, rec := range stats.Records {
		if rec.Index != i {
			t.Fatalf("cluster %d arrived at position %d: gap or reorder across the resume", rec.Index, i)
		}
	}
	if stats.Stalls > 1 {
		t.Fatalf("playout stalled %d times, want at most 1", stats.Stalls)
	}
	if stats.Retries == 0 {
		t.Fatal("the flap was never felt: no client resume recorded")
	}
	if injected == 0 {
		t.Fatal("injector reports no injected faults")
	}

	// Satellite: resilience counters are exposed on the metrics surface —
	// the home server counts the recovery and the injector its injections.
	if got := ms["edge"].Counters["server.fetch_retries"]; got == 0 {
		t.Fatal("server.fetch_retries not exported on the home server")
	}
	if got := ms["_faults"].Counters["faults.injected_total"]; got != injected {
		t.Fatalf("faults.injected_total = %d, want %d", got, injected)
	}

	// Reproducibility: an identical run yields the identical event sequence.
	stats2, events2, _, _ := flapCell(t, seed)
	if !reflect.DeepEqual(events, events2) {
		t.Fatalf("same plan and seed produced different fault sequences:\n%v\n%v", events, events2)
	}
	if !stats2.Verified || stats2.BytesReceived != stats.BytesReceived {
		t.Fatalf("second run delivered %d verified=%v, want %d verified",
			stats2.BytesReceived, stats2.Verified, stats.BytesReceived)
	}
}

// TestMergedCohortPartitionSingleSharedFailover partitions the base stream's
// serving origin while a merged cohort is mid-title. The cohort must fail
// over as one shared stream — a handful of server-side retries total, not one
// storm per watcher — and every subscriber still receives the complete title
// in order.
func TestMergedCohortPartitionSingleSharedFailover(t *testing.T) {
	const (
		home = NodeID("home")
		o1   = NodeID("origin-a")
		o2   = NodeID("origin-b")
	)
	const numClusters = 64
	const clusterBytes = 4 << 10
	const watchers = 4
	var plan FaultPlan
	plan.SlowDisk(0, 5*time.Second, o1, 2*time.Millisecond).
		SlowDisk(0, 5*time.Second, o2, 2*time.Millisecond).
		FailPeer(40*time.Millisecond, 120*time.Millisecond, o1)

	spec := TopologySpec{
		Nodes: []NodeID{home, o1, o2},
		Links: []LinkSpec{
			{A: home, B: o1, CapacityMbps: 34},
			{A: home, B: o2, CapacityMbps: 34},
		},
	}
	svc, err := New(spec,
		WithClusterBytes(clusterBytes),
		WithDisks(2, numClusters*clusterBytes),
		WithNodeDisks(home, 1, clusterBytes),
		WithMergeWindow(numClusters),
		WithFaultPlan(plan, 7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	title := Title{Name: "partitioned", SizeBytes: numClusters * clusterBytes, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	for _, origin := range []NodeID{o1, o2} {
		if err := svc.Preload(origin, title.Name); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	// Bias routing toward origin-a so the partition hits the active source.
	if err := svc.SetLinkTraffic(home, o1, 2); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetLinkTraffic(home, o2, 10); err != nil {
		t.Fatal(err)
	}

	stats := make([]PlaybackStats, watchers)
	errs := make([]error, watchers)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := range watchers {
		p, err := svc.Player(home)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, p *Player) {
			defer wg.Done()
			<-gate
			stats[i], errs[i] = p.Watch(title.Name)
		}(i, p)
	}
	close(gate)
	wg.Wait()

	merged := 0
	for i := range watchers {
		if errs[i] != nil {
			t.Fatalf("watcher %d failed across the partition: %v", i, errs[i])
		}
		if !stats[i].Verified {
			t.Fatalf("watcher %d delivery not verified", i)
		}
		if len(stats[i].Records) != numClusters {
			t.Fatalf("watcher %d received %d clusters, want %d", i, len(stats[i].Records), numClusters)
		}
		for j, rec := range stats[i].Records {
			if rec.Index != j {
				t.Fatalf("watcher %d cluster %d at position %d: gap across the failover", i, rec.Index, j)
			}
		}
		if stats[i].Merged {
			merged++
		}
		// One shared failover, not flapping between sources: each subscriber
		// sees at most two source switches across its whole stream.
		switches := 0
		for j := 1; j < len(stats[i].Sources); j++ {
			if stats[i].Sources[j] != stats[i].Sources[j-1] {
				switches++
			}
		}
		if switches > 2 {
			t.Fatalf("watcher %d switched sources %d times, want a single shared failover", i, switches)
		}
	}
	if merged != watchers {
		t.Fatalf("%d of %d watchers merged, want the whole cohort", merged, watchers)
	}

	ms := svc.Metrics()
	home_ := ms[home]
	if home_.Counters["merge.sessions_merged"] == 0 {
		t.Fatal("no session attached to the cohort")
	}
	retries := home_.Counters["server.fetch_retries"]
	if retries == 0 {
		t.Fatal("the partition was never felt: no fetch retries")
	}
	// Shared recovery: the breaker caps the retry storm well below one
	// failure train per watcher per cluster.
	if retries > 10 {
		t.Fatalf("fetch retries = %d, want the cohort's single shared failover", retries)
	}
	if upstream := home_.Counters["server.remote_clusters"]; 2*upstream > int64(watchers*numClusters) {
		t.Fatalf("upstream fetches %d not shared across %d watchers", upstream, watchers)
	}
	if svc.InjectedFaults() == 0 {
		t.Fatal("injector reports no injected faults")
	}
}
