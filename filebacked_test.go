package dvod

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sumCounter adds one counter across every node of the service.
func sumCounter(svc *Service, name string) int64 {
	var total int64
	for _, snap := range svc.Metrics() {
		total += snap.Counters[name]
	}
	return total
}

// TestFileBackedEndToEnd runs the full service on a file-backed store: the
// title's blocks land as real files, delivery verifies end to end, and on
// Linux every locally served cluster leaves through the kernel path.
func TestFileBackedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := TopologySpec{
		Nodes: []NodeID{"A", "B"},
		Links: []LinkSpec{{A: "A", B: "B", CapacityMbps: 34}},
	}
	svc, err := New(spec,
		WithClusterBytes(8192),
		WithDisks(3, 1<<20),
		WithFileBackedDisks(dir),
		WithMergeWindow(4),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer svc.Close()

	title := Title{Name: "zorba", SizeBytes: 100_000, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload("A", "zorba"); err != nil {
		t.Fatalf("Preload: %v", err)
	}

	// The preload must exist as block files on disk, under the node's own
	// subtree.
	blocks, err := filepath.Glob(filepath.Join(dir, "A", "*", "*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatalf("no block files under %s after preload", dir)
	}

	// Two concurrent local watchers: with the merge window open the second
	// rides the first's cohort, so the fan-out path sends file-backed frames
	// too. Content verification is on (the default), so every delivered byte
	// is checked against the synthetic content function.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := svc.Player("A")
			if err != nil {
				errs[i] = err
				return
			}
			stats, err := p.Watch("zorba")
			if err == nil && (!stats.Verified || stats.BytesReceived != title.SizeBytes) {
				err = fmt.Errorf("bad playback stats: %+v", stats)
			}
			errs[i] = err
		}()
		time.Sleep(20 * time.Millisecond) // let the first session open the cohort
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("watch %d: %v", i, err)
		}
	}

	kernel := sumCounter(svc, "server.kernel_sends")
	fallback := sumCounter(svc, "server.fallback_sends")
	if kernel+fallback == 0 {
		t.Fatal("no sends counted")
	}
	if runtime.GOOS == "linux" {
		if kernel == 0 {
			t.Fatalf("kernel_sends = 0 on linux (fallback_sends = %d)", fallback)
		}
		if fallback != 0 {
			t.Fatalf("fallback_sends = %d on a file-backed store with no faults armed", fallback)
		}
	} else if fallback == 0 {
		t.Fatal("fallback_sends = 0 off linux")
	}
}

// TestFileBackedFaultsForceFallback arms a fault plan on a file-backed
// deployment: the injector's read interceptor makes disk.FileRef refuse, so
// every send must take the userspace fallback — and the stream still
// verifies, because the fallback is byte-identical.
func TestFileBackedFaultsForceFallback(t *testing.T) {
	var plan FaultPlan
	plan.SlowDisk(0, 2*time.Second, "A", time.Millisecond)
	svc, err := New(TopologySpec{
		Nodes: []NodeID{"A", "B"},
		Links: []LinkSpec{{A: "A", B: "B", CapacityMbps: 34}},
	},
		WithClusterBytes(8192),
		WithDisks(2, 1<<20),
		WithFileBackedDisks(t.TempDir()),
		WithFaultPlan(plan, 11),
	)
	if err != nil {
		t.Fatal(err)
	}
	title := Title{Name: "delayed", SizeBytes: 50_000, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload("A", "delayed"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	p, err := svc.Player("A")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("delayed")
	if err != nil {
		t.Fatalf("Watch under disk fault: %v", err)
	}
	if !stats.Verified || stats.BytesReceived != title.SizeBytes {
		t.Fatalf("stats = %+v", stats)
	}
	if kernel := sumCounter(svc, "server.kernel_sends"); kernel != 0 {
		t.Fatalf("kernel_sends = %d with a fault interceptor armed, want 0", kernel)
	}
	if fallback := sumCounter(svc, "server.fallback_sends"); fallback == 0 {
		t.Fatal("fallback_sends = 0")
	}
}

// TestMemoryDisksFaultsForceFallback is TestFileBackedFaultsForceFallback on
// in-memory disks, whose blocks are tmpfs files on Linux: an armed fault
// plan still makes every send take the userspace copy, and the stream still
// verifies.
func TestMemoryDisksFaultsForceFallback(t *testing.T) {
	var plan FaultPlan
	plan.SlowDisk(0, 2*time.Second, "A", time.Millisecond)
	svc, err := New(TopologySpec{
		Nodes: []NodeID{"A", "B"},
		Links: []LinkSpec{{A: "A", B: "B", CapacityMbps: 34}},
	},
		WithClusterBytes(8192),
		WithDisks(2, 1<<20),
		WithFaultPlan(plan, 11),
	)
	if err != nil {
		t.Fatal(err)
	}
	title := Title{Name: "delayed", SizeBytes: 50_000, BitrateMbps: 1.5}
	if err := svc.AddTitle(title); err != nil {
		t.Fatal(err)
	}
	if err := svc.Preload("A", "delayed"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	p, err := svc.Player("A")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Watch("delayed")
	if err != nil {
		t.Fatalf("Watch under disk fault: %v", err)
	}
	if !stats.Verified || stats.BytesReceived != title.SizeBytes {
		t.Fatalf("stats = %+v", stats)
	}
	if kernel := sumCounter(svc, "server.kernel_sends"); kernel != 0 {
		t.Fatalf("kernel_sends = %d with a fault interceptor armed, want 0", kernel)
	}
	if fallback := sumCounter(svc, "server.fallback_sends"); fallback == 0 {
		t.Fatal("fallback_sends = 0")
	}
}

// TestWithFileBackedDisksReuseRejected: a second service over the same data
// directory must fail loudly (block files already exist), not silently
// serve stale content.
func TestWithFileBackedDisksReuseRejected(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Service, error) {
		svc, err := New(TopologySpec{
			Nodes: []NodeID{"A", "B"},
			Links: []LinkSpec{{A: "A", B: "B", CapacityMbps: 34}},
		}, WithClusterBytes(8192), WithDisks(1, 1<<20), WithFileBackedDisks(dir))
		if err != nil {
			return nil, err
		}
		if err := svc.AddTitle(Title{Name: "dup", SizeBytes: 30_000, BitrateMbps: 1}); err != nil {
			svc.Close()
			return nil, err
		}
		return svc, svc.Preload("A", "dup")
	}
	svc, err := mk()
	if err != nil {
		t.Fatalf("first service: %v", err)
	}
	defer svc.Close()
	if svc2, err := mk(); err == nil {
		svc2.Close()
		t.Fatal("second preload over the same data dir succeeded")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
