package dvod

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosServerKillUnderLoad combines the resilience machinery end to end:
// six live servers, three dual-replica titles, concurrent clients watching
// in a loop while one replica holder is killed mid-run. No failure detector
// runs: each home finds the dead server by its failed fetches and its
// breaker. Every delivery that reports success must be byte-verified; after
// the kill, deliveries must keep succeeding via the surviving replicas.
func TestChaosServerKillUnderLoad(t *testing.T) {
	svc, err := New(GRNETTopology(),
		WithClusterBytes(4096),
		WithDisks(2, 4<<20),
		WithNodeDisks("U2", 1, 1024), // the client site caches nothing
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	seedTenAM(t, svc)

	titles := make([]Title, 3)
	for i := range titles {
		titles[i] = Title{
			Name:        fmt.Sprintf("chaos-%d", i),
			SizeBytes:   int64(20_000 + i*7_000),
			BitrateMbps: 1.5,
		}
		if err := svc.AddTitle(titles[i]); err != nil {
			t.Fatal(err)
		}
		// Every title on U4 and one other replica.
		if err := svc.Preload("U4", titles[i].Name); err != nil {
			t.Fatal(err)
		}
		other := []NodeID{"U5", "U6", "U3"}[i]
		if err := svc.Preload(other, titles[i].Name); err != nil {
			t.Fatal(err)
		}
	}

	const (
		clients     = 4
		watchesEach = 10
		killAfter   = 2 // watches completed per client before the kill
	)
	var (
		wg          sync.WaitGroup
		successes   atomic.Int64
		failures    atomic.Int64
		corruptions atomic.Int64
		killOnce    sync.Once
		killed      = make(chan struct{})
	)
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			player, err := svc.Player("U2")
			if err != nil {
				t.Errorf("player: %v", err)
				return
			}
			for i := range watchesEach {
				if i == killAfter && c == 0 {
					killOnce.Do(func() {
						if err := svc.StopServer("U4"); err != nil {
							t.Errorf("StopServer: %v", err)
						}
						close(killed)
					})
				}
				title := titles[(c+i)%len(titles)]
				stats, err := player.Watch(title.Name)
				if err != nil {
					// Transient failure while the kill propagates is
					// acceptable; corruption is not.
					failures.Add(1)
					continue
				}
				if !stats.Verified || stats.BytesReceived != title.SizeBytes {
					corruptions.Add(1)
					continue
				}
				successes.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if corruptions.Load() != 0 {
		t.Fatalf("%d corrupted deliveries", corruptions.Load())
	}
	if successes.Load() == 0 {
		t.Fatal("no successful deliveries at all")
	}
	t.Logf("chaos run: %d ok, %d transient failures", successes.Load(), failures.Load())

	// After the dust settles, the survivors serve everything.
	<-killed
	player, err := svc.Player("U2")
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range titles {
		var lastErr error
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			stats, err := player.Watch(title.Name)
			if err == nil {
				if !stats.Verified {
					t.Fatalf("post-kill delivery of %s not verified", title.Name)
				}
				for _, src := range stats.Sources {
					if src == "U4" {
						t.Fatalf("post-kill delivery of %s sourced from dead U4", title.Name)
					}
				}
				lastErr = nil
				break
			}
			lastErr = err
			time.Sleep(20 * time.Millisecond)
		}
		if lastErr != nil && !errors.Is(lastErr, nil) {
			t.Fatalf("post-kill watch of %s never recovered: %v", title.Name, lastErr)
		}
	}
}
