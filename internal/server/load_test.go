package server_test

import (
	"sync"
	"testing"

	"dvod/internal/client"
	"dvod/internal/grnet"
	"dvod/internal/media"
	"dvod/internal/topology"
)

// TestConcurrentWatchers hammers one deployment with parallel clients from
// every site watching overlapping titles: every delivery must verify, and
// the shared database/cache state must stay consistent under concurrency.
// (Run with -race in CI; the suite is race-clean.)
func TestConcurrentWatchers(t *testing.T) {
	lc := newCluster(t, nil)
	titles := []media.Title{
		{Name: "load-a", SizeBytes: 3*clusterBytes + 10, BitrateMbps: 1.5},
		{Name: "load-b", SizeBytes: 2 * clusterBytes, BitrateMbps: 1.5},
		{Name: "load-c", SizeBytes: 4 * clusterBytes, BitrateMbps: 1.5},
	}
	lc.addTitle(t, titles[0], grnet.Thessaloniki)
	lc.addTitle(t, titles[1], grnet.Xanthi)
	lc.addTitle(t, titles[2], grnet.Heraklio, grnet.Athens)

	homes := grnet.Nodes()
	const watchesPerClient = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(homes)*watchesPerClient)
	for _, home := range homes {
		wg.Add(1)
		go func(home topology.NodeID) {
			defer wg.Done()
			p, err := client.NewPlayer(home, lc.book)
			if err != nil {
				errs <- err
				return
			}
			for i := range watchesPerClient {
				title := titles[i%len(titles)]
				stats, err := p.Watch(title.Name)
				if err != nil {
					errs <- err
					return
				}
				if !stats.Verified || stats.BytesReceived != title.SizeBytes {
					errs <- errMismatch{title.Name, stats.BytesReceived, title.SizeBytes}
					return
				}
			}
		}(home)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent watch: %v", err)
	}
	// The catalog's holder sets must still be well-formed.
	for _, title := range titles {
		holders, err := lc.db.Catalog().Holders(title.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(holders) == 0 {
			t.Fatalf("title %s lost all holders", title.Name)
		}
	}
}

type errMismatch struct {
	title     string
	got, want int64
}

func (e errMismatch) Error() string {
	return e.title + ": byte count mismatch"
}
